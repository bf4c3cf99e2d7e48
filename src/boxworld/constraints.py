"""Validity checkers: uncertainty relations and moment-matrix positivity.

The checks form a hierarchy.  The p-uncertainty relation bounds the
power sum of moments over every pairwise anti-commuting set; up to four
systems a maximum-weight clique search finds the worst one, and beyond
that a seeded search looks for violations.  Positivity
of moment matrices over disjoint-support collections tightens it; the
same condition over maximal commuting collections tightens it further;
and positive-semidefiniteness of the density matrix reconstructed from
the moments is the top of the ladder.  ``classify_state`` reads the
state's moments once, as a :class:`MomentTable`, walks the levels in
order on that table and reports the first failure.  Both positivity
rungs take the smallest eigenvalue of a collection's group matrix
``mu[i xor j]`` (:func:`moment_matrix`), which is the minimum of the
Walsh-Hadamard transform of its subset moments ``mu``.  Each rung keeps
one plan per n, the dense-vector index and sign of every subset product
of every collection, so a state's moments are read once into a vector
and the collections of each size are transformed in one matrix product.
The maximal commuting collections are generated as Lagrangian subspaces
(:func:`maximal_commuting_sets`).

Every report follows one margin convention: a check passes iff its
margin is at least ``-tol``.  Uncertainty margins are ``1 - worst power
sum``; positivity margins are smallest eigenvalues.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError, ResourceError
from .pauli import (
    MAX_COMMUTING_SYSTEMS,
    PauliString,
    gamma_set,
    maximal_commuting_sets,
    product_of,
)
from .states import (
    DEFAULT_TOL,
    MAX_COLLECTION_SIZE,
    CliffordCircuit,
    CoefficientState,
    GnstState,
    MomentTable,
    _characters,
    _collection_products,
    _column,
    _marginals,
    conjugate_pauli,
    moments_from_probabilities,
)

__all__ = [
    "ValidationReport",
    "ClassificationResult",
    "LEVELS",
    "validate_exponent",
    "check_p_uncertainty",
    "uncertainty_margin",
    "collection_moment_vector",
    "moment_matrix",
    "check_psd",
    "disjoint_support_collections",
    "check_local_moments",
    "maximal_commuting_sets",
    "check_commuting_moments",
    "classify_state",
    "two_measurement_moment_matrix",
    "two_measurement_eigenvalues",
    "SylvesterReport",
    "two_measurement_sylvester",
    "validate_gnst",
]

MAX_LOCAL_SYSTEMS = 5

LEVELS = ("invalid", "p-bin", "p-box", "p-nonlocal", "quantum-consistent")

StateLike = CoefficientState | GnstState | MomentTable


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of one constraint check.

    Attributes:
        constraint: Name of the checked constraint.
        passed: True iff ``margin >= -tol`` held at check time.
        margin: Slack of the constraint; negative means violated.
        worst_set: Text forms of the strings (or setting labels)
            realizing the margin.
        detail: Free-form diagnostics (mode, counts, skips).
    """

    constraint: str
    passed: bool
    margin: float
    worst_set: tuple[str, ...] = ()
    detail: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.passed

    def to_json_dict(self) -> dict:
        out = {
            "constraint": self.constraint,
            "passed": self.passed,
            "margin": self.margin,
            "worst_set": list(self.worst_set),
        }
        if self.detail:
            out["detail"] = dict(self.detail)
        return out


def validate_exponent(p: float) -> float:
    """Normalize an uncertainty exponent: any float >= 1, or infinity."""
    if p == math.inf:
        return p
    p = float(p)
    if not p >= 1.0:
        raise DomainError(f"the exponent must satisfy p >= 1, got {p}")
    return p


def _moment_table(state: StateLike) -> MomentTable:
    """The moments of a state as one table.

    Coefficient states give lenient tables (an absent string has moment
    zero); probability tables give strict ones unless compact, since an
    unmeasured moment is unknown, not zero.
    """
    if isinstance(state, MomentTable):
        return state
    if isinstance(state, CoefficientState):
        return MomentTable.from_coefficient_state(state)
    if isinstance(state, GnstState):
        return moments_from_probabilities(state)
    raise DomainError(f"cannot extract moments from {type(state).__name__}")


# ---------------------------------------------------------------------------
# uncertainty relation
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _canonical_families(n: int) -> tuple[tuple[PauliString, ...], ...]:
    """The ladder set and its distinct images under 64 random Clifford
    circuits of eight gates each (seed 0), in circuit order."""
    rng = random.Random(0)
    names = ["H", "X", "Y", "Z"] + (["CNOT"] if n > 1 else [])
    ladder = tuple(gamma_set(n))
    families = [ladder]
    seen = {frozenset(g.basis_key() for g in ladder)}
    for _ in range(64):
        gates = []
        for _ in range(8):
            name = rng.choice(names)
            if name == "CNOT":
                gates.append((name, tuple(rng.sample(range(n), 2))))
            else:
                gates.append((name, (rng.randrange(n),)))
        circuit = CliffordCircuit(n, tuple(gates))
        image = tuple(conjugate_pauli(circuit, g).canonical() for g in ladder)
        key = frozenset(g.basis_key() for g in image)
        if key not in seen:
            seen.add(key)
            families.append(image)
    return tuple(families)


def _heaviest_anticommuting_set(
    n: int, keys: Sequence[int], weight: Sequence[float]
) -> tuple[float, list[int], int]:
    """The pairwise anti-commuting subset of ``keys`` (packed exponents
    ``a | b << n``) with the largest total ``weight``, its members and
    the number of anti-commuting sets examined.

    The set is a maximum-weight clique of the anti-commutation graph,
    found by branch and bound (Carraghan and Pardalos, Oper. Res. Lett.
    9, 1990; Ostergard, Discrete Appl. Math. 120, 2002).  Vertices are
    taken heaviest first.  No more than 2n + 1 strings pairwise
    anti-commute, so a branch is pruned once its weight plus its
    2n + 1 - |clique| heaviest candidates cannot beat the best set
    found.  Every path adds weights heaviest first, as the bound does,
    so the pruning is exact in floating point.
    """
    keys = sorted(keys, key=weight.__getitem__, reverse=True)
    w = [weight[k] for k in keys]
    packed = np.array(keys, dtype=np.uint8)  # n <= 4: every key is below 4**4
    a, b = packed & (1 << n) - 1, packed >> n
    odd = (a[:, None] & b) ^ (b[:, None] & a)
    odd ^= odd >> 2  # fold the parity of the (at most four) bits into bit 0
    odd ^= odd >> 1
    rows = np.packbits(odd & 1, axis=1, bitorder="little")
    data, width = rows.tobytes(), rows.shape[1]
    adj = [int.from_bytes(data[i * width : (i + 1) * width], "little") for i in range(len(keys))]
    best, best_mask, examined = 0.0, 0, 0

    def extend(total: float, mask: int, candidates: int, room: int) -> None:
        nonlocal best, best_mask, examined
        while candidates:
            bound, rest = total, candidates
            for _ in range(min(room, rest.bit_count())):
                bound += w[(rest & -rest).bit_length() - 1]
                rest &= rest - 1
            if bound <= best:
                return
            v = (candidates & -candidates).bit_length() - 1
            grown, grown_mask = total + w[v], mask | 1 << v
            examined += 1
            if grown > best:
                best, best_mask = grown, grown_mask
            extend(grown, grown_mask, candidates & adj[v], room - 1)
            candidates &= candidates - 1

    extend(0.0, 0, (1 << len(keys)) - 1, 2 * n + 1)
    return best, [k for i, k in enumerate(keys) if best_mask >> i & 1], examined


def check_p_uncertainty(
    state: StateLike, p: float, tol: float = DEFAULT_TOL
) -> ValidationReport:
    """Check the power-sum uncertainty relation at exponent ``p``.

    Over every pairwise anti-commuting set of Hermitian strings the
    moments must satisfy sum |m|**p <= 1; at p = infinity the relation
    degenerates to |m| <= 1 for every single string.  The system count
    picks the search, and the report's ``mode`` names it:

        * ``exhaustive``, up to four systems: the heaviest pairwise
          anti-commuting subset of the strings with known non-zero
          moments, by a maximum-weight clique search.  A proof, since
          zero and unknown moments add nothing to any power sum.  The
          report's ``sets`` counts the anti-commuting sets the search
          examined.
        * ``canonical``, beyond four systems: the standard ladder set
          plus its images under 64 seeded random Clifford circuits.  A
          violation search, not a proof of validity; unknown moments
          count as 0.
        * ``max``, at p = infinity: the largest single moment.

    Raises:
        DomainError: for p < 1.
    """
    p = validate_exponent(p)
    table = _moment_table(state)
    n = table.n
    # Indexed by packed key a | b << n.  An unknown (NaN) moment adds
    # nothing to a power sum, as a zero one does; entry 0 is the identity.
    moments = np.fmax(np.abs(table.vector()), 0.0)
    moments[0] = 0.0
    keys = np.flatnonzero(moments).tolist()

    if p == math.inf:
        # The worst set is a single worst string, the first in
        # table.strings() order, which is the order of a << n | b.
        by_ab = moments.reshape(1 << n, 1 << n).T.ravel()
        first = int(np.argmax(by_ab))
        worst_abs = float(by_ab[first])
        worst = (PauliString.hermitian(n, first >> n, first & (1 << n) - 1).text(),)
        margin = 1.0 - worst_abs
        return ValidationReport(
            "p-uncertainty",
            margin >= -tol,
            margin,
            worst if worst_abs else (),
            {"p": "inf", "mode": "max", "strings": len(keys)},
        )

    weight = [m**p for m in moments.tolist()]
    if n <= MAX_COMMUTING_SYSTEMS:
        mode = "exhaustive"
        worst_sum, members, sets = _heaviest_anticommuting_set(n, keys, weight)
        pairs = sorted((k & (1 << n) - 1, k >> n) for k in members)  # table.strings() order
        worst = tuple(PauliString.hermitian(n, a, b).text() for a, b in pairs)
    else:
        mode = "canonical"
        families = _canonical_families(n)
        worst_sum, worst, sets = 0.0, (), len(families)
        for family in families:
            total = sum(weight[s.a | s.b << n] for s in family)
            if total > worst_sum:
                worst_sum = total
                worst = tuple(s.canonical().text() for s in family)
    margin = 1.0 - worst_sum
    return ValidationReport(
        "p-uncertainty",
        margin >= -tol,
        margin,
        worst,
        {"p": p, "mode": mode, "sets": sets, "strings": len(keys)},
    )


def uncertainty_margin(state: StateLike, p: float) -> float:
    """Convenience wrapper: the margin of :func:`check_p_uncertainty`."""
    return check_p_uncertainty(state, p).margin


# ---------------------------------------------------------------------------
# moment matrices of commuting collections
# ---------------------------------------------------------------------------


def collection_moment_vector(
    collection: Sequence[PauliString], state: StateLike
) -> np.ndarray:
    """Subset moments of a pairwise commuting collection.

    Raises:
        IncompleteMomentError: if the state does not determine a needed
            moment.
    """
    table = _moment_table(state)
    if collection and collection[0].n != table.n:
        raise DomainError("collection and state system counts differ")
    return np.array([table.value(s) for s in _collection_products(collection)])


def moment_matrix(
    collection: Sequence[PauliString],
    state: StateLike,
    scaled: bool = False,
) -> np.ndarray:
    """The moment matrix of a commuting collection.

    Entry (i, j) is the moment of the product of the subsets indexed by
    i and j, which for a commuting collection of Hermitian strings is
    exactly the subset indexed by i xor j.  With ``scaled=True`` the
    matrix is divided by its dimension, making it equal to
    B diag(outcome probabilities) B^T for the sign matrix B.
    """
    mu = collection_moment_vector(collection, state)
    size = mu.shape[0]
    idx = np.arange(size)
    k = mu[np.bitwise_xor(idx[:, None], idx[None, :])]
    return k / size if scaled else k


def check_psd(matrix: np.ndarray, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Positive-semidefiniteness report for a real symmetric or complex
    Hermitian matrix.

    Passes iff the minimum eigenvalue is at least ``-tol``; the margin
    is that eigenvalue.

    Raises:
        DomainError: non-square or non-Hermitian input.
    """
    m = np.asarray(matrix)
    m = m.astype(complex if np.iscomplexobj(m) else float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.conj().T).max()) > 1e-12 * scale:
        raise DomainError("matrix is not Hermitian")
    smallest = float(np.linalg.eigvalsh(m)[0])
    return ValidationReport(
        "psd", smallest >= -tol, smallest, (), {"dim": m.shape[0]}
    )


def _set_partitions(items: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + ((first,) + partition[i],) + partition[i + 1 :]
        yield ((first,),) + partition


def _part_strings(n: int, part: tuple[int, ...]) -> list[PauliString]:
    out = []
    for letters in itertools.product("XZY", repeat=len(part)):
        singles = [
            PauliString.single(n, pos, letter) for pos, letter in zip(part, letters)
        ]
        out.append(product_of(singles, n=n))
    return out


def disjoint_support_collections(n: int) -> Iterator[tuple[PauliString, ...]]:
    """Maximal collections of strings with pairwise disjoint supports.

    One collection per (system partition, letter assignment): each part
    of the partition carries one string supported on exactly that part.
    Every disjoint-support collection embeds in one of these, so its
    moment matrix is a principal submatrix of a maximal one.
    """
    for partition in _set_partitions(tuple(range(n))):
        for choice in itertools.product(*(_part_strings(n, part) for part in partition)):
            yield choice


def _group(members: Sequence[int], n: int) -> tuple[list[int], list[int]]:
    """Packed keys ``a | b << n`` and signs of the group, up to sign, that
    pairwise commuting Hermitian basis strings generate.

    Every member outside the span so far doubles the list with its
    products, so bit k of an element's index names the k-th independent
    generator and the moment matrix over the elements is ``mu[i xor j]``.
    Element e times member g has phase phase_e + |a_g & b_g| + 2 |b_e & a_g|;
    its sign is that phase relative to |a & b| of the product.
    """
    weight = lambda k: (k & k >> n & (1 << n) - 1).bit_count()
    keys, phases = [0], [0]
    for g in members:
        if g not in keys:
            w = weight(g)
            phases += [p + w + 2 * (e >> n & g).bit_count() for e, p in zip(keys, phases)]
            keys += [e ^ g for e in keys]
    return keys, [1 - ((p - weight(k)) & 2) for k, p in zip(keys, phases)]


@dataclass(frozen=True)
class _Plan:
    """The collections of one positivity rung at one n, as arrays.

    ``named`` holds the collections in report order, each as the packed
    keys ``a | b << n`` of its members.  Each group holds the
    collections whose groups have the same size 2**m: their rows in
    ``named``, the index into :meth:`MomentTable.vector` and the sign of
    every group element, and the characters of Z_2^m.
    """

    named: tuple[tuple[int, ...], ...]
    groups: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]


def _plan(collections: Iterable[Sequence[PauliString]], n: int) -> _Plan:
    named = tuple(tuple(s.a | s.b << n for s in members) for members in collections)
    by_size: dict[int, list] = {}
    for row, members in enumerate(named):
        keys, signs = _group(members, n)
        by_size.setdefault(len(keys), []).append((row, keys, signs))
    groups = []
    for size, entries in sorted(by_size.items()):
        rows, idx, signs = zip(*entries)
        groups.append(
            (
                np.array(rows, dtype=np.int32),
                np.array(idx, dtype=np.int16),  # 4**n <= 1024 entries
                np.array(signs, dtype=np.int8),
                _characters(size),
            )
        )
    return _Plan(named, tuple(groups))


@lru_cache(maxsize=MAX_LOCAL_SYSTEMS)
def _local_plan(n: int) -> _Plan:
    return _plan(disjoint_support_collections(n), n)


@lru_cache(maxsize=MAX_COMMUTING_SYSTEMS)
def _commuting_plan(n: int) -> _Plan:
    return _plan(maximal_commuting_sets(n), n)


def _positivity_report(
    constraint: str, table: MomentTable, plan: _Plan, tol: float
) -> ValidationReport:
    """Smallest group-matrix eigenvalue over a plan's collections.

    Each collection's subset moments are read from the table's moment
    vector; their Walsh-Hadamard transform is the spectrum.  Collections
    the table leaves undetermined (a NaN moment) are skipped and
    counted.  The first collection reaching the minimum names the
    report's worst set.
    """
    vec = table.vector()
    smallest = np.full(len(plan.named), np.inf)
    skipped = 0
    for rows, idx, signs, characters in plan.groups:
        mu = signs * vec[idx]
        known = ~np.isnan(mu).any(axis=1)
        skipped += len(rows) - int(known.sum())
        smallest[rows[known]] = (mu[known] @ characters).min(axis=1)
    evaluated = len(plan.named) - skipped
    margin, worst = 1.0, ()
    if evaluated:
        row = int(np.argmin(smallest))
        margin = float(smallest[row])
        n, low = table.n, (1 << table.n) - 1
        worst = tuple(PauliString.hermitian(n, k & low, k >> n).text() for k in plan.named[row])
    return ValidationReport(
        constraint,
        margin >= -tol,
        margin,
        worst,
        {"collections": evaluated, "skipped": skipped},
    )


def check_local_moments(
    state: StateLike, tol: float = DEFAULT_TOL
) -> ValidationReport:
    """Positivity of moment matrices over disjoint-support collections.

    A collection of m strings on disjoint supports generates a group of
    2**m signed strings; the smallest eigenvalue of its moment matrix
    ``mu[i xor j]`` is the minimum of the Walsh-Hadamard transform of
    the subset moments ``mu``.  All collections of one n are evaluated
    together from one moment vector.  Collections the state leaves
    undetermined (possible for partial probability tables) are skipped
    and counted in the report detail.

    Raises:
        ResourceError: beyond five systems.
    """
    table = _moment_table(state)
    if table.n > MAX_LOCAL_SYSTEMS:
        raise ResourceError(
            f"local moment check is limited to n <= {MAX_LOCAL_SYSTEMS}"
        )
    return _positivity_report("local-moments", table, _local_plan(table.n), tol)


def check_commuting_moments(
    state: StateLike, tol: float = DEFAULT_TOL
) -> ValidationReport:
    """Positivity of moment matrices over maximal commuting collections.

    A maximal collection is a Lagrangian subspace, a group up to sign,
    so its moment matrix is the group matrix of n independent
    generators, whose subset products are the identity and every
    member; its spectrum is the Walsh-Hadamard transform of those 2**n
    subset moments.  All collections are evaluated together from one
    moment vector.  The worst set lists every member.  Undetermined
    collections are skipped.

    Raises:
        ResourceError: beyond four systems.
    """
    table = _moment_table(state)
    return _positivity_report("commuting-moments", table, _commuting_plan(table.n), tol)


def _density_matrix(table: MomentTable) -> np.ndarray:
    """rho = 2**-n (identity + sum over stored moments of m_k sigma_k).

    The basis element sigma_(a,b) = i**|a & b| X**a Z**b maps |j> to
    i**|a & b| (-1)**|j & b| |j xor a>, so each moment adds one signed
    permutation.  Bit i of a basis index is system i, the reverse of the
    kron order; the spectrum does not depend on the order.
    """
    dim = 1 << table.n
    idx = np.arange(dim)
    parity = np.array([j.bit_count() & 1 for j in range(dim)])
    rho = np.eye(dim, dtype=complex)
    for s in table.strings():
        phase = 1j ** (s.a & s.b).bit_count()
        rho[idx ^ s.a, idx] += table.value(s) * phase * (1 - 2 * parity[idx & s.b])
    return rho / dim


# ---------------------------------------------------------------------------
# hierarchy classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationResult:
    """Where a state sits in the validity hierarchy.

    ``level`` is one of :data:`LEVELS`; ``reports`` holds every check
    that ran, in order, the last one being the first failure (if any).
    """

    level: str
    reports: tuple[ValidationReport, ...]

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "reports": [r.to_json_dict() for r in self.reports],
        }


def classify_state(
    state: StateLike, p: float, tol: float = DEFAULT_TOL
) -> ClassificationResult:
    """Run the constraint ladder bottom-up and name the reached level.

    The state's moments are read once; every rung checks that table.
    Moments the state does not determine are treated as zero when the
    reconstructed density matrix is tested, so for partial tables the
    top level asserts consistency of one completion, not of all.

    Raises:
        ResourceError: beyond four systems, from the commuting rung, if
            the state passes the rungs below it.
    """
    table = _moment_table(state)
    reports: list[ValidationReport] = []
    first = check_p_uncertainty(table, p, tol=tol)
    reports.append(first)
    if not first.passed:
        return ClassificationResult("invalid", tuple(reports))
    local = check_local_moments(table, tol=tol)
    reports.append(local)
    if not local.passed:
        return ClassificationResult("p-bin", tuple(reports))
    commuting = check_commuting_moments(table, tol=tol)
    reports.append(commuting)
    if not commuting.passed:
        return ClassificationResult("p-box", tuple(reports))
    density = replace(check_psd(_density_matrix(table), tol=tol), constraint="density-psd")
    reports.append(density)
    level = "quantum-consistent" if density.passed else "p-nonlocal"
    return ClassificationResult(level, tuple(reports))


# ---------------------------------------------------------------------------
# the two-measurement closed form
# ---------------------------------------------------------------------------


def two_measurement_moment_matrix(a: float, b: float, c: float) -> np.ndarray:
    """Moment matrix of two commuting strings with moments a, b and
    product moment c, indexed (identity, first, second, product)."""
    return np.array(
        [
            [1.0, a, b, c],
            [a, 1.0, c, b],
            [b, c, 1.0, a],
            [c, b, a, 1.0],
        ]
    )


def two_measurement_eigenvalues(
    a: float, b: float, c: float
) -> tuple[float, float, float, float]:
    """Closed-form spectrum of the two-measurement moment matrix, ascending.

    The matrix is the group matrix of the Klein four-group, so its
    eigenvalues are the character sums: 1 plus the signed total of
    (a, b, c) with an even number of minus signs.
    """
    eigs = (
        1.0 + a + b + c,
        1.0 + a - b - c,
        1.0 - a + b - c,
        1.0 - a - b + c,
    )
    return tuple(sorted(eigs))


@dataclass(frozen=True)
class SylvesterReport:
    box_ok: bool
    cubic_ok: bool
    det_ok: bool

    @property
    def passed(self) -> bool:
        return self.box_ok and self.cubic_ok and self.det_ok

    def __bool__(self) -> bool:
        return self.passed


def two_measurement_sylvester(
    a: float, b: float, c: float, tol: float = 0.0
) -> SylvesterReport:
    """Principal-minor positivity test for the two-measurement matrix.

    Three conditions, one per minor size: every 2x2 minor is 1 - x**2
    for a coordinate x (the box), every 3x3 minor equals
    1 - a**2 - b**2 - c**2 + 2abc (the cubic), and the determinant is
    the product of the four closed-form eigenvalues.  Together they are
    equivalent to positive semidefiniteness; no proper subset is.
    """
    box = max(abs(a), abs(b), abs(c)) <= 1.0 + tol
    cubic = 1.0 - a * a - b * b - c * c + 2.0 * a * b * c >= -tol
    det = math.prod(two_measurement_eigenvalues(a, b, c)) >= -tol
    return SylvesterReport(box, cubic, det)


# ---------------------------------------------------------------------------
# probability-table structural validation
# ---------------------------------------------------------------------------


def validate_gnst(state: GnstState, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Structural validation of a probability table, as one report.

    Four sub-checks: every setting's distribution is normalized; every
    probability is non-negative; marginal distributions do not depend on
    the measurement choices outside the marginalized systems; and where
    two settings overlap, the moments of the shared sub-collection
    agree.  The aggregate passes iff all four do; its margin is the
    worst sub-margin and the sub-reports ride along in the detail.
    Reports instead of raising, so tables built with ``check=False``
    can be diagnosed.
    """
    n = state.n
    settings = state.settings()

    norm_dev, norm_worst = 0.0, ()
    pos_min, pos_worst = 1.0, ()
    rows = [state.probabilities(setting) for setting in settings]
    for setting, probs in zip(settings, rows):
        dev = abs(sum(probs) - 1.0)
        if dev > norm_dev:
            norm_dev, norm_worst = dev, (str(setting.labels),)
        low = min(probs)
        if low < pos_min:
            pos_min, pos_worst = low, (str(setting.labels),)

    signal_dev, signal_worst = 0.0, ()
    overlap_dev, overlap_worst = 0.0, ()
    if n > 1:
        mu = (np.array(rows) @ _characters(1 << n)).tolist()
        for keep in itertools.chain.from_iterable(
            itertools.combinations(range(n), r) for r in range(1, n)
        ):
            column = _column(n, keep)
            moments: dict[tuple[int, ...], float] = {}
            for row, (setting, sub, _, deviation, source) in zip(mu, _marginals(state, keep)):
                pair = (str(source), str(setting.labels))
                if deviation > signal_dev:
                    signal_dev, signal_worst = deviation, pair
                dev = abs(row[column] - moments.setdefault(sub, row[column]))
                if dev > overlap_dev:
                    overlap_dev, overlap_worst = dev, pair

    checks = (
        ValidationReport("normalization", norm_dev <= tol, -norm_dev, norm_worst),
        ValidationReport("positivity", pos_min >= -tol, pos_min, pos_worst),
        ValidationReport("no-signaling", signal_dev <= tol, -signal_dev, signal_worst),
        ValidationReport(
            "overlap-consistency", overlap_dev <= tol, -overlap_dev, overlap_worst
        ),
    )
    worst = min(checks, key=lambda r: r.margin)
    return ValidationReport(
        "gnst-structure",
        all(r.passed for r in checks),
        worst.margin,
        worst.worst_set,
        {"checks": [r.to_json_dict() for r in checks]},
    )
