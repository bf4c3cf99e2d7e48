"""Validity checkers: uncertainty relations and moment-matrix positivity.

The checks form a hierarchy.  The p-uncertainty relation bounds the
power sum of moments over every pairwise anti-commuting set.  One body
checks it at every n, from one input: the table's stored non-zero
moments as pairs of packed key ``a | b << n`` and magnitude |m|, in key
order.  At finite p one maximum-weight clique search runs at every n,
capped at ``_SEARCH_SETS`` examined sets: a search that finishes proves
its worst set (``exhaustive``), one that stops at the cap reports the
heaviest set found (``budgeted``).  Up to four systems, where a packed
key fits one byte, a repeated list of pairs is answered from a bounded
cache (256 profiles, under 1 MB).  Positivity of moment
matrices over disjoint-support collections tightens it; the same
condition over maximal commuting collections tightens it further; and
positive-semidefiniteness of the density matrix reconstructed from the
moments, by a Walsh-Hadamard transform, is the top of the ladder.
``classify_state`` reads the state's moments once, as a
:class:`MomentTable`, calls the rungs in order on that table and reports
the first failure, or the first rung too large to run.  Both positivity
rungs take the smallest eigenvalue of a collection's group matrix
``mu[i xor j]`` (:func:`moment_matrix`), which is the minimum of the
Walsh-Hadamard transform of its subset moments ``mu``.  Each keeps one
plan per n, the dense-vector index (``intp``) and sign (float64) of
every subset product of every collection, so the collections of each
size are gathered from the moment vector and transformed in one matrix
product.  The maximal commuting collections are generated as Lagrangian
subspaces (:func:`~boxworld.pauli.lagrangian_rows`), and both plans are
built from rows of packed exponents, without Pauli string objects.

Only the rungs above the uncertainty rung read the 4**n moment vector,
which :meth:`MomentTable.vector` builds once per table, and only they
load numpy: the uncertainty rung is plain Python, so importing this
module and checking the uncertainty relation load none.  The rest of a
rung's setup is kept per n: the plans, the text of every basis string
(for worst sets), and the density rung's phases, characters and gather
index, each in an ``lru_cache`` whose ``maxsize`` is the rung's system
limit.

Only a strict table can leave a moment unknown: its vector reads NaN
there, while a lenient table's reads 0, and every table refuses
non-finite values.  An unknown moment makes its collection's minimum
NaN, which one strict-only pass after the positivity transform skips
and counts; the density rung reads a strict table's NaN as zero.

Every report follows one margin convention: a check passes iff its
margin is at least ``-tol``.  Uncertainty margins are ``1 - worst power
sum``; positivity margins are smallest eigenvalues.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import DomainError, ResourceError, validate_exponent
from .pauli import (
    MAX_COMMUTING_SYSTEMS,
    PauliString,
    _basis_keys,
    lagrangian_rows,
)
from .states import (
    DEFAULT_TOL,
    CoefficientState,
    GnstState,
    MomentTable,
    _characters,
    _collection_products,
    _column,
    _marginals,
    moments_from_probabilities,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ValidationReport",
    "ClassificationResult",
    "LEVELS",
    "check_p_uncertainty",
    "moment_matrix",
    "check_psd",
    "disjoint_support_collections",
    "check_local_moments",
    "check_commuting_moments",
    "classify_state",
    "two_measurement_moment_matrix",
    "two_measurement_eigenvalues",
    "SylvesterReport",
    "two_measurement_sylvester",
    "validate_gnst",
]

MAX_LOCAL_SYSTEMS = 5

# Moments per block of a positivity rung.  Its float64 temporaries stay
# at 128 KiB, which the allocator keeps for reuse; whole-plan ones at
# n = 4 were returned to the OS and page-faulted back on every call.
_BLOCK_MOMENTS = 16384

LEVELS = ("invalid", "p-bin", "p-box", "p-nonlocal", "quantum-consistent")
# The ladder's rungs, bottom-up; failing rung i gives level LEVELS[i].
_RUNGS = ("p-uncertainty", "local-moments", "commuting-moments", "density-psd")

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


def _moment_table(state: StateLike, tol: float = DEFAULT_TOL) -> MomentTable:
    """The moments of a state as one table.

    A coefficient state is its own lenient table (an absent string has
    moment zero) and is read in place; probability tables give strict
    ones unless compact, since an unmeasured moment is unknown, not zero.
    The conversion checks normalization and overlaps at ``tol``: at the
    default it runs once per state, by :meth:`GnstState.moment_table`,
    and at any other tolerance on every call.
    """
    if isinstance(state, MomentTable):
        return state
    if isinstance(state, GnstState):
        return state.moment_table() if tol == DEFAULT_TOL else moments_from_probabilities(state, tol)
    raise DomainError(f"cannot extract moments from {type(state).__name__}")


# ---------------------------------------------------------------------------
# uncertainty relation
# ---------------------------------------------------------------------------


@lru_cache(maxsize=MAX_LOCAL_SYSTEMS)
def _basis_texts(n: int) -> tuple[str, ...]:
    """Text of the Hermitian basis string of every packed key ``a | b << n``."""
    low = (1 << n) - 1
    return tuple(PauliString.hermitian(n, k & low, k >> n).text() for k in range(1 << 2 * n))


# Sets the uncertainty search examines before it stops and reports the
# heaviest found as "budgeted": a few tens of milliseconds of search.
# No n <= 4 ladder family comes near it (530 sets at most), but equal
# weights can: 108 weight-3 strings at n = 4 take 43,906.
_SEARCH_SETS = 10_000

# Up to this many systems a packed key a | b << n fits one byte, which
# keys the profile cache and indexes the per-n basis texts.
_BYTE_KEY_SYSTEMS = 4

# Per bit s of a byte, the byte map to b"1" where bit s is set, else b"0":
# runs of 2**s zeros and 2**s ones.
_BIT_DIGITS = tuple((b"0" * (1 << s) + b"1" * (1 << s)) * (128 >> s) for s in range(8))


def _anticommuting_masks(n: int, keys: Sequence[int]) -> list[list[int]]:
    """One table per byte of a packed key ``a | b << n``, at most 256
    masks each, whose entries at the bytes of a key k XOR to the mask
    with bit j set iff k anti-commutes with ``keys[j]``: the parity of
    |a & b_j| + |b & a_j|, linear in the bits of k.  Each of the 2n key
    bits becomes one mask over the keys, read by a ``bytes.translate``
    of the keys' bytes.  The tables grow with the keys and n, not with
    2**n, and a search reads a neighbourhood per visit instead of
    keeping one mask per key.
    """
    width = (2 * n + 7) // 8
    data = bytes(keys) if width == 1 else b"".join(k.to_bytes(width, "little") for k in keys)
    # Key i's digit lands at position i from the right, so it is bit i.
    bits = [int(data[t // 8 :: width].translate(_BIT_DIGITS[t % 8])[::-1] or b"0", 2) for t in range(2 * n)]
    tables = [[0] for _ in range(width)]
    for t in range(2 * n):  # an a bit of k reads the keys' b-bit mask, a b bit their a-bit one
        column, table = bits[(t + n) % (2 * n)], tables[t // 8]
        table += [m ^ column for m in table]  # the entries with bit t set follow those without
    return tables


def _heaviest_anticommuting_set(
    n: int, keys: Sequence[int], weights: Sequence[float]
) -> tuple[float, list[int], int, bool]:
    """The heaviest pairwise anti-commuting subset of ``keys`` (packed
    exponents ``a | b << n``, ascending) that a search of at most
    ``_SEARCH_SETS`` sets finds, by the total of the aligned
    ``weights``: its total, its members, the number of anti-commuting
    sets examined and whether the search finished, which makes the set
    the heaviest of all.

    The set is a maximum-weight clique of the anti-commutation graph,
    found by branch and bound (Carraghan and Pardalos, Oper. Res. Lett.
    9, 1990; Ostergard, Discrete Appl. Math. 120, 2002).  Vertices are
    taken heaviest first, equal weights by ascending key.  No more than
    2n + 1 strings pairwise anti-commute, so a branch is pruned once its
    weight plus its 2n + 1 - |clique| heaviest candidates cannot beat the
    best set found.  Every path adds weights heaviest first, as the bound
    does, so the pruning is exact in floating point.  A visited vertex's
    neighbours are one Python int, the XOR of one entry per key byte of
    the tables of :func:`_anticommuting_masks`.  A search that would
    examine one set more than the cap stops there and unwinds, each
    level at its next step; one whose last set is the cap's finishes.
    """
    order = sorted(range(len(keys)), key=weights.__getitem__, reverse=True)
    keys = [keys[i] for i in order]
    w = [weights[i] for i in order]
    tables, cap = _anticommuting_masks(n, keys), _SEARCH_SETS
    best, best_mask, examined, finished = 0.0, 0, 0, True

    def row(k: int) -> int:  # one byte of k per table
        neighbours = 0
        for table in tables:
            neighbours ^= table[k & 255]
            k >>= 8
        return neighbours

    if len(tables) == 1:  # up to four systems the one table is read directly: a search ran 10% faster
        row = tables[0].__getitem__

    def extend(total: float, mask: int, candidates: int, room: int) -> None:
        nonlocal best, best_mask, examined, finished
        while candidates:
            bound, rest, left = total, candidates, room
            while rest and left:
                bound += w[(rest & -rest).bit_length() - 1]
                rest &= rest - 1
                left -= 1
            if bound <= best:
                return
            if examined == cap:
                finished = False
                return
            v = (candidates & -candidates).bit_length() - 1
            grown, grown_mask = total + w[v], mask | 1 << v
            examined += 1
            if grown > best:
                best, best_mask = grown, grown_mask
            extend(grown, grown_mask, candidates & row(keys[v]), room - 1)
            candidates &= candidates - 1

    extend(0.0, 0, (1 << len(keys)) - 1, 2 * n + 1)
    return best, [k for i, k in enumerate(keys) if best_mask >> i & 1], examined, finished


def check_p_uncertainty(
    state: StateLike, p: float, tol: float = DEFAULT_TOL
) -> ValidationReport:
    """Check the power-sum uncertainty relation at exponent ``p``.

    Over every pairwise anti-commuting set of Hermitian strings the
    moments must satisfy sum |m|**p <= 1; at p = infinity the relation
    degenerates to |m| <= 1 for every single string.  The exponent and
    the search's outcome pick the mode the report names:

        * ``max``, at p = infinity: the largest single moment, the first
          in ascending key order, by ``(a, b)``, among equals.
        * ``exhaustive``, at finite p, when the search finishes: the
          heaviest pairwise anti-commuting subset of the strings with
          known non-zero moments, by a maximum-weight clique search.  A
          proof, since zero and unknown moments add nothing to any power
          sum.
        * ``budgeted``, at finite p, when the same search stops at its
          cap of 10,000 examined sets: the heaviest set found by then.
          A violation search, not a proof of validity.

    One search runs at every n; the report's ``sets`` counts the
    anti-commuting sets it examined, the cap when it stopped there.  At
    every n the rung reads one input: the table's stored non-zero
    moments as pairs ``(a | b << n, |m|)`` in ascending key order, never
    the signs and never the 4**n moment vector, and the rung is plain
    Python: it loads no numpy.  Up to four systems, where a packed key
    fits one byte, a list of pairs seen before at the same n and p is
    answered from a bounded cache (256 profiles keyed by one byte per
    key and the magnitudes' float64 bytes, at most 2.3 KB each, about
    0.8 MB when full); above four nothing is cached.  Each call builds
    its own report, so ``passed`` follows ``tol`` and ``detail`` is a
    fresh dict.  ``sets`` counts the sets the search examined for that
    profile, also when the answer came from the cache.

    Raises:
        DomainError: for p < 1.
    """
    p = validate_exponent(p)
    table = _moment_table(state, tol)
    n = table.n
    # abs maps -0.0 to +0.0, so equal profiles have equal bytes; a zero
    # moment, like an unknown one, adds nothing to a power sum.
    pairs = sorted((a | b << n, abs(float(m))) for (a, b), m in table._values.items() if m)
    keys, magnitudes = [k for k, _ in pairs], [m for _, m in pairs]
    if n > _BYTE_KEY_SYSTEMS:
        margin, worst, detail = _uncertainty(n, p, keys, magnitudes)
    else:
        margin, worst, detail = _uncertainty_profile(n, p, bytes(keys), array("d", magnitudes).tobytes())
    return ValidationReport("p-uncertainty", margin >= -tol, margin, worst, dict(detail))


# Margin, worst set and detail items of the uncertainty rung.
_Uncertainty = tuple[float, tuple[str, ...], tuple[tuple[str, object], ...]]


@lru_cache(maxsize=256)
def _uncertainty_profile(n: int, p: float, keys: bytes, magnitudes: bytes) -> _Uncertainty:
    """:func:`_uncertainty` on one byte per packed key and the aligned
    magnitudes as float64 bytes, up to ``_BYTE_KEY_SYSTEMS`` systems."""
    return _uncertainty(n, p, list(keys), array("d", magnitudes).tolist())


def _power(m: float, p: float) -> float:
    """``m ** p``, or inf where the power leaves the float range, so a
    power sum that holds it fails."""
    try:
        return m**p
    except OverflowError:
        return math.inf


def _uncertainty(n: int, p: float, keys: Sequence[int], magnitudes: Sequence[float]) -> _Uncertainty:
    """The uncertainty rung at a normalized exponent ``p``, from the
    ascending packed keys ``a | b << n`` of the non-zero moments and
    their aligned ``magnitudes``: the one place that picks the mode."""
    low = (1 << n) - 1

    def order(k: int) -> tuple[int, int]:  # ascending key order, (a, b)
        return k & low, k >> n

    sets = None
    if p == math.inf:
        mode, worst_sum = "max", max(magnitudes, default=0.0)
        members = [min((k for k, m in zip(keys, magnitudes) if m == worst_sum), key=order)] if keys else []
    else:
        weights = [_power(m, p) for m in magnitudes]
        worst_sum, members, sets, finished = _heaviest_anticommuting_set(n, keys, weights)
        mode = "exhaustive" if finished else "budgeted"
        members.sort(key=order)
    if n <= _BYTE_KEY_SYSTEMS:  # every key's text is kept per n
        worst = tuple(map(_basis_texts(n).__getitem__, members))
    else:
        worst = tuple(PauliString.hermitian(n, k & low, k >> n).text() for k in members)
    detail = [("p", "inf" if p == math.inf else p), ("mode", mode), ("sets", sets), ("strings", len(keys))]
    return 1.0 - worst_sum, worst, tuple(item for item in detail if item[1] is not None)


# ---------------------------------------------------------------------------
# moment matrices of commuting collections
# ---------------------------------------------------------------------------


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

    Raises:
        DomainError: if the collection and state system counts differ.
        IncompleteMomentError: if the state does not determine a needed moment.
    """
    import numpy as np

    table = _moment_table(state)
    if collection and collection[0].n != table.n:
        raise DomainError("collection and state system counts differ")
    mu = np.array([table.value(s) for s in _collection_products(collection)])
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
        DomainError: non-square, empty, non-finite or non-Hermitian input.
    """
    import numpy as np

    m = np.asarray(matrix, dtype=complex if np.iscomplexobj(matrix) else float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    if not m.size or not np.isfinite(m).all():
        raise DomainError("expected a non-empty matrix of finite entries")
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


def _local_rows(n: int) -> Iterator[tuple[int, ...]]:
    """The collections of :func:`disjoint_support_collections` as rows of
    packed exponents ``a | b << n``."""
    by_support: dict[int, list[int]] = {}
    for k in _basis_keys(n)[1:]:
        by_support.setdefault((k | k >> n) & (1 << n) - 1, []).append(k)
    for partition in _set_partitions(tuple(range(n))):
        yield from itertools.product(*(by_support[sum(1 << i for i in part)] for part in partition))


def disjoint_support_collections(n: int) -> Iterator[tuple[PauliString, ...]]:
    """Maximal collections of strings with pairwise disjoint supports.

    One collection per (system partition, letter assignment): each part
    of the partition carries one string supported on exactly that part.
    Every disjoint-support collection embeds in one of these, so its
    moment matrix is a principal submatrix of a maximal one.  A part's
    strings keep :func:`hermitian_basis` order: letters X, Z, Y, its
    first position most significant.
    """
    low = (1 << n) - 1
    for row in _local_rows(n):
        yield tuple(PauliString.hermitian(n, k & low, k >> n) for k in row)


def _group(generators: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Packed keys ``a | b << n`` (``intp``) and signs (float64) of the
    groups, up to sign, that rows of ``intp`` keys of independent,
    pairwise commuting Hermitian basis strings generate: at any n, ready
    to gather from :meth:`MomentTable.vector`.

    Generator k fills columns 2**k to 2**(k+1) of a row with the
    products of its first 2**k elements, so bit k of an element's index
    names the k-th generator and the moment matrix over the elements is
    ``mu[i xor j]``.  Element e times generator g has phase
    phase_e + |a_g & b_g| + 2 |b_e & a_g|, kept mod 4; its sign is that
    phase relative to |a & b| of the product.
    """
    import numpy as np

    ones = np.array([j.bit_count() for j in range(1 << n)], dtype=np.intp)
    weight = lambda k: ones[k & k >> n & (1 << n) - 1]
    rows, m = generators.shape
    keys = np.zeros((rows, 1 << m), dtype=np.intp)
    phases = np.zeros_like(keys)
    for k in range(m):
        g, old, new = generators[:, k, None], slice(0, 1 << k), slice(1 << k, 2 << k)
        phases[:, new] = (phases[:, old] + weight(g) + 2 * ones[keys[:, old] >> n & g]) & 3
        keys[:, new] = keys[:, old] ^ g
    return keys, 1.0 - ((phases - weight(keys)) & 2)


@dataclass(frozen=True)
class _Plan:
    """The collections of one positivity rung at one n, as arrays.

    ``named`` holds the collections in report order, each as the packed
    keys ``a | b << n`` of its members.  Each group holds the
    collections whose groups have the same size 2**m: their rows in
    ``named`` and the index into :meth:`MomentTable.vector` of every
    group element, as ``intp``, the element signs as float64, and the
    characters of Z_2^m.  At each rung's system limit the arrays hold
    1.8 MiB (local, n = 5) and 0.6 MiB (commuting, n = 4).
    """

    named: tuple[tuple[int, ...], ...]
    groups: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]


def _plan(
    named: tuple[tuple[int, ...], ...], generators: Sequence[Sequence[int]], n: int
) -> _Plan:
    """The plan of collections given as rows of packed keys, each with
    the members that generate it; rows with as many generators generate
    groups of one size."""
    import numpy as np

    by_count: dict[int, list[int]] = {}
    for row, gens in enumerate(generators):
        by_count.setdefault(len(gens), []).append(row)
    groups = []
    for rows in by_count.values():
        idx, signs = _group(np.array([generators[row] for row in rows], dtype=np.intp), n)
        groups.append((np.array(rows, dtype=np.intp), idx, signs, _characters(idx.shape[1])))
    return _Plan(named, tuple(sorted(groups, key=lambda group: group[1].shape[1])))


@lru_cache(maxsize=MAX_LOCAL_SYSTEMS)
def _local_plan(n: int) -> _Plan:
    rows = tuple(_local_rows(n))  # disjoint supports: every member is a generator
    return _plan(rows, rows, n)


@lru_cache(maxsize=MAX_COMMUTING_SYSTEMS)
def _commuting_plan(n: int) -> _Plan:
    rows = lagrangian_rows(n)
    return _plan(rows, [[row[2**k - 1] for k in range(n)] for row in rows], n)


def _positivity_report(
    constraint: str, table: MomentTable, plan: _Plan, tol: float
) -> ValidationReport:
    """Smallest group-matrix eigenvalue over a plan's collections.

    Each collection's subset moments are read from the table's moment
    vector; their Walsh-Hadamard transform is the spectrum.  The groups
    cover every row of ``plan.named``.  An unknown (NaN) moment, which
    only a strict table has, makes its collection's minimum NaN; a pass
    on strict tables skips and counts those collections.  A group that
    fits in one block of ``_BLOCK_MOMENTS`` moments is read whole.  The
    first collection reaching the minimum names the report's worst set.
    """
    import numpy as np

    vec = table.vector()
    smallest = np.empty(len(plan.named))
    for rows, idx, signs, characters in plan.groups:
        step = _BLOCK_MOMENTS // idx.shape[1]
        if len(rows) <= step:
            blocks = ((rows, idx, signs),)
        else:
            blocks = (
                (rows[i : i + step], idx[i : i + step], signs[i : i + step]) for i in range(0, len(rows), step)
            )
        for block_rows, block_idx, block_signs in blocks:
            mu = block_signs * vec[block_idx]
            # The minimum down the columns of the transposed spectra is the
            # one along their short rows, many times faster.
            smallest[block_rows] = (mu @ characters).T.copy().min(axis=0)
    skipped = 0
    if table.strict:  # only strict tables have NaN moments
        unknown = np.isnan(smallest)
        skipped = int(np.count_nonzero(unknown))
        smallest[unknown] = np.inf
    evaluated = len(plan.named) - skipped
    margin, worst = 1.0, ()
    if evaluated:
        row = int(smallest.argmin())
        margin = float(smallest[row])
        worst = tuple(map(_basis_texts(table.n).__getitem__, plan.named[row]))
    detail = {"collections": evaluated, "skipped": skipped}
    return ValidationReport(constraint, margin >= -tol, margin, worst, detail)


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
    table = _moment_table(state, tol)
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
    table = _moment_table(state, tol)
    return _positivity_report("commuting-moments", table, _commuting_plan(table.n), tol)


def _density_matrix(table: MomentTable) -> np.ndarray:
    """rho = 2**-n (identity + sum over known moments of m_k sigma_k).

    The basis element sigma_(a,b) = i**|a & b| X**a Z**b maps |j> to
    i**|a & b| (-1)**|j & b| |j xor a>, so entry (j xor a, j) of rho is
    the Walsh-Hadamard transform over b of m_(a,b) 2**-n i**|a & b|,
    taken at j.  Bit i of a basis index is system i, the reverse of the
    kron order; the spectrum does not depend on the order.  Unknown
    (NaN) moments, which only a strict table has, count as zero.
    """
    import numpy as np

    phases, characters, gather = _density_tables(table.n)
    vec = np.nan_to_num(table.vector()) if table.strict else table.vector()
    terms = vec.reshape(phases.shape).T  # rows a, columns b
    return ((terms * phases) @ characters)[gather]


@lru_cache(maxsize=MAX_LOCAL_SYSTEMS)
def _density_tables(n: int) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The phases 2**-n i**|a & b| (rows a, columns b; the power of two
    scales exactly), the characters of Z_2^n and the index of entry
    (j xor a, j) that :func:`_density_matrix` reads at n systems."""
    import numpy as np

    dim = 1 << n
    idx = np.arange(dim)
    weight = np.array([j.bit_count() for j in range(dim)])[idx[:, None] & idx]
    phases = np.array([1, 1j, -1, -1j])[weight & 3] / dim
    characters, rows = _characters(dim), idx[:, None] ^ idx
    for array in (phases, characters, rows, idx):
        array.flags.writeable = False
    return phases, characters, (rows, idx)


# ---------------------------------------------------------------------------
# hierarchy classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationResult:
    """Where a state sits in the validity hierarchy.

    ``level`` is one of :data:`LEVELS`; ``reports`` holds every check
    that ran, in order, the last one being the first failure (if any).
    ``stopped`` is ``(constraint, reason)`` when a rung could not run at
    the state's size, which ended the walk; ``level`` is then the one
    that rung's failure would give.
    """

    level: str
    reports: tuple[ValidationReport, ...]
    stopped: tuple[str, str] | None = None

    def to_json_dict(self) -> dict:
        out = {
            "level": self.level,
            "reports": [r.to_json_dict() for r in self.reports],
        }
        if self.stopped:
            constraint, reason = self.stopped
            out["stopped"] = {"constraint": constraint, "reason": reason}
        return out


def classify_state(
    state: StateLike, p: float, tol: float = DEFAULT_TOL
) -> ClassificationResult:
    """Run the constraint ladder bottom-up and name the reached level.

    The state's moments are read once; every rung checks that table.
    Moments the state does not determine are treated as zero when the
    reconstructed density matrix is tested, so for partial tables the
    top level asserts consistency of one completion, not of all.  A rung
    that raises :class:`ResourceError` (local beyond five systems,
    commuting beyond four) ends the walk at the level its failure would
    give and is named in ``stopped``.
    """
    table = _moment_table(state, tol)
    reports: list[ValidationReport] = []
    for level, name in zip(LEVELS, _RUNGS):
        try:
            if name == "p-uncertainty":
                report = check_p_uncertainty(table, p, tol)
            elif name == "local-moments":
                report = check_local_moments(table, tol)
            elif name == "commuting-moments":
                report = check_commuting_moments(table, tol)
            else:  # the density matrix is Hermitian and finite by construction
                import numpy as np

                smallest = float(np.linalg.eigvalsh(_density_matrix(table))[0])
                report = ValidationReport(name, smallest >= -tol, smallest, (), {"dim": 1 << table.n})
        except ResourceError as exc:
            return ClassificationResult(level, tuple(reports), (name, str(exc)))
        reports.append(report)
        if not report.passed:
            return ClassificationResult(level, tuple(reports))
    return ClassificationResult(LEVELS[-1], tuple(reports))


# ---------------------------------------------------------------------------
# the two-measurement closed form
# ---------------------------------------------------------------------------


def two_measurement_moment_matrix(a: float, b: float, c: float) -> np.ndarray:
    """Moment matrix of two commuting strings with moments a, b and
    product moment c, indexed (identity, first, second, product)."""
    import numpy as np

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
    agree.  The last two read one :func:`~boxworld.states._marginals`
    pass, comparing each setting with the first that has its labels on a
    subset, and name the first largest difference in (subset, setting)
    order.  The aggregate passes iff all four do; its margin is the
    worst sub-margin and the sub-reports ride along in the detail.
    Reports instead of raising, so tables built with ``check=False``
    can be diagnosed.
    """
    import numpy as np

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

    found = dict.fromkeys(("no-signaling", "overlap-consistency"), (0.0, ()))
    if n > 1:
        mu = np.array(rows) @ _characters(1 << n)
        keeps = [k for r in range(1, n) for k in itertools.combinations(range(n), r)]
        for keep, (_, source, signal) in zip(keeps, _marginals(state, keeps)):
            moment = mu[:, _column(n, keep)]
            for name, dev in zip(found, (signal, np.abs(moment - moment[source]))):
                i = int(dev.argmax())
                if dev[i] > found[name][0]:
                    pair = (str(settings[source[i]].labels), str(settings[i].labels))
                    found[name] = float(dev[i]), pair

    checks = (
        ValidationReport("normalization", norm_dev <= tol, -norm_dev, norm_worst),
        ValidationReport("positivity", pos_min >= -tol, pos_min, pos_worst),
        *(ValidationReport(name, dev <= tol, -dev, pair) for name, (dev, pair) in found.items()),
    )
    worst = min(checks, key=lambda r: r.margin)
    return ValidationReport(
        "gnst-structure",
        all(r.passed for r in checks),
        worst.margin,
        worst.worst_set,
        {"checks": [r.to_json_dict() for r in checks]},
    )
