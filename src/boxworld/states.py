"""State representations: coefficient expansions and fiducial probability tables.

Two pictures of the same physics live here.  A :class:`CoefficientState`
expands a density-like operator in the Hermitian string basis,

    rho = (1 / 2**n) * (identity + sum_k s_k * sigma_k),

storing only the non-zero real coefficients ``s_k``.  A
:class:`GnstState` instead records outcome probabilities for fiducial
measurement settings, one of X / Z / XZ per system; it is the natural
object for theories defined operationally rather than operator-wise.

Moment bookkeeping (:class:`MomentTable`) bridges the two: moments of
commuting measurement collections are indexed by the exact product
string, so a collection's moment is ``value(product_of(collection))``.
``s_k`` is the moment of ``sigma_k``, so a coefficient state is the
lenient moment table of its coefficients.  The linear transform
between a collection's outcome distribution and its subset moments is
invertible, which the ``moments_from_probabilities`` /
``probabilities_from_moments`` pair implements; the first reads a
:class:`GnstState`, and a raw probability table enters through
``GnstState.from_table``.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .errors import (
    BoxworldError,
    DimensionError,
    DomainError,
    IncompleteMomentError,
    InconsistencyError,
    NoSignalingError,
    ResourceError,
    ValidationError,
)
from .pauli import PauliString, commutes, digit_masks, product_of

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "FiducialSetting",
    "all_settings",
    "OutcomeVector",
    "outcome_product",
    "all_outcomes",
    "CoefficientState",
    "tensor_product",
    "CliffordCircuit",
    "conjugate_pauli",
    "apply_clifford",
    "GnstState",
    "pr_box_state",
    "MomentTable",
    "moments_from_probabilities",
    "probabilities_from_moments",
    "marginalize",
]

DEFAULT_TOL = 1e-9

OutcomeVector = tuple[int, ...]


def outcome_product(outcome: OutcomeVector) -> int:
    prod = 1
    for v in outcome:
        prod *= v
    return prod


def all_outcomes(m: int) -> Iterator[OutcomeVector]:
    """Outcome vectors in {-1,+1}^m; index order has +1 first per slot."""
    for bits in itertools.product((1, -1), repeat=m):
        yield bits


@dataclass(frozen=True, slots=True)
class FiducialSetting:
    """One fiducial measurement label per system, each in {1, 2, 3}.

    Label 1 measures X, 2 measures Z and 3 measures XZ (the Y basis
    element in Hermitian form): the labels are the digits of
    :func:`~boxworld.pauli.digit_masks`.
    """

    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise DomainError("a setting needs at least one system")
        if any(k not in (1, 2, 3) for k in self.labels):
            raise DomainError(f"labels must lie in {{1,2,3}}: {self.labels}")

    @property
    def n(self) -> int:
        return len(self.labels)

    def subset_pauli(self, systems: Iterable[int]) -> PauliString:
        """The product string of the chosen systems' measurements.

        Raises:
            DimensionError: if a system lies outside 0..n-1.
        """
        chosen = set(systems)
        if min(chosen, default=0) < 0 or max(chosen, default=0) >= self.n:
            raise DimensionError(f"systems {sorted(chosen)} out of range for n={self.n}")
        digits = (k if i in chosen else 0 for i, k in enumerate(self.labels))
        return PauliString.hermitian(self.n, *digit_masks(digits))

    def __iter__(self) -> Iterator[int]:
        return iter(self.labels)


@lru_cache(maxsize=16)
def all_settings(n: int) -> tuple[FiducialSetting, ...]:
    """All 3**n settings in lexicographic label order.

    The order is that of ``GnstState._setting_index``, so position i of
    the tuple holds the setting whose compact sign is ``signs[i]``.
    Memoized per n: every call returns the same immutable tuple.
    """
    return tuple(
        FiducialSetting(labels) for labels in itertools.product((1, 2, 3), repeat=n)
    )


@lru_cache(maxsize=16)
def _setting_keys(n: int) -> tuple[tuple[int, int], ...]:
    """Every setting's exponent masks ``(a, b)``, in :func:`all_settings` order."""
    return tuple(digit_masks(setting.labels) for setting in all_settings(n))


@contextmanager
def _reading_json() -> Iterator[None]:
    """Report a missing key or a malformed value in state JSON as a
    :class:`ValidationError`; the package's own errors pass unchanged."""
    try:
        yield
    except BoxworldError:
        raise
    except KeyError as exc:
        raise ValidationError(f"state JSON lacks the key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed value in state JSON: {exc}") from exc


class MomentTable:
    """Moments of commuting measurement collections, keyed by product string.

    A collection's moment is stored under the Hermitian basis element of
    its exact operator product; looking up a negated string negates the
    value.  ``strict`` tables raise on absent keys, which is the right
    behavior for operationally defined tables, while lenient ones, such
    as every :class:`CoefficientState`, treat absent strings as zero.
    The identity's moment is fixed at 1 and cannot be stored; a key
    beyond ``n`` systems raises :class:`DimensionError`, and a NaN or
    infinite value raises :class:`ValidationError`.
    """

    __slots__ = ("_n", "_values", "_strict", "_vector")

    def __init__(
        self,
        n: int,
        values: Mapping[tuple[int, int], float],
        strict: bool = True,
    ):
        if n < 1:
            raise DomainError(f"need at least one system, got n = {n}")
        mask = (1 << n) - 1
        for (a, b), value in values.items():
            if a == 0 and b == 0:
                raise ValidationError("the identity has fixed moment 1")
            if a & ~mask or b & ~mask:
                raise DimensionError("moment key exceeds the system count")
            if not math.isfinite(float(value)):
                raise ValidationError(
                    f"moment {value} of {PauliString.hermitian(n, a, b).text()} is not finite"
                )
        self._n = n
        self._values = dict(values)
        self._strict = strict
        self._vector = None

    @property
    def n(self) -> int:
        return self._n

    @property
    def strict(self) -> bool:
        return self._strict

    def keys(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._values))

    def value(self, p: PauliString) -> float:
        """Moment of a signed Hermitian string; m(identity) = 1."""
        if p.n != self._n:
            raise DimensionError("string and table system counts differ")
        sign = p.hermitian_sign()
        if p.is_identity:
            return float(sign)
        key = p.basis_key()
        if key not in self._values:
            if self._strict:
                raise IncompleteMomentError(
                    f"no moment stored for {p.canonical().text()}"
                )
            return 0.0
        return sign * self._values[key]

    def vector(self) -> np.ndarray:
        """Every moment in one array, indexed by ``a | b << n``.

        Entry 0 is the identity's moment, 1.  Absent strings read NaN in
        a strict table and 0 otherwise.  The array is built on the first
        call and cached, so every rung reads the same one; it is
        read-only, and writing to it raises ``ValueError``.
        """
        if self._vector is None:
            import numpy as np

            out = [math.nan if self._strict else 0.0] * (1 << 2 * self._n)
            out[0] = 1.0
            for (a, b), value in self._values.items():
                out[a | b << self._n] = value
            self._vector = np.array(out, dtype=float)
            self._vector.flags.writeable = False
        return self._vector


class CoefficientState(MomentTable):
    """A state given by real coefficients on Hermitian basis strings.

    The coefficient ``s_k`` of ``sigma_k`` is the moment of ``sigma_k``,
    so a coefficient state is the lenient :class:`MomentTable` of its
    coefficients: absent strings carry coefficient zero, and the ladder
    reads the state in place.  Construction validates the box constraint
    |s_k| <= 1 on every stored coefficient and drops zeros; it does not
    impose any uncertainty relation, which is the validators' job.
    """

    __slots__ = ()

    def __init__(
        self,
        n: int,
        coefficients: Mapping[tuple[int, int], float],
        tol: float = DEFAULT_TOL,
    ):
        super().__init__(n, coefficients, strict=False)
        for key, value in list(self._values.items()):
            value = float(value)
            if abs(value) > 1 + tol:
                raise ValidationError(
                    f"coefficient {value} on {PauliString.hermitian(n, *key).text()} "
                    "violates |s| <= 1"
                )
            if value:
                self._values[key] = value
            else:
                del self._values[key]

    def coefficient(self, a: int, b: int) -> float:
        return self._values.get((a, b), 0.0)

    def terms(self) -> Iterator[tuple[PauliString, float]]:
        for (a, b), value in sorted(self._values.items()):
            yield PauliString.hermitian(self._n, a, b), value

    @property
    def has_full_support(self) -> bool:
        """True iff a coefficient is stored and every stored string acts
        on all systems; checked without sorting the keys."""
        full = (1 << self._n) - 1
        return bool(self._values) and all((a | b) == full for a, b in self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoefficientState):
            return NotImplemented
        return self._n == other._n and self._values == other._values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{p.letters()}: {v:+.6g}" for p, v in self.terms())
        return f"CoefficientState(n={self._n}, {{{body}}})"

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "kind": "coeff",
            "n": self._n,
            "terms": [
                {"pauli": p.letters(), "coeff": v} for p, v in self.terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping, tol: float = DEFAULT_TOL) -> "CoefficientState":
        if data.get("kind") != "coeff":
            raise ValidationError(f"expected kind 'coeff', got {data.get('kind')!r}")
        with _reading_json():
            n = int(data["n"])
            coeffs: dict[tuple[int, int], float] = {}
            for term in data["terms"]:
                p = PauliString.from_text(term["pauli"])
                if p.n != n:
                    raise DimensionError("term length disagrees with declared n")
                coeffs[p.basis_key()] = float(term["coeff"])
            return cls(n, coeffs, tol)


def tensor_product(first: CoefficientState, second: CoefficientState) -> CoefficientState:
    """Independent composition of two coefficient states.

    Coefficients multiply: the joint coefficient on sigma (x) tau is the
    product of the marginal coefficients, with the identity coefficient
    of each factor equal to 1.
    """
    shift = first.n
    n = first.n + second.n
    coeffs: dict[tuple[int, int], float] = {}
    for (a, b), v in [((0, 0), 1.0)] + [(k, first.coefficient(*k)) for k in first.keys()]:
        for (c, d), w in [((0, 0), 1.0)] + [
            (k, second.coefficient(*k)) for k in second.keys()
        ]:
            if a == 0 and b == 0 and c == 0 and d == 0:
                continue
            coeffs[(a | c << shift, b | d << shift)] = v * w
    return CoefficientState(n, coeffs)


_GATE_NAMES = {"I", "X", "Y", "Z", "H", "CNOT"}


@dataclass(frozen=True)
class CliffordCircuit:
    """A gate sequence over {I, X, Y, Z, H, CNOT}, applied left to right."""

    n: int
    gates: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        for name, targets in self.gates:
            if name not in _GATE_NAMES:
                raise DomainError(f"unsupported gate {name!r}")
            expected = 2 if name == "CNOT" else 1
            if len(targets) != expected:
                raise DomainError(f"{name} takes {expected} target(s), got {targets}")
            if any(not 0 <= t < self.n for t in targets):
                raise DimensionError(f"gate target out of range: {targets}")
            if name == "CNOT" and targets[0] == targets[1]:
                raise DomainError("CNOT control and target must differ")


def conjugate_pauli(circuit: CliffordCircuit, p: PauliString) -> PauliString:
    """Exact image U P U-dagger of a string under the circuit unitary.

    Each gate updates the exponents and the phase of
    i**phase X**a Z**b on its targets by the symplectic rules.  X, Z and
    Y negate a string holding Z, X or exactly one of them there.  H
    swaps X and Z, and X Z -> Z X = -X Z negates Y.  CNOT maps X_c to
    X_c X_t and Z_t to Z_c Z_t, which moves no X past a Z.
    """
    if circuit.n != p.n:
        raise DimensionError("circuit and string system counts differ")
    a, b, phase = p.a, p.b, p.phase
    for gate, targets in circuit.gates:
        q = targets[0]
        x, z = a >> q & 1, b >> q & 1
        if gate == "X":
            phase += 2 * z
        elif gate == "Z":
            phase += 2 * x
        elif gate == "Y":
            phase += 2 * (x ^ z)
        elif gate == "H":
            phase += 2 * (x & z)
            a ^= (x ^ z) << q
            b ^= (x ^ z) << q
        elif gate == "CNOT":
            t = targets[1]
            a ^= x << t
            b ^= (b >> t & 1) << q
    return PauliString(p.n, a, b, phase)


def apply_clifford(circuit: CliffordCircuit, state: CoefficientState) -> CoefficientState:
    """Conjugate a coefficient state through a circuit, exactly.

    Each basis string maps to a signed basis string, so coefficients are
    permuted with sign flips.  Box-level validity of the input is
    preserved; stricter properties (positivity of local moment
    matrices, for one) are not guaranteed and must be revalidated.
    """
    if circuit.n != state.n:
        raise DimensionError("circuit and state system counts differ")
    coeffs: dict[tuple[int, int], float] = {}
    for p, value in state.terms():
        image = conjugate_pauli(circuit, p)
        coeffs[image.basis_key()] = image.hermitian_sign() * value
    return CoefficientState(state.n, coeffs)


class GnstState:
    """Outcome tables for fiducial settings, sparse or in compact form.

    The compact form stores a single magnitude ``lam`` and one sign per
    setting, representing p(A | C) = 2**-n * (1 + sign_C * lam * prod(A));
    it always satisfies normalization, positivity and no-signaling by
    construction.  The table form stores explicit probability vectors
    for any subset of the 3**n settings and is validated on
    construction unless ``check=False`` (reserved for adversarial test
    fixtures, for the report-style validator and for tables handed to
    :func:`moments_from_probabilities`, which checks normalization and
    overlaps itself).  A non-finite ``lam`` or probability, and a
    vector of the wrong length, raise :class:`ValidationError` always.
    The state is immutable, so :meth:`moment_table` converts it once
    and keeps the table; equality and JSON ignore that copy.
    """

    __slots__ = ("_n", "_table", "_lam", "_signs", "_moments")

    def __init__(self, *_args, **_kwargs):
        raise TypeError("use GnstState.from_table or GnstState.compact")

    # -- constructors -------------------------------------------------

    @classmethod
    def _new(cls, n, table, lam, signs) -> "GnstState":
        self = object.__new__(cls)
        self._n = n
        self._table = table
        self._lam = lam
        self._signs = signs
        self._moments = None
        return self

    @classmethod
    def from_table(
        cls,
        n: int,
        table: Mapping[Sequence[int], Sequence[float]],
        check: bool = True,
        tol: float = DEFAULT_TOL,
    ) -> "GnstState":
        stored: dict[tuple[int, ...], tuple[float, ...]] = {}
        for labels, probs in table.items():
            setting = FiducialSetting(tuple(labels))
            if setting.n != n:
                raise DimensionError("setting length disagrees with declared n")
            vec = tuple(float(v) for v in probs)
            if len(vec) != 1 << n:
                raise ValidationError(
                    f"outcome vector for {labels} has length {len(vec)}, "
                    f"expected {1 << n}"
                )
            if not all(map(math.isfinite, vec)):
                raise ValidationError(f"outcome vector for {labels} is not finite: {vec}")
            stored[setting.labels] = vec
        if not stored:
            raise ValidationError("a table state needs at least one setting")
        state = cls._new(n, stored, None, None)
        if check:
            state._validate(tol)
        return state

    @classmethod
    def compact(
        cls, n: int, lam: float, signs: Sequence[int], tol: float = DEFAULT_TOL
    ) -> "GnstState":
        if n < 1:
            raise DomainError(f"need at least one system, got n = {n}")
        lam = float(lam)
        if not math.isfinite(lam):
            raise ValidationError(f"lam = {lam} is not finite")
        if abs(lam) > 1 + tol:
            raise ValidationError(f"|lam| = {abs(lam)} exceeds 1")
        signs = tuple(int(s) for s in signs)
        if len(signs) != 3**n:
            raise ValidationError(f"need 3**{n} signs, got {len(signs)}")
        if any(s not in (-1, 1) for s in signs):
            raise ValidationError("signs must be +1 or -1")
        return cls._new(n, None, lam, signs)

    # -- basic structure ----------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def is_compact(self) -> bool:
        return self._table is None

    @property
    def lam(self) -> float:
        if self._lam is None:
            raise DomainError("not a compact state")
        return self._lam

    @property
    def signs(self) -> tuple[int, ...]:
        if self._signs is None:
            raise DomainError("not a compact state")
        return self._signs

    def settings(self) -> tuple[FiducialSetting, ...]:
        if self.is_compact:
            return all_settings(self._n)
        return tuple(FiducialSetting(k) for k in sorted(self._table))

    def _setting_index(self, setting: FiducialSetting) -> int:
        index = 0
        for k in setting.labels:
            index = index * 3 + (k - 1)
        return index

    def probabilities(self, setting: FiducialSetting) -> tuple[float, ...]:
        """The outcome vector for one setting, +1 outcomes ordered first."""
        if setting.n != self._n:
            raise DimensionError("setting length disagrees with state")
        if self.is_compact:
            sign = self._signs[self._setting_index(setting)]
            base = 1.0 / (1 << self._n)
            return tuple(
                base * (1.0 + sign * self._lam * outcome_product(outcome))
                for outcome in all_outcomes(self._n)
            )
        try:
            return self._table[setting.labels]
        except KeyError:
            raise IncompleteMomentError(
                f"setting {setting.labels} not stored"
            ) from None

    def subset_moment(self, setting: FiducialSetting, systems: Iterable[int]) -> float:
        """Moment of the outcome product over a subset of systems; the
        empty subset's product is the identity, with moment 1.

        Raises:
            DimensionError: if the setting's length is not n or a system
                lies outside 0..n-1.
        """
        if setting.n != self._n:
            raise DimensionError("setting length disagrees with state")
        chosen = set(systems)
        if min(chosen, default=0) < 0 or max(chosen, default=0) >= self._n:
            raise DimensionError(f"systems {sorted(chosen)} out of range for n={self._n}")
        if self.is_compact:
            if len(chosen) == self._n:
                return self._signs[self._setting_index(setting)] * self._lam
            return 0.0 if chosen else 1.0
        import numpy as np

        column = _column(self._n, chosen)  # its row of _characters(2**n) alone
        row = [-1.0 if (column & k).bit_count() & 1 else 1.0 for k in range(1 << self._n)]
        return float(np.dot(self.probabilities(setting), row))

    def setting_moment(self, setting: FiducialSetting) -> float:
        return self.subset_moment(setting, range(self._n))

    def moment_table(self) -> MomentTable:
        """:func:`moments_from_probabilities` at the default tolerance,
        run on the first read and kept for every later one."""
        if self._moments is None:
            self._moments = moments_from_probabilities(self)
        return self._moments

    # -- validation ---------------------------------------------------

    def _validate(self, tol: float) -> None:
        for setting in self.settings():
            probs = self.probabilities(setting)
            if abs(sum(probs) - 1.0) > tol:
                raise ValidationError(
                    f"probabilities for {setting.labels} sum to {sum(probs)}"
                )
            if min(probs) < -tol:
                raise ValidationError(
                    f"negative probability {min(probs)} under {setting.labels}"
                )
        self._check_no_signaling(tol)

    def _check_no_signaling(self, tol: float) -> None:
        """Marginals on any subset must not depend on discarded labels."""
        if self.is_compact or self._n == 1:
            return
        settings = self.settings()
        keeps = [k for r in range(1, self._n) for k in itertools.combinations(range(self._n), r)]
        for keep, (_, source, deviation) in zip(keeps, _marginals(self, keeps)):
            i = int((deviation > tol).argmax())  # the first setting past tol, if any
            if deviation[i] > tol:
                raise NoSignalingError(
                    f"marginal on systems {keep} differs between "
                    f"settings {settings[source[i]].labels} and {settings[i].labels}"
                )

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        if self.is_compact:
            return {
                "kind": "gnst",
                "n": self._n,
                "lambda": self._lam,
                "signs": list(self._signs),
            }
        return {
            "kind": "gnst-table",
            "n": self._n,
            "settings": [
                {"k": list(labels), "p": list(self._table[labels])}
                for labels in sorted(self._table)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping, tol: float = DEFAULT_TOL) -> "GnstState":
        kind = data.get("kind")
        with _reading_json():
            if kind == "gnst":
                return cls.compact(int(data["n"]), data["lambda"], data["signs"], tol)
            if kind == "gnst-table":
                table = {tuple(s["k"]): s["p"] for s in data["settings"]}
                return cls.from_table(int(data["n"]), table, tol=tol)
        raise ValidationError(f"expected a gnst kind, got {kind!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GnstState):
            return NotImplemented
        return (
            self._n == other._n
            and self._table == other._table
            and self._lam == other._lam
            and self._signs == other._signs
        )


def _marginals(
    state: GnstState, keeps: Iterable[Sequence[int]]
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every setting's marginal on each sorted ``keep`` of ``keeps``, read
    from one array of the outcome vectors.

    Per keep, yields the marginals, one row per setting in
    ``state.settings()`` order; each setting's source, the index of the
    first setting with the same labels on ``keep``; and each deviation,
    the largest entrywise difference from the source's marginal.  The
    discarded outcomes are added one at a time in outcome order from
    0.0, as in a Python sum (``ndarray.sum`` adds in another order).
    """
    import numpy as np

    n, settings = state.n, state.settings()
    rows = np.array([state.probabilities(s) for s in settings]).reshape((-1,) + (2,) * n)
    labels = np.array([s.labels for s in settings])
    for keep in keeps:
        drop = [i for i in range(n) if i not in keep]
        parts = rows.transpose([1 + i for i in drop] + [0] + [1 + i for i in keep])
        marginals = sum(parts.reshape(1 << len(drop), len(settings), -1), 0.0)
        first: dict[tuple[int, ...], int] = {}
        subs = map(tuple, labels[:, keep].tolist())
        source = np.array([first.setdefault(sub, i) for i, sub in enumerate(subs)])
        yield marginals, source, np.abs(marginals - marginals[source]).max(axis=1)


def pr_box_state() -> GnstState:
    """The two-system table with perfectly correlated X/Z settings.

    Outcomes agree with certainty unless both systems measure Z, in
    which case they disagree with certainty; settings involving the
    third fiducial are not stored.
    """
    agree = (0.5, 0.0, 0.0, 0.5)
    disagree = (0.0, 0.5, 0.5, 0.0)
    return GnstState.from_table(
        2,
        {(1, 1): agree, (1, 2): agree, (2, 1): agree, (2, 2): disagree},
    )


def marginalize(state: GnstState, systems: Sequence[int]) -> GnstState:
    """Restrict a table to a subset of systems, relabeled from zero.

    Raises:
        NoSignalingError: if the marginal depends on a discarded label.
    """
    keep = sorted(set(systems))
    if not keep:
        raise DomainError("keep at least one system")
    if any(not 0 <= i < state.n for i in keep):
        raise DimensionError(f"systems {systems} out of range for n={state.n}")
    if len(keep) == state.n:
        return state
    settings = state.settings()
    marginals, source, deviation = next(_marginals(state, [keep]))
    i = int((deviation > DEFAULT_TOL).argmax())  # the first setting past tol, if any
    if deviation[i] > DEFAULT_TOL:
        raise NoSignalingError(
            f"marginal on systems {keep} differs between settings "
            f"{settings[source[i]].labels} and {settings[i].labels}"
        )
    table = {tuple(settings[i].labels[j] for j in keep): marginals[i] for i in source.tolist()}
    return GnstState.from_table(len(keep), table)


MAX_COLLECTION_SIZE = 12


def _characters(size: int) -> np.ndarray:
    """Signs (-1)**popcount(i & k) for i, k below ``size``, a power of 2.

    Column k is a character of Z_2^m, so ``mu @ _characters(len(mu))``
    is the spectrum of the group matrix ``mu[i xor j]``: its
    Walsh-Hadamard transform.  It also maps an outcome distribution to
    its subset moments (:func:`_column`), and back when divided by size.
    """
    import numpy as np

    signs = np.empty((size, size))
    signs[0, 0] = 1.0
    m = 1
    while m < size:
        block = signs[:m, :m]
        signs[:m, m : 2 * m] = signs[m : 2 * m, :m] = block
        signs[m : 2 * m, m : 2 * m] = -block
        m *= 2
    return signs


def _column(n: int, systems: Iterable[int]) -> int:
    """The column of the :func:`_characters` transform of an outcome
    distribution holding the moment over ``systems``; system i is bit n - 1 - i."""
    return sum(1 << n - 1 - i for i in systems)


def _collection_products(collection: Sequence[PauliString]) -> list[PauliString]:
    """Products over all member subsets; subset masks put member 0 in
    the most significant bit, matching the outcome enumeration order."""
    m = len(collection)
    if m == 0:
        raise DomainError("empty collection")
    if m > MAX_COLLECTION_SIZE:
        raise ResourceError(
            f"moment matrices are limited to {MAX_COLLECTION_SIZE} measurements"
        )
    n = collection[0].n
    for s, t in itertools.combinations(collection, 2):
        if not commutes(s, t):
            raise DomainError(f"{s.text()} and {t.text()} do not commute")
    out = []
    for mask in range(1 << m):
        members = [collection[i] for i in range(m) if mask >> (m - 1 - i) & 1]
        out.append(product_of(members, n=n))
    return out


def moments_from_probabilities(state: GnstState, tol: float = DEFAULT_TOL) -> MomentTable:
    """Moments of every stored setting and every subset of its systems.

    Each setting's outcome distribution is transformed once by
    :func:`_characters`; a subset's moment is one column of the result.
    Subset moments reachable from several settings are checked for
    consistency, which is the independence condition on overlapping
    collections.  Compact states are consistent by construction.  A raw
    table enters as ``GnstState.from_table(n, table, check=False)``, since
    this function checks normalization and overlaps itself.

    Raises:
        ValidationError: on unnormalized input or inconsistent subsets.
    """
    n = state.n
    if state.is_compact:
        values = {key: sign * state.lam for key, sign in zip(_setting_keys(n), state.signs)}
        return MomentTable(n, values, strict=False)
    import numpy as np

    settings = state.settings()
    rows = [state.probabilities(setting) for setting in settings]
    for setting, probs in zip(settings, rows):
        if abs(sum(probs) - 1.0) > tol:
            raise ValidationError(f"probabilities for {setting.labels} sum to {sum(probs)}")
    # Every subset of systems, by size and then lexicographically, as
    # its key mask (bit i is system i) and its column.
    subsets = [
        (sum(1 << i for i in chosen), _column(n, chosen))
        for r in range(1, n + 1)
        for chosen in itertools.combinations(range(n), r)
    ]
    first: dict[tuple[int, int], tuple[float, tuple[int, ...]]] = {}
    for setting, row in zip(settings, (np.array(rows) @ _characters(1 << n)).tolist()):
        a, b = digit_masks(setting.labels)
        for mask, column in subsets:
            key = (a & mask, b & mask)
            value, source = first.setdefault(key, (row[column], setting.labels))
            if abs(value - row[column]) > tol:
                raise ValidationError(
                    f"moment of {PauliString.hermitian(n, *key).letters()} is "
                    f"{value} under setting {source} but "
                    f"{row[column]} under {setting.labels}"
                )
    return MomentTable(n, {key: value for key, (value, _) in first.items()}, strict=True)


def probabilities_from_moments(
    moments: MomentTable,
    collection: Sequence[PauliString],
    tol: float = DEFAULT_TOL,
) -> dict[OutcomeVector, float]:
    """Invert subset moments into an outcome distribution for a collection.

    p(A) = 2**-m * sum over subsets of the subset moment times the
    matching outcome product: the inverse of the transform in
    :func:`_characters`.

    Raises:
        DomainError: on an empty or non-commuting collection.
        ResourceError: beyond ``MAX_COLLECTION_SIZE`` members.
        IncompleteMomentError: if a required subset moment is absent.
        InconsistencyError: if any recovered probability is below -tol.
    """
    import numpy as np

    mu = np.array([moments.value(s) for s in _collection_products(collection)])
    probs = (_characters(len(mu)) @ mu / len(mu)).tolist()
    result = dict(zip(all_outcomes(len(collection)), probs))
    for outcome, value in result.items():
        if value < -tol:
            raise InconsistencyError(
                f"recovered probability {value} for outcome {outcome}; "
                "the moment matrix of this collection is not PSD"
            )
    return result
