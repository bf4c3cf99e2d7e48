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
string, and the linear transform between a collection's outcome
distribution and its subset moments is invertible, which the
``moments_from_probabilities`` / ``probabilities_from_moments`` pair
implements.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    IncompleteMomentError,
    InconsistencyError,
    NoSignalingError,
    ResourceError,
    ValidationError,
)
from .pauli import PauliString, commutes, pauli_product, product_of

__all__ = [
    "FIDUCIAL_LETTERS",
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

# Fiducial labels: 1 measures X, 2 measures Z, 3 measures XZ (the Y
# basis element in Hermitian form).
FIDUCIAL_LETTERS = {1: "X", 2: "Z", 3: "Y"}

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
    """One fiducial measurement label per system, each in {1, 2, 3}."""

    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise DomainError("a setting needs at least one system")
        if any(k not in (1, 2, 3) for k in self.labels):
            raise DomainError(f"labels must lie in {{1,2,3}}: {self.labels}")

    @property
    def n(self) -> int:
        return len(self.labels)

    def pauli(self) -> PauliString:
        """The full product string measured under this setting."""
        return self.subset_pauli(range(self.n))

    def subset_pauli(self, systems: Iterable[int]) -> PauliString:
        chosen = sorted(set(systems))
        strings = [
            PauliString.single(self.n, i, FIDUCIAL_LETTERS[self.labels[i]])
            for i in chosen
        ]
        return product_of(strings, n=self.n)

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


class CoefficientState:
    """A state given by real coefficients on Hermitian basis strings.

    Absent strings carry coefficient zero.  Construction validates
    the box constraint |s_k| <= 1 on every stored coefficient; it does
    not impose any uncertainty relation, which is the validators' job.
    """

    __slots__ = ("_n", "_coeffs")

    def __init__(
        self,
        n: int,
        coefficients: Mapping[tuple[int, int], float],
        tol: float = DEFAULT_TOL,
    ):
        mask = (1 << n) - 1
        cleaned: dict[tuple[int, int], float] = {}
        for (a, b), value in coefficients.items():
            if a == 0 and b == 0:
                raise ValidationError("the identity has fixed coefficient 1")
            if a & ~mask or b & ~mask:
                raise DimensionError("coefficient key exceeds the system count")
            value = float(value)
            if abs(value) > 1 + tol:
                raise ValidationError(
                    f"coefficient {value} on {PauliString.hermitian(n, a, b).text()} "
                    "violates |s| <= 1"
                )
            if value != 0.0:
                cleaned[(a, b)] = value
        self._n = n
        self._coeffs = cleaned

    @property
    def n(self) -> int:
        return self._n

    def coefficient(self, a: int, b: int) -> float:
        return self._coeffs.get((a, b), 0.0)

    def terms(self) -> Iterator[tuple[PauliString, float]]:
        for (a, b), value in sorted(self._coeffs.items()):
            yield PauliString.hermitian(self._n, a, b), value

    def keys(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._coeffs))

    @property
    def has_full_support(self) -> bool:
        """True iff a coefficient is stored and every stored string acts
        on all systems; checked without sorting the keys."""
        full = (1 << self._n) - 1
        return bool(self._coeffs) and all((a | b) == full for a, b in self._coeffs)

    def expectation(self, observable: PauliString) -> float:
        """Expectation value of a Hermitian (possibly negated) string.

        Raises:
            DomainError: if the observable is not Hermitian.
            DimensionError: on mismatched system counts.
        """
        if observable.n != self._n:
            raise DimensionError(
                f"observable acts on {observable.n} systems, state on {self._n}"
            )
        sign = observable.hermitian_sign()
        if observable.is_identity:
            return float(sign)
        return sign * self._coeffs.get(observable.basis_key(), 0.0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoefficientState):
            return NotImplemented
        return self._n == other._n and self._coeffs == other._coeffs

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
    def from_json_dict(cls, data: Mapping) -> "CoefficientState":
        if data.get("kind") != "coeff":
            raise ValidationError(f"expected kind 'coeff', got {data.get('kind')!r}")
        n = int(data["n"])
        coeffs: dict[tuple[int, int], float] = {}
        for term in data["terms"]:
            p = PauliString.from_text(term["pauli"])
            if p.n != n:
                raise DimensionError("term length disagrees with declared n")
            coeffs[p.basis_key()] = float(term["coeff"])
        return cls(n, coeffs)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CoefficientState":
        return cls.from_json_dict(json.loads(text))


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

    @classmethod
    def from_ops(cls, n: int, *ops: tuple) -> "CliffordCircuit":
        return cls(n, tuple((name, tuple(ts)) for name, *ts in ops))


def _generator_images(
    gate: str, targets: tuple[int, ...], n: int
) -> dict[tuple[str, int], PauliString]:
    """Images of the X and Z generators on the gate's targets."""
    x = lambda q: PauliString.single(n, q, "X")
    z = lambda q: PauliString.single(n, q, "Z")
    if gate == "I":
        q = targets[0]
        return {("X", q): x(q), ("Z", q): z(q)}
    if gate == "X":
        q = targets[0]
        return {("X", q): x(q), ("Z", q): -z(q)}
    if gate == "Z":
        q = targets[0]
        return {("X", q): -x(q), ("Z", q): z(q)}
    if gate == "Y":
        q = targets[0]
        return {("X", q): -x(q), ("Z", q): -z(q)}
    if gate == "H":
        q = targets[0]
        return {("X", q): z(q), ("Z", q): x(q)}
    if gate == "CNOT":
        c, t = targets
        return {
            ("X", c): pauli_product(x(c), x(t)),
            ("X", t): x(t),
            ("Z", c): z(c),
            ("Z", t): pauli_product(z(c), z(t)),
        }
    raise DomainError(f"unsupported gate {gate!r}")


def _conjugate_one_gate(
    gate: str, targets: tuple[int, ...], p: PauliString
) -> PauliString:
    images = _generator_images(gate, targets, p.n)
    result = PauliString(p.n, 0, 0, p.phase)
    for q in range(p.n):
        if p.a >> q & 1:
            result = pauli_product(result, images.get(("X", q), PauliString.single(p.n, q, "X")))
        if p.b >> q & 1:
            result = pauli_product(result, images.get(("Z", q), PauliString.single(p.n, q, "Z")))
    return result


def conjugate_pauli(circuit: CliffordCircuit, p: PauliString) -> PauliString:
    """Exact image U P U-dagger of a string under the circuit unitary."""
    if circuit.n != p.n:
        raise DimensionError("circuit and string system counts differ")
    for gate, targets in circuit.gates:
        p = _conjugate_one_gate(gate, targets, p)
    return p


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
    fixtures and for the report-style validator).
    """

    __slots__ = ("_n", "_table", "_lam", "_signs")

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
        lam = float(lam)
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

    def has_setting(self, setting: FiducialSetting) -> bool:
        if self.is_compact:
            return True
        return setting.labels in self._table

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
        """Moment of the outcome product over a subset of systems.

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
            return 0.0
        row = _characters(1 << self._n)[_column(self._n, chosen)]
        return float(np.dot(self.probabilities(setting), row))

    def setting_moment(self, setting: FiducialSetting) -> float:
        return self.subset_moment(setting, range(self._n))

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
        for keep in itertools.chain.from_iterable(
            itertools.combinations(range(self._n), r) for r in range(1, self._n)
        ):
            for setting, _, _, deviation, source in _marginals(self, keep):
                if deviation > tol:
                    raise NoSignalingError(
                        f"marginal on systems {keep} differs between "
                        f"settings {source} and {setting.labels}"
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
    def from_json_dict(cls, data: Mapping, check: bool = True) -> "GnstState":
        kind = data.get("kind")
        if kind == "gnst":
            return cls.compact(int(data["n"]), data["lambda"], data["signs"])
        if kind == "gnst-table":
            table = {tuple(s["k"]): s["p"] for s in data["settings"]}
            return cls.from_table(int(data["n"]), table, check=check)
        raise ValidationError(f"expected a gnst kind, got {kind!r}")

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str, check: bool = True) -> "GnstState":
        return cls.from_json_dict(json.loads(text), check=check)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GnstState):
            return NotImplemented
        return (
            self._n == other._n
            and self._table == other._table
            and self._lam == other._lam
            and self._signs == other._signs
        )


def _marginal_vector(
    probs: Sequence[float], n: int, keep: Sequence[int]
) -> tuple[float, ...]:
    sums: dict[tuple[int, ...], float] = {}
    for outcome, pr in zip(all_outcomes(n), probs):
        key = tuple(outcome[i] for i in keep)
        sums[key] = sums.get(key, 0.0) + pr
    return tuple(sums[o] for o in all_outcomes(len(keep)))


def _marginals(
    state: GnstState, keep: Sequence[int]
) -> Iterator[
    tuple[FiducialSetting, tuple[int, ...], tuple[float, ...], float, tuple[int, ...]]
]:
    """Every setting's marginal on the systems ``keep``.

    Yields (setting, its labels on ``keep``, marginal, deviation,
    source), where source is the first setting with the same labels on
    ``keep`` and deviation is the largest entrywise difference between
    the two marginals (0 for the source itself).
    """
    first: dict[tuple[int, ...], tuple[tuple[float, ...], tuple[int, ...]]] = {}
    for setting in state.settings():
        sub = tuple(setting.labels[i] for i in keep)
        marg = _marginal_vector(state.probabilities(setting), state.n, keep)
        reference, source = first.setdefault(sub, (marg, setting.labels))
        deviation = max(abs(x - y) for x, y in zip(marg, reference))
        yield setting, sub, marg, deviation, source


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
    collected: dict[tuple[int, ...], tuple[float, ...]] = {}
    for setting, sub, marg, deviation, source in _marginals(state, keep):
        if deviation > DEFAULT_TOL:
            raise NoSignalingError(
                f"marginal on systems {keep} differs between settings "
                f"{source} and {setting.labels}"
            )
        collected.setdefault(sub, marg)
    return GnstState.from_table(len(keep), collected)


class MomentTable:
    """Moments of commuting measurement collections, keyed by product string.

    A collection's moment is stored under the Hermitian basis element of
    its exact operator product; looking up a negated string negates the
    value.  ``strict`` tables raise on absent keys, which is the right
    behavior for operationally defined tables, while coefficient-state
    views treat absent strings as zero.  The identity's moment is fixed
    at 1 and cannot be stored; a key beyond ``n`` systems raises
    :class:`DimensionError`.
    """

    __slots__ = ("_n", "_values", "_strict")

    def __init__(
        self,
        n: int,
        values: Mapping[tuple[int, int], float],
        strict: bool = True,
    ):
        mask = (1 << n) - 1
        for a, b in values:
            if a == 0 and b == 0:
                raise ValidationError("the identity has fixed moment 1")
            if a & ~mask or b & ~mask:
                raise DimensionError("moment key exceeds the system count")
        self._n = n
        self._values = dict(values)
        self._strict = strict

    @property
    def n(self) -> int:
        return self._n

    @property
    def strict(self) -> bool:
        return self._strict

    def has(self, p: PauliString) -> bool:
        return p.is_identity or p.basis_key() in self._values

    def keys(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._values))

    def strings(self) -> tuple[PauliString, ...]:
        return tuple(PauliString.hermitian(self._n, a, b) for a, b in self.keys())

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
        a strict table and 0 otherwise.
        """
        out = np.full(1 << 2 * self._n, np.nan if self._strict else 0.0)
        out[0] = 1.0
        for (a, b), value in self._values.items():
            out[a | b << self._n] = value
        return out

    def value_of_collection(self, collection: Sequence[PauliString]) -> float:
        """Moment of the product of a pairwise commuting collection."""
        for s, t in itertools.combinations(collection, 2):
            if not commutes(s, t):
                raise DomainError(
                    f"{s.text()} and {t.text()} do not commute"
                )
        return self.value(product_of(collection, n=self._n))

    @classmethod
    def from_coefficient_state(cls, state: CoefficientState) -> "MomentTable":
        values = {key: state.coefficient(*key) for key in state.keys()}
        return cls(state.n, values, strict=False)


MAX_COLLECTION_SIZE = 12


def _characters(size: int) -> np.ndarray:
    """Signs (-1)**popcount(i & k) for i, k below ``size``, a power of 2.

    Column k is a character of Z_2^m, so ``mu @ _characters(len(mu))``
    is the spectrum of the group matrix ``mu[i xor j]``: its
    Walsh-Hadamard transform.  It also maps an outcome distribution to
    its subset moments (:func:`_column`), and back when divided by size.
    """
    signs = np.ones((1, 1))
    while len(signs) < size:
        signs = np.block([[signs, signs], [signs, -signs]])
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


def _setting_key(setting: FiducialSetting) -> tuple[int, int]:
    """Exponent masks of a setting's string; label k is X**(k & 1) Z**(k >> 1)."""
    digits = list(enumerate(setting.labels))
    return sum((k & 1) << i for i, k in digits), sum((k >> 1) << i for i, k in digits)


def moments_from_probabilities(
    state: GnstState | Mapping[Sequence[int], Sequence[float]],
    tol: float = DEFAULT_TOL,
) -> MomentTable:
    """Moments of every stored setting and every subset of its systems.

    Each setting's outcome distribution is transformed once by
    :func:`_characters`; a subset's moment is one column of the result.
    Subset moments reachable from several settings are checked for
    consistency, which is the independence condition on overlapping
    collections.  Compact states are consistent by construction.

    Raises:
        ValidationError: on an empty mapping, unnormalized input or
            inconsistent subsets.
    """
    if not isinstance(state, GnstState):
        if not state:
            raise ValidationError("a table state needs at least one setting")
        state = GnstState.from_table(
            len(next(iter(state))), state, check=False
        )
    n = state.n
    if state.is_compact:
        keys = map(_setting_key, all_settings(n))
        values = {key: sign * state.lam for key, sign in zip(keys, state.signs)}
        return MomentTable(n, values, strict=False)
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
        a, b = _setting_key(setting)
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
