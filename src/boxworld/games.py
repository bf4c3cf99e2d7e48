"""CHSH and XOR games over power-constrained box theories.

Two parties share a state, receive questions, and answer with +-1
outcomes; an XOR game is won when the answer parity matches the
question pair's target.  A theory whose uncertainty relation bounds the
p-th power sum over anti-commuting observables admits correlators of
magnitude up to qn**(-1/p) across qn questions per side, and every
winning probability in this module follows from that single number.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .errors import DimensionError, DomainError, ResourceError, ValidationError, validate_exponent
from .pauli import PauliString, gamma_set, letter_digits, pauli_product
from .states import (
    CliffordCircuit,
    CoefficientState,
    FiducialSetting,
    GnstState,
    MomentTable,
    all_outcomes,
    apply_clifford,
    tensor_product,
)

__all__ = [
    "chsh_win_probability",
    "equatorial_state",
    "chsh_optimal_state",
    "CHSH_XY_PAIRS",
    "CHSH_XZ_PAIRS",
    "chsh_value",
    "pgnst_chsh_state",
    "TsirelsonResult",
    "tsirelson_optimize",
    "XorGame",
    "chsh_game",
    "chsh_type_games",
    "random_xor_game",
    "XorStrategy",
    "build_xor_game_state",
    "xor_game_value",
]

# Questions per party of a random game or a ladder construction.  The
# ladder construction costs about 5x per doubling of both counts: 0.04 s
# at 64 x 64, 0.18 s at 128 x 128 and 0.9 s at 200 x 200 on a 2-CPU host.
MAX_XOR_QUESTIONS = 128


def _check_question_counts(s_count: int, t_count: int) -> None:
    if max(s_count, t_count) > MAX_XOR_QUESTIONS:
        raise ResourceError(
            f"XOR games are limited to {MAX_XOR_QUESTIONS} questions per party, "
            f"got {s_count} x {t_count}"
        )


def chsh_win_probability(p: float) -> float:
    """Best CHSH winning probability at uncertainty exponent ``p``.

    The two binding question pairs are anti-commuting, so each of the
    four correlators is capped at 2**(-1/p); the winning probability is
    1/2 + 2**(-1/p)/2.  At p = 2 this is Tsirelson's bound, at
    p = infinity the game is won with certainty.
    """
    p = validate_exponent(p)
    return 0.5 + 0.5 * 2.0 ** (-1.0 / p)


def equatorial_state(p: float) -> CoefficientState:
    """Single system with weight 2**(-1/p) on both X and Y."""
    p = validate_exponent(p)
    mu = 2.0 ** (-1.0 / p)
    return CoefficientState(1, {(1, 0): mu, (1, 1): mu})


def chsh_optimal_state(p: float) -> CoefficientState:
    """The canonical two-system state winning CHSH at rate ``p`` allows.

    Built as an equatorial system next to a Z-aligned one, entangled by
    one CNOT; the image carries correlator 2**(-1/p) on each of XX, XY,
    YX and -(that) on YY, plus the spectator ZZ.
    """
    aligned = CoefficientState(1, {(0, 1): 1.0})
    product = tensor_product(equatorial_state(p), aligned)
    return apply_clifford(CliffordCircuit(2, (("CNOT", (0, 1)),)), product)


# Observable letters per party and question: pairs[party][question].
CHSH_XY_PAIRS = (("X", "Y"), ("X", "Y"))
CHSH_XZ_PAIRS = (("X", "Z"), ("X", "Z"))


def chsh_value(
    state: CoefficientState | GnstState | MomentTable,
    pairs: tuple[tuple[str, str], tuple[str, str]] = CHSH_XY_PAIRS,
) -> float:
    """The CHSH combination: correlators summed, the (2,2) one negated.

    Value 2 is the classical bound, 2*sqrt(2) the quantum one, 4 the
    algebraic maximum.  ``pairs`` names each party's two observables.
    """
    if state.n != 2:
        raise DimensionError(f"CHSH needs a two-system state, got n={state.n}")
    total = 0.0
    for s, t in itertools.product(range(2), repeat=2):
        first, second = pairs[0][s], pairs[1][t]
        sign = -1.0 if s == 1 and t == 1 else 1.0
        if isinstance(state, GnstState):
            setting = FiducialSetting(tuple(letter_digits(first + second)))
            corr = state.setting_moment(setting)
        else:
            corr = state.value(PauliString.from_text(first + second))
        total += sign * corr
    return total


def pgnst_chsh_state(p: float) -> GnstState:
    """The optimal CHSH strategy as an explicit probability table.

    On the four settings drawn from the first two measurements the
    outcomes are correlated with strength 2**(-1/p), negatively for the
    second-second pair; every setting touching the third measurement is
    uniform.  Restricted to the correlated settings at p = infinity
    this is exactly the standard nonlocal-box table.
    """
    p = validate_exponent(p)
    lam = 2.0 ** (-1.0 / p)
    table: dict[tuple[int, ...], tuple[float, ...]] = {}
    for labels in itertools.product((1, 2, 3), repeat=2):
        if 3 in labels:
            table[labels] = (0.25,) * 4
        else:
            sign = -1.0 if labels == (2, 2) else 1.0
            table[labels] = tuple(
                0.25 * (1.0 + sign * lam * a * b) for a, b in all_outcomes(2)
            )
    return GnstState.from_table(2, table)


# ---------------------------------------------------------------------------
# the quantum bound as a constrained program
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TsirelsonResult:
    """Optimum of 2(x + y) on the unit disc.

    ``moments`` spells the optimum out as the four question correlators
    (x, y, y, -x): the symmetric structure pairs the first with the
    last and the two middle ones up to sign, which is what reduces the
    four-correlator program to the two variables (x, y).
    """

    x: float
    y: float
    value: float

    @property
    def moments(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.y, -self.x)

    @property
    def feasibility_margin(self) -> float:
        """Slack of the disc constraint x**2 + y**2 <= 1 at the optimum."""
        return 1.0 - self.x * self.x - self.y * self.y


def tsirelson_optimize(tol: float = 1e-9) -> TsirelsonResult:
    """Maximize the CHSH combination subject to the exponent-2 relation.

    With both correlator pairs reduced by symmetry, the program is
    max 2(x + y) over x**2 + y**2 <= 1.  A positive linear form on the
    disc peaks on the boundary circle, so the search is golden-section
    over the angle.  Returns the optimum within ``tol`` of
    (1/sqrt(2), 1/sqrt(2), 2*sqrt(2)) and checks the pair reduction on
    the reported moments.
    """
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, math.pi / 2.0
    c = hi - (hi - lo) * invphi
    d = lo + (hi - lo) * invphi
    fc = math.cos(c) + math.sin(c)
    fd = math.cos(d) + math.sin(d)
    for _ in range(90):
        if fc < fd:
            lo, c, fc = c, d, fd
            d = lo + (hi - lo) * invphi
            fd = math.cos(d) + math.sin(d)
        else:
            hi, d, fd = d, c, fc
            c = hi - (hi - lo) * invphi
            fc = math.cos(c) + math.sin(c)
    theta = 0.5 * (lo + hi)
    x, y = math.cos(theta), math.sin(theta)
    result = TsirelsonResult(x, y, 2.0 * (x + y))
    m1, m2, m3, m4 = result.moments
    if abs(m1 * m1 - m4 * m4) > tol or abs(m2 * m2 - m3 * m3) > tol:
        raise ValidationError("moment pairing violated at the reported optimum")
    return result


# ---------------------------------------------------------------------------
# XOR games beyond CHSH
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class XorGame:
    """A two-party XOR game in table form.

    ``pi[s][t]`` is the probability of question pair (s, t); ``wins[s][t]``
    the answer parity that wins there.  Stating the winning parity
    directly makes every game of this form unique: exactly one parity
    wins each question pair.
    """

    s_count: int
    t_count: int
    pi: tuple[tuple[float, ...], ...]
    wins: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.s_count < 1 or self.t_count < 1:
            raise DomainError("each party needs at least one question")
        for name, table in (("pi", self.pi), ("wins", self.wins)):
            if len(table) != self.s_count or any(
                len(row) != self.t_count for row in table
            ):
                raise DimensionError(f"{name} must be {self.s_count} x {self.t_count}")
        total = 0.0
        for row in self.pi:
            for value in row:
                if value < 0.0:
                    raise ValidationError(f"negative question probability {value}")
                total += value
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"question probabilities sum to {total}")
        if any(bit not in (0, 1) for row in self.wins for bit in row):
            raise ValidationError("winning parities must be 0 or 1")

    def to_json_dict(self) -> dict:
        return {
            "S": self.s_count,
            "T": self.t_count,
            "pi": [list(row) for row in self.pi],
            "V": [list(row) for row in self.wins],
        }

    @classmethod
    def from_json_dict(cls, data) -> "XorGame":
        return cls(
            int(data["S"]),
            int(data["T"]),
            tuple(tuple(float(v) for v in row) for row in data["pi"]),
            tuple(tuple(int(v) for v in row) for row in data["V"]),
        )


def chsh_game() -> XorGame:
    """CHSH: uniform questions, parity 1 wins only the (1, 1) pair."""
    quarter = ((0.25, 0.25), (0.25, 0.25))
    return XorGame(2, 2, quarter, ((0, 0), (0, 1)))


def chsh_type_games() -> tuple[XorGame, ...]:
    """All 16 two-question games with uniform question distribution."""
    quarter = ((0.25, 0.25), (0.25, 0.25))
    out = []
    for bits in itertools.product((0, 1), repeat=4):
        wins = ((bits[0], bits[1]), (bits[2], bits[3]))
        out.append(XorGame(2, 2, quarter, wins))
    return tuple(out)


def random_xor_game(s_count: int, t_count: int, seed: int = 0) -> XorGame:
    """Uniform question distribution, seeded random winning parities.

    Raises:
        ResourceError: beyond ``MAX_XOR_QUESTIONS`` questions per party.
    """
    if s_count < 1 or t_count < 1:
        raise DomainError("each party needs at least one question")
    _check_question_counts(s_count, t_count)
    rng = random.Random(seed)
    weight = 1.0 / (s_count * t_count)
    pi = tuple((weight,) * t_count for _ in range(s_count))
    wins = tuple(
        tuple(rng.randrange(2) for _ in range(t_count)) for _ in range(s_count)
    )
    return XorGame(s_count, t_count, pi, wins)


def _embed(string: PauliString, n: int, offset: int) -> PauliString:
    return PauliString(n, string.a << offset, string.b << offset, string.phase)


@dataclass(frozen=True)
class XorStrategy:
    """One party's observables each, plus the shared state.

    ``a_observables[s]`` acts on the first ``n_party`` systems of
    ``state``, ``b_observables[t]`` on the rest; the construction puts
    every question correlator at +-``scale`` with the sign of the
    winning parity.
    """

    game: XorGame
    p: float
    n_party: int
    scale: float
    state: CoefficientState
    a_observables: tuple[PauliString, ...]
    b_observables: tuple[PauliString, ...]

    @property
    def win_probability(self) -> float:
        """Winning probability, the same for every question pair."""
        return 0.5 * (1.0 + self.scale)

    def joint_observable(self, s: int, t: int) -> PauliString:
        n = self.state.n
        return pauli_product(
            _embed(self.a_observables[s], n, 0),
            _embed(self.b_observables[t], n, self.n_party),
        )


def build_xor_game_state(
    game: XorGame, p: float
) -> tuple[CoefficientState, XorStrategy]:
    """The ladder construction's shared state and observables for an
    XOR game.

    Each party measures members of the standard anti-commuting ladder on
    its own systems; one ladder over ceil(q/2) systems covers the larger
    question count q.  The per-question observables anti-commute within
    each side, so correlators of +-q**(-1/p) with the signs of the
    winning parities make a valid state.  It wins every question pair
    with probability 1/2 + q**(-1/p)/2: with certainty at p = infinity,
    but at finite p a deterministic classical strategy can do better.

    Raises:
        ResourceError: beyond ``MAX_XOR_QUESTIONS`` questions per party.
    """
    _check_question_counts(game.s_count, game.t_count)
    p = validate_exponent(p)
    largest = max(game.s_count, game.t_count)
    n_party = (largest + 1) // 2
    ladder = tuple(gamma_set(n_party))
    a_obs = ladder[: game.s_count]
    b_obs = ladder[: game.t_count]
    scale = float(largest) ** (-1.0 / p)
    n = 2 * n_party
    coeffs: dict[tuple[int, int], float] = {}
    for s, a_str in enumerate(a_obs):
        for t, b_str in enumerate(b_obs):
            joint = pauli_product(_embed(a_str, n, 0), _embed(b_str, n, n_party))
            target = -scale if game.wins[s][t] else scale
            coeffs[joint.basis_key()] = joint.hermitian_sign() * target
    state = CoefficientState(n, coeffs)
    strategy = XorStrategy(game, p, n_party, scale, state, a_obs, b_obs)
    return state, strategy


def xor_game_value(game: XorGame, strategy: XorStrategy) -> float:
    """Winning probability of a strategy under a game's distribution.

    Per question pair the winning parity c is answered with probability
    (1 + (-1)**c * correlator)/2; the value is the pi-weighted sum.
    """
    if game.s_count > len(strategy.a_observables) or game.t_count > len(
        strategy.b_observables
    ):
        raise DomainError("strategy does not cover every question")
    total = 0.0
    for s in range(game.s_count):
        for t in range(game.t_count):
            corr = strategy.state.value(strategy.joint_observable(s, t))
            parity_sign = -1.0 if game.wins[s][t] else 1.0
            total += game.pi[s][t] * 0.5 * (1.0 + parity_sign * corr)
    return total
