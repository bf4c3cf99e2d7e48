"""Information-processing consequences of strong random access codes.

Three task families: one-way communication of Boolean functions (send
one encoded truth table instead of the input), single-server private
information retrieval (the whole database is the message, so the query
never leaves the user), and sample-complexity lower bounds for learning
state ensembles, driven by the fat-shattering dimension the codes
certify.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Sequence

from .errors import DimensionError, DomainError, ResourceError, validate_exponent
from .rac import (
    RacParams,
    rac_decode,
    rac_encode_pgnst,
    rac_learning_params,
    rac_params,
    rac_repetition_params,
)

__all__ = [
    "CommProtocolResult",
    "ip_oneway_cost",
    "inner_product",
    "simulate_ip_protocol",
    "pir_simulate",
    "fat_shattering_lower_bound",
    "shattering_witness_check",
    "SampleComplexityBound",
    "sample_complexity_lower_bound",
    "LearnParams",
    "LearnabilityReport",
    "learnability_threshold",
]

MAX_PROTOCOL_BITS = 12

# 4 d / gamma**2 must stay below 1e308, inside the float range, for the
# logarithm of the learning bound to be finite.
_MAX_LOG_ARGUMENT = math.log(1e308)


def _smallest_code(entries: int, p: float, theory: str = "p-gnst") -> RacParams:
    """:func:`~boxworld.rac.rac_params` of the fewest carriers whose code
    holds ``entries`` bits."""
    carriers = 1
    while (params := rac_params(theory, carriers, p)).encoded_bits < entries:
        carriers += 1
    return params


@dataclass(frozen=True)
class CommProtocolResult:
    """Outcome record of a one-way protocol cost computation."""

    task: str
    input_bits: int
    theory: str
    carriers: int
    correctness: float
    exact: bool
    note: str = ""

    def __post_init__(self) -> None:
        if self.carriers < 1:
            raise DomainError("a protocol transmits at least one carrier")
        if not 0.0 <= self.correctness <= 1.0:
            raise DomainError(f"correctness {self.correctness} outside [0, 1]")

    def to_json_dict(self) -> dict:
        return asdict(self)


def ip_oneway_cost(n: int, p: float, theory: str = "p-gnst") -> CommProtocolResult:
    """Carriers for one-way inner-product communication on n-bit inputs.

    The sender transmits their whole 2**n-entry truth table as one
    random access code, so table theories need one carrier per factor
    of 3 of capacity and the string code one per factor of 4.  At
    p = infinity retrieval is certain; at finite p the same carrier
    counts apply but each retrieval succeeds only with the code's
    recovery probability, noted on the result.

    The carriers and the recovery are those of
    :func:`~boxworld.rac.rac_params` for the theory, so a theory or
    exponent it rejects is rejected here too.  The two rules count the
    y = 0 entry differently.  A table code holds all 2**n entries, the
    always-zero y = 0 entry included, so it needs 3**carriers >= 2**n.
    The p-bin code addresses the 4**carriers - 1 non-identity strings,
    which hold the other 2**n - 1 entries, and the receiver reads y = 0
    as 0 because x . 0 is always 0.

    Raises:
        DomainError: for n < 1, a theory :func:`rac_params` does not
            know, or ``gnst`` at finite p.
    """
    if n < 1:
        raise DomainError("need at least one input bit")
    theory = theory.strip().lower()
    params = _smallest_code((1 << n) - (theory == "p-bin"), p, theory)
    exact = params.p == math.inf
    note = "" if exact else "finite p: per-retrieval success degraded; certainty needs p = inf"
    return CommProtocolResult("inner-product", n, theory, params.carriers, params.recovery, exact, note)


def inner_product(x: Sequence[int], y: Sequence[int]) -> int:
    if len(x) != len(y):
        raise DimensionError("input strings differ in length")
    return sum(a & b for a, b in zip(x, y)) & 1


def simulate_ip_protocol(
    x: Sequence[int], y: Sequence[int], p: float = math.inf, seed: int = 0
) -> int:
    """Run the one-way protocol: encode x's truth table, decode at y.

    The message is the inner product of x with every possible y,
    zero-padded to the next power of 3 and packed into one table code;
    the receiver reads the entry addressed by y (big-endian).  Exact at
    p = infinity; at finite p the single retrieval is sampled at its
    true success probability.

    Raises:
        ResourceError: beyond 12 input bits.
    """
    n = len(x)
    if len(y) != n:
        raise DimensionError("input strings differ in length")
    if n > MAX_PROTOCOL_BITS:
        raise ResourceError(f"protocol simulation is limited to {MAX_PROTOCOL_BITS} bits")
    if any(b not in (0, 1) for b in (*x, *y)):
        raise DomainError("inputs must be bit strings")
    p = validate_exponent(p)
    # Entry k is x . y for the y with big-endian value k; each doubling
    # prepends one more bit of y as the new most significant bit.
    table = [0]
    for bit in reversed(x):
        table += [v ^ bit for v in table]
    carriers = _smallest_code(len(table), p).carriers
    padded = table + [0] * (3**carriers - len(table))
    index = sum(bit << (n - 1 - i) for i, bit in enumerate(y)) + 1
    bit, q = rac_decode(rac_encode_pgnst(padded, carriers, p), index)
    if p == math.inf:
        return bit
    import numpy as np

    rng = np.random.default_rng(seed)
    return bit if rng.random() < q else 1 - bit


def pir_simulate(
    db: Sequence[int], i: int, p: float = math.inf, seed: int = 0
) -> tuple[int, int]:
    """Retrieve db[i] privately: the server sends the encoded database.

    No query ever reaches the server, so privacy is structural.  At
    p = infinity a single table code is sent and retrieval is exact; at
    finite p the server sends majority-boosted copies and each copy's
    outcome is sampled at its true success probability.

    Returns:
        (retrieved bit, carriers transmitted).
    """
    total = len(db)
    if total < 1:
        raise DomainError("empty database")
    if not 1 <= i <= total:
        raise DomainError(f"index {i} outside 1..{total}")
    if any(b not in (0, 1) for b in db):
        raise DomainError("database entries must be bits")
    p = validate_exponent(p)
    carriers = _smallest_code(total, p).carriers
    padded = list(db) + [0] * (3**carriers - total)
    bit, per_copy = rac_decode(rac_encode_pgnst(padded, carriers, p), i)
    if p == math.inf:
        return bit, carriers
    import numpy as np

    copies, _ = rac_repetition_params(carriers, p)
    rng = np.random.default_rng(seed)
    correct = int(rng.binomial(copies, per_copy)) > copies // 2
    return (bit if correct else 1 - bit), copies * carriers


# ---------------------------------------------------------------------------
# learnability lower bounds
# ---------------------------------------------------------------------------


def fat_shattering_lower_bound(rac: RacParams) -> int:
    """Every code shatters its own index set at width q - 1/2.

    The encoded strings themselves witness the shattering: thresholds
    sit at 1/2 and the per-index recovery margin separates the two
    sides.  Degenerate codes with no margin certify nothing.

    Raises:
        DomainError: recovery probability at or below 1/2.
    """
    if rac.recovery <= 0.5:
        raise DomainError("no shattering margin at recovery 1/2")
    return rac.encoded_bits


def shattering_witness_check(
    n: int, p: float = math.inf, tol: float = 1e-12
) -> bool:
    """Exhaustively verify the shattering witness for the table code.

    For every subset of indices, encode its characteristic string and
    check both threshold conditions at every index: decoding
    probability of 1 at least 1/2 + margin inside the subset, at most
    1/2 - margin outside.

    Raises:
        ResourceError: if 2**(3**n) witness strings would be needed.
    """
    p = validate_exponent(p)
    params = rac_params("p-gnst", n, p)
    total = params.encoded_bits
    if 1 << total > 4096:
        raise ResourceError("witness check is exhaustive; use n = 1")
    margin = params.recovery - 0.5
    for bits in itertools.product((0, 1), repeat=total):
        state = rac_encode_pgnst(bits, n, p)
        for j in range(1, total + 1):
            bit, q = rac_decode(state, j)
            prob_one = q if bit == 1 else 1.0 - q
            if bits[j - 1] == 1 and prob_one < 0.5 + margin - tol:
                return False
            if bits[j - 1] == 0 and prob_one > 0.5 - margin + tol:
                return False
    return True


@dataclass(frozen=True)
class SampleComplexityBound:
    """Both branches of the learning lower bound, with the precondition.

    The bound is only claimed when ``precondition_ok``; failing inputs
    still carry the computed values so regime comparisons can show
    where the knee sits.
    """

    first_branch: float
    second_branch: float
    value: float
    precondition_ok: bool
    precondition_threshold: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def sample_complexity_lower_bound(
    d: float, gamma: float, epsilon: float, delta: float
) -> SampleComplexityBound:
    """Minimum samples to learn a class of fat-shattering dimension d.

    The two branches are (d/(2 ln^2(4d/gamma^2)) - 1)/(32 epsilon) and
    ln(1/delta)/epsilon; the bound is their maximum.  It applies when
    gamma^2 >= 4d * 2**(-sqrt(d/6)), which the result reports without
    refusing to compute outside it.

    Raises:
        DomainError: for inputs outside their ranges, or when 4d/gamma^2
            exceeds 1e308, where its logarithm would leave the float range.
    """
    if d < 1:
        raise DomainError(f"dimension must be at least 1, got {d}")
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"gamma {gamma} outside (0, 1)")
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon {epsilon} outside (0, 1)")
    if not 0.0 < delta <= 1.0:
        raise DomainError(f"delta {delta} outside (0, 1]")
    _check_log_argument(math.log(d), gamma)
    log_term = math.log(4.0 * d / gamma**2)
    first = (d / (2.0 * log_term**2) - 1.0) / (32.0 * epsilon)
    second = math.log(1.0 / delta) / epsilon
    threshold = 4.0 * d * 2.0 ** (-math.sqrt(d / 6.0))
    return SampleComplexityBound(
        first, second, max(first, second), gamma**2 >= threshold, threshold
    )


def _check_log_argument(log_d: float, gamma: float) -> None:
    """Refuse a dimension e**log_d whose 4d/gamma^2 exceeds 1e308 (or is NaN)."""
    if not math.log(4.0) + log_d - 2.0 * math.log(gamma) <= _MAX_LOG_ARGUMENT:
        raise DomainError(
            f"dimension e^{log_d:.6g} is too large at gamma = {gamma}: "
            "4d/gamma^2 must stay below 1e308"
        )


@dataclass(frozen=True)
class LearnParams:
    """Error-parameter bundle for the learning bounds.

    Both orderings of the margin pair appear in the source material for
    these bounds; construction accepts either and ``regime`` names
    which one the given values realize.
    """

    gamma: float
    epsilon: float
    delta: float
    dimension: float
    sample_bound: float
    eta: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise DomainError(f"epsilon {self.epsilon} outside (0, 1)")
        if not 0.0 < self.delta <= 1.0:
            raise DomainError(f"delta {self.delta} outside (0, 1]")

    @property
    def regime(self) -> str:
        if self.eta is None:
            return "eta unspecified"
        if self.gamma > self.eta:
            return "margin-dominant (gamma > eta)"
        if self.gamma < self.eta:
            return "accuracy-dominant (gamma < eta)"
        return "degenerate (gamma = eta)"

    def to_json_dict(self) -> dict:
        return {**asdict(self), "regime": self.regime}


@dataclass(frozen=True)
class LearnabilityReport:
    """Composed learnability lower bound for a given bit budget."""

    carriers: int
    dimension: int
    bound: SampleComplexityBound
    asymptotic: str
    params: LearnParams

    @property
    def threshold(self) -> float:
        """Sample count below which learning cannot succeed."""
        return self.bound.value

    def to_json_dict(self) -> dict:
        return {
            **asdict(self),
            "params": self.params.to_json_dict(),
            "threshold": self.threshold,
        }


def learnability_threshold(
    total_bits: float,
    p: float,
    gamma: float,
    epsilon: float,
    delta: float,
    eta: float | None = None,
) -> LearnabilityReport:
    """Chain the calculators: bit budget -> carriers -> dimension -> bound.

    The carrier count comes from the learning-parameter formula, the
    fat-shattering dimension is 3**carriers, and the sample bound
    follows.  The asymptotic field summarizes how the dimension scales
    with the budget at this exponent.

    Raises:
        DomainError: for a budget that is not finite, below one carrier's
            minimum, or so large that 4 * 3**carriers / gamma^2 exceeds
            1e308; the last is refused before 3**carriers is computed.
    """
    if not math.isfinite(total_bits):
        raise DomainError(f"budget must be finite, got {total_bits}")
    carriers = rac_learning_params(total_bits, p, gamma)
    _check_log_argument(carriers * math.log(3.0), gamma)
    dimension = 3**carriers
    bound = sample_complexity_lower_bound(dimension, gamma, epsilon, delta)
    exponent = 1.0 / (2.0 / validate_exponent(p) + 1.0)
    asymptotic = f"O(3^(budget^{exponent:.6g}))"
    params = LearnParams(gamma, epsilon, delta, dimension, bound.value, eta)
    return LearnabilityReport(carriers, dimension, bound, asymptotic, params)
