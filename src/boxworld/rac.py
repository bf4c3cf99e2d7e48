"""Random access codes over the box-theory state families.

An encoder packs a bit string into one state; a decoder recovers any
single chosen bit by measuring one address.  Four constructions share
the machinery and differ only in the state family and its admissible
correlation strength: probability tables at full strength (perfect
recovery), probability tables at exponent p, coefficient states over
every basis string, and coefficient states restricted to letter tensor
products.  In all of them each address carries the encoded bit in the
sign of one moment, so recovery succeeds with probability
(1 + |moment|)/2.  Every code has one layout: bit j lives at the j-th
fiducial setting (tables) or the j-th basis string (coefficient codes),
each in lexicographic order; another order is a permutation of the bits
before encoding and of the index before decoding.  :func:`rac_encode` is
the one map from a theory name to its code.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple, Sequence

from .errors import DimensionError, DomainError, ResourceError, ValidationError, validate_exponent
from .pauli import PauliString, digit_masks, full_support_strings, hermitian_basis
from .states import CoefficientState, GnstState, all_settings

__all__ = [
    "RacParams",
    "rac_params",
    "IndexMap",
    "rac_encode",
    "rac_encode_gnst",
    "rac_encode_pgnst",
    "rac_encode_pbin",
    "rac_decode",
    "RepetitionParams",
    "rac_repetition_params",
    "rac_repetition_decode",
    "rac_learning_params",
    "binary_entropy",
    "nayak_bound",
]

THEORIES = ("gnst", "p-gnst", "p-bin", "p-box")

# The boosted decode builds all 3**n settings: about 3 s and 185 MB at
# n = 12 on a 2-CPU host, three times that per further system.
MAX_BOOST_SYSTEMS = 12


class RacParams(namedtuple("RacParams", "encoded_bits carriers recovery p theory")):
    """Shape of one code: what it stores, what carries it, how well.

    Attributes:
        encoded_bits: Number of encoded bits N.
        carriers: Carrier system count n.
        recovery: Per-index recovery probability q.
        p: Uncertainty exponent of the carrier theory.
        theory: One of ``THEORIES``.
    """

    __slots__ = ()

    def __new__(
        cls, encoded_bits: int, carriers: int, recovery: float, p: float, theory: str
    ) -> RacParams:
        if encoded_bits < 1 or carriers < 1:
            raise DomainError("need at least one carrier and one encoded bit")
        if not 0.5 <= recovery <= 1.0:
            raise DomainError(f"recovery probability {recovery} outside [1/2, 1]")
        if theory not in THEORIES:
            raise DomainError(f"unknown theory {theory!r}")
        return super().__new__(cls, encoded_bits, carriers, recovery, p, theory)


def rac_params(theory: str, n: int, p: float = math.inf) -> RacParams:
    """Parameters of the standard code for a theory on ``n`` carriers.

    Tables address 3**n settings; the unrestricted coefficient code
    addresses all 4**n - 1 strings; the restricted one the 3**n letter
    tensor strings.  Every finite-p variant recovers with probability
    1/2 + (2n+1)**(-1/p)/2.
    """
    p = validate_exponent(p)
    if theory == "gnst":
        if p != math.inf:
            raise DomainError("the full-strength table code requires p = inf")
        return RacParams(3**n, n, 1.0, p, theory)
    q = 0.5 + 0.5 * (2 * n + 1) ** (-1.0 / p)
    if theory in ("p-gnst", "p-box"):
        return RacParams(3**n, n, q, p, theory)
    if theory == "p-bin":
        return RacParams(4**n - 1, n, q, p, theory)
    raise DomainError(f"unknown theory {theory!r}")


class IndexMap:
    """The 1-based settings layout of the table codes.

    Index j (1-based) reads the j-th address given at construction; the
    addresses must be distinct.  :meth:`settings_map` enumerates the
    fiducial settings in lexicographic order, the identity on a compact
    table's sign vector: index j reads ``signs[j-1]``.
    """

    __slots__ = ("_addresses",)

    def __init__(self, addresses: Sequence):
        addresses = tuple(addresses)
        if not addresses:
            raise DomainError("an index map needs at least one address")
        if len(set(addresses)) != len(addresses):
            raise ValidationError("index map addresses must be distinct")
        self._addresses = addresses

    @classmethod
    def settings_map(cls, n: int) -> "IndexMap":
        return cls(all_settings(n))

    def address_of(self, j: int) -> object:
        if not 1 <= j <= len(self._addresses):
            raise DomainError(f"index {j} outside 1..{len(self._addresses)}")
        return self._addresses[j - 1]


def _check_bits(bits: Sequence[int], expected: int) -> None:
    if len(bits) != expected:
        raise DimensionError(f"need {expected} bits, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise ValidationError("bits must be 0 or 1")


def rac_encode(
    theory: str, bits: Sequence[int], n: int, p: float = math.inf
) -> GnstState | CoefficientState:
    """Encode ``bits`` in the code ``rac_params(theory, n, p)`` describes;
    ``gnst`` is full strength and ignores ``p``."""
    if theory == "gnst":
        return rac_encode_gnst(bits, n)
    if theory == "p-gnst":
        return rac_encode_pgnst(bits, n, p)
    if theory in ("p-bin", "p-box"):
        return rac_encode_pbin(bits, n, p, restrict_to_xyz=theory == "p-box")
    raise DomainError(f"unknown theory {theory!r}")


def rac_encode_gnst(bits: Sequence[int], n: int) -> GnstState:
    """Pack 3**n bits into one n-system table with perfect recovery:
    the code of :func:`rac_encode_pgnst` at p = infinity, whose
    strength (2n+1)**(-1/p) is exactly 1."""
    return rac_encode_pgnst(bits, n, math.inf)


def rac_encode_pgnst(bits: Sequence[int], n: int, p: float) -> GnstState:
    """The table code at exponent ``p``: strength (2n+1)**(-1/p).

    Bit j sets the sign of the j-th setting in lexicographic
    (:func:`~boxworld.states.all_settings`) order.  The strength gives
    the recovery probability 1/2 + (2n+1)**(-1/p)/2 of
    :func:`rac_params`.  It saturates the power-sum relation at n = 1,
    where X, Z and Y form a 3-member anti-commuting family, and at
    n = 4, where 9 = 2n+1 full-support strings pairwise anti-commute.
    At n = 2 and 3 the largest anti-commuting family of full-support
    strings is smaller than 2n+1 (3 and 4 members), so the code keeps
    slack: its exhaustive uncertainty margin is 1 - 3/5 = 2/5 at n = 2
    and 1 - 4/7 = 3/7 at n = 3, for every finite p.
    """
    p = validate_exponent(p)
    if n < 1:
        raise DomainError("need at least one carrier system")
    _check_bits(bits, 3**n)
    signs = [-1 if b else 1 for b in bits]
    return GnstState.compact(n, (2 * n + 1) ** (-1.0 / p), signs)


def rac_encode_pbin(
    bits: Sequence[int], n: int, p: float, restrict_to_xyz: bool = False
) -> CoefficientState:
    """Coefficient-state code: one bit per basis string.

    Unrestricted, all 4**n - 1 strings carry +-(2n+1)**(-1/p), bit j on
    the j-th string in :func:`~boxworld.pauli.hermitian_basis` order,
    packing more bits per carrier than any table code; the output
    generally satisfies nothing beyond the power-sum relation.
    Restricted, bit j sits on the j-th of the 3**n full-support letter
    tensors (:func:`~boxworld.pauli.full_support_strings` order), and
    the output also passes the disjoint-support moment checks.
    """
    p = validate_exponent(p)
    if n < 1:
        raise DomainError("need at least one carrier system")
    strings = full_support_strings(n) if restrict_to_xyz else tuple(hermitian_basis(n))
    _check_bits(bits, len(strings))
    lam = (2 * n + 1) ** (-1.0 / p)
    coeffs = {
        s.basis_key(): (-lam if bit else lam) for s, bit in zip(strings, bits)
    }
    return CoefficientState(n, coeffs)


def _default_coefficient_address(state: CoefficientState, j: int) -> PauliString:
    """The j-th string of the coefficient code's layout, built from the
    digits of j, system 0 most significant.

    The unrestricted layout (:func:`hermitian_basis` order) reads j in
    base 4 over I, X, Z, Y; the full-support layout
    (:func:`full_support_strings` order) reads j - 1 in base 3 over X,
    Z, Y.  Encoder outputs store every addressed coefficient, so all
    keys having full support identifies the full-support layout.
    """
    n = state.n
    if state.has_full_support:
        base, offset, size = 3, 1, 3**n
    else:
        base, offset, size = 4, 0, 4**n - 1
    if not 1 <= j <= size:
        raise DomainError(f"index {j} outside 1..{size}")
    rest, digits = j - offset, []
    for _ in range(n):
        rest, digit = divmod(rest, base)
        digits.append(digit + offset)
    return PauliString.hermitian(n, *digit_masks(reversed(digits)))


def rac_decode(state: GnstState | CoefficientState, j: int) -> tuple[int, float]:
    """Recover one bit: measure index ``j``'s address, return the sign.

    A table reads the j-th setting of :meth:`IndexMap.settings_map`; a
    coefficient state the j-th string of its encoder's layout.  Returns
    the decoded bit together with its exact success probability
    (1 + |m|)/2, where m is the addressed moment.  A vanishing moment
    decodes as 0 at probability 1/2.
    """
    if isinstance(state, GnstState):
        moment = state.setting_moment(IndexMap.settings_map(state.n).address_of(j))
    elif isinstance(state, CoefficientState):
        moment = state.value(_default_coefficient_address(state, j))
    else:
        raise DomainError(f"cannot decode from {type(state).__name__}")
    bit = 0 if moment >= 0.0 else 1
    return bit, 0.5 * (1.0 + abs(moment))


class RepetitionParams(NamedTuple):
    copies: int
    failure_bound: float


def rac_repetition_params(n: int, p: float) -> RepetitionParams:
    """Copies and failure bound for majority-vote recovery boosting.

    (2n+1)**(3/p) copies push the per-index failure probability below
    2 exp(-(2n+1)**(1/p) / 2) by the Hoeffding bound; the copy count is
    rounded up and forced odd so majority votes cannot tie.  At
    p = infinity a single copy already recovers perfectly.
    """
    if n < 1:
        raise DomainError("need at least one carrier system")
    p = validate_exponent(p)
    if p == math.inf:
        return RepetitionParams(1, 0.0)
    copies = math.ceil((2 * n + 1) ** (3.0 / p))
    if copies % 2 == 0:
        copies += 1
    failure = 2.0 * math.exp(-0.5 * (2 * n + 1) ** (1.0 / p))
    return RepetitionParams(copies, failure)


def rac_repetition_decode(
    bits: Sequence[int],
    n: int,
    p: float,
    j: int,
    trials: int = 1000,
    seed: int = 0,
) -> float:
    """Monte Carlo success rate of majority voting over encoded copies.

    Each trial samples every copy's decode outcome at its exact
    per-copy success probability and majority-votes; returned is the
    fraction of trials recovering bit ``j``.  Expected to stay above
    1 - failure_bound from :func:`rac_repetition_params`.  Beyond
    ``MAX_BOOST_SYSTEMS`` carriers it raises :class:`ResourceError`.
    """
    if trials < 1:
        raise DomainError("need at least one trial")
    if n > MAX_BOOST_SYSTEMS:
        raise ResourceError(f"boosted decoding is limited to n <= {MAX_BOOST_SYSTEMS}")
    import numpy as np

    state = rac_encode_pgnst(bits, n, p)
    _, per_copy = rac_decode(state, j)
    copies, _ = rac_repetition_params(n, p)
    rng = np.random.default_rng(seed)
    correct_counts = rng.binomial(copies, per_copy, size=trials)
    # Odd copy count: strict majority decides, ties cannot occur.
    successes = int(np.count_nonzero(correct_counts > copies // 2))
    return successes / trials


def rac_learning_params(total_bits: float, p: float, gamma: float) -> int:
    """Largest carrier count learnable-relevant for a budget of bits.

    Solves total = (2n+1)**(2/p) * n * log-term for n and floors it,
    where the log term is ln(4/(1/2 - gamma)**2); the budget must reach
    2**(2/p) times the log term for even one carrier.
    """
    p = validate_exponent(p)
    if not 0.0 < gamma < 0.5:
        raise DomainError(f"gamma must lie strictly between 0 and 1/2, got {gamma}")
    log_term = math.log(4.0 / (0.5 - gamma) ** 2)
    scale = 2.0 ** (2.0 / p)
    minimum = scale * log_term
    if total_bits < minimum:
        raise DomainError(
            f"budget {total_bits} below the minimum {minimum:.6g} "
            f"for p={p}, gamma={gamma}"
        )
    base = total_bits / (scale * log_term)
    return math.floor(base ** (1.0 / (2.0 / p + 1.0)))


def binary_entropy(q: float) -> float:
    """Entropy of a (q, 1-q) coin in bits; 0 log 0 reads as 0."""
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"probability {q} outside [0, 1]")
    total = 0.0
    for v in (q, 1.0 - q):
        if v > 0.0:
            total -= v * math.log2(v)
    return total


def nayak_bound(encoded_bits: int, recovery: float) -> float:
    """Carrier lower bound (1 - h(q)) N for quantum random access codes.

    Any qubit code storing N bits at per-index recovery q needs at
    least this many qubits, so table codes beat quantum ones
    exponentially: 3**n stored bits against n carriers at q = 1.
    """
    if not 0.5 <= recovery <= 1.0:
        raise DomainError(f"recovery probability {recovery} outside [1/2, 1]")
    return (1.0 - binary_entropy(recovery)) * encoded_bits
