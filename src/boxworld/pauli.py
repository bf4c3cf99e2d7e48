"""Exact symplectic algebra for tensor strings of Pauli operators.

A string on ``n`` systems is stored as two bit-masks plus an integer
phase exponent.  Bit ``i`` of the masks ``a`` and ``b`` refers to system
``i`` (system 0 is the leftmost letter in text form), and the operator
denoted by ``PauliString(n, a, b, phase)`` is::

    i**phase * (X**a_0 Z**b_0) (x) ... (x) (X**a_{n-1} Z**b_{n-1})

All phase bookkeeping is exact integer arithmetic mod 4; nothing in this
module touches floating point.

The *Hermitian basis element* for exponents ``(a, b)`` carries one
factor of ``i`` for every position with ``a_i = b_i = 1``, i.e. it uses
``Y`` in place of ``XZ``.  Working in that basis keeps coefficient
expansions of states real.  Text form is a string over ``IXZY`` with an
optional leading phase tag, e.g. ``"+1 XZY"`` or ``"-i XY"``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import DimensionError, DomainError, ResourceError

__all__ = [
    "PauliString",
    "AntiCommutingSet",
    "symplectic_form",
    "commutes",
    "pauli_product",
    "product_of",
    "gamma_set",
    "hermitian_basis",
    "full_support_strings",
    "maximal_commuting_sets",
    "lagrangian_rows",
    "digit_masks",
    "letter_digits",
]

_LETTERS = "IXZY"  # indexed by the digit of :func:`digit_masks`
_LETTER_TO_DIGIT = {letter: d for d, letter in enumerate(_LETTERS)}
_TAG_TO_PHASE = {"+1": 0, "+i": 1, "-1": 2, "-i": 3, "−1": 2, "−i": 3}
_PHASE_TO_TAG = {0: "+1", 1: "+i", 2: "-1", 3: "-i"}

# Maximal commuting sets are enumerated up to this many systems.
MAX_COMMUTING_SYSTEMS = 4


def digit_masks(digits: Iterable[int]) -> tuple[int, int]:
    """Exponent masks ``(a, b)`` of one digit per system, system 0 first.

    Digit ``d = a_i | b_i << 1`` in 0..3, so 0, 1, 2 and 3 are I, X, Z
    and Y; the fiducial labels 1, 2 and 3 are the same digits.

    Examples:
        >>> digit_masks([1, 2, 3])
        (5, 6)
    """
    a = b = 0
    for i, d in enumerate(digits):
        a |= (d & 1) << i
        b |= (d >> 1) << i
    return a, b


def letter_digits(letters: Iterable[str]) -> list[int]:
    """The IXZY digit of each letter; any other raises :class:`DomainError`."""
    try:
        return [_LETTER_TO_DIGIT[letter] for letter in letters]
    except KeyError as exc:
        raise DomainError(f"unknown Pauli letter {exc.args[0]!r}") from None


@dataclass(frozen=True)
class PauliString:
    """An n-system Pauli operator in symplectic form with exact phase.

    Attributes:
        n: Number of systems the string acts on.
        a: Bit-mask of X exponents (bit ``i`` = system ``i``).
        b: Bit-mask of Z exponents.
        phase: Power of ``i`` multiplying the bare ``X**a Z**b`` tensor,
            reduced mod 4.
    """

    n: int
    a: int
    b: int
    phase: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError("a Pauli string needs at least one system")
        mask = (1 << self.n) - 1
        if self.a & ~mask or self.b & ~mask:
            raise DimensionError("exponent mask exceeds the declared system count")
        object.__setattr__(self, "phase", self.phase & 3)

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 0)

    @classmethod
    def hermitian(cls, n: int, a: int, b: int) -> "PauliString":
        """The canonical Hermitian basis element with exponents (a, b)."""
        return cls(n, a, b, (a & b).bit_count() & 3)

    @classmethod
    def single(cls, n: int, position: int, letter: str) -> "PauliString":
        """A single-system letter embedded at ``position`` (Hermitian)."""
        if not 0 <= position < n:
            raise DimensionError(f"position {position} outside 0..{n - 1}")
        a, b = digit_masks(letter_digits([letter]))
        return cls.hermitian(n, a << position, b << position)

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        """Parse text form: optional phase tag, then letters over IXZY.

        Examples:
            >>> PauliString.from_text("XZY").text()
            '+1 XZY'
            >>> PauliString.from_text("-i XY") == PauliString.from_text("−i XY")
            True
        """
        parts = text.split()
        if len(parts) == 2:
            tag, letters = parts
            try:
                tag_phase = _TAG_TO_PHASE[tag]
            except KeyError:
                raise DomainError(f"unknown phase tag {tag!r}") from None
        elif len(parts) == 1:
            tag_phase, letters = 0, parts[0]
        else:
            raise DomainError(f"cannot parse Pauli text {text!r}")
        digits = letter_digits(letters)
        a, b = digit_masks(digits)
        return cls(len(digits), a, b, tag_phase + (a & b).bit_count())

    # -- structure ----------------------------------------------------

    @property
    def is_identity(self) -> bool:
        return self.a == 0 and self.b == 0

    @property
    def weight(self) -> int:
        """Number of systems on which the string acts non-trivially."""
        return (self.a | self.b).bit_count()

    @property
    def has_full_support(self) -> bool:
        return (self.a | self.b) == (1 << self.n) - 1

    def support(self) -> tuple[int, ...]:
        occupied = self.a | self.b
        return tuple(i for i in range(self.n) if occupied >> i & 1)

    def basis_key(self) -> tuple[int, int]:
        """Exponent masks identifying the Hermitian basis element."""
        return (self.a, self.b)

    @property
    def hermitian_residue(self) -> int:
        """Power of i relative to the canonical Hermitian element (mod 4)."""
        return (self.phase - (self.a & self.b).bit_count()) & 3

    @property
    def is_hermitian(self) -> bool:
        return self.hermitian_residue % 2 == 0

    def hermitian_sign(self) -> int:
        """+1 or -1 relative to the canonical basis element.

        Raises:
            DomainError: if the string is not Hermitian.
        """
        residue = self.hermitian_residue
        if residue % 2:
            raise DomainError(f"{self.text()} is not Hermitian")
        return 1 if residue == 0 else -1

    def canonical(self) -> "PauliString":
        """The Hermitian basis element with this string's exponents."""
        return PauliString.hermitian(self.n, self.a, self.b)

    # -- text ---------------------------------------------------------

    def letters(self) -> str:
        return "".join(
            _LETTERS[(self.a >> i & 1) | (self.b >> i & 1) << 1] for i in range(self.n)
        )

    def text(self) -> str:
        """Round-trip text form, always including the phase tag."""
        return f"{_PHASE_TO_TAG[self.hermitian_residue]} {self.letters()}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PauliString({self.text()!r})"

    # -- algebra ------------------------------------------------------

    def __mul__(self, other: "PauliString") -> "PauliString":
        return pauli_product(self, other)

    def __neg__(self) -> "PauliString":
        return PauliString(self.n, self.a, self.b, self.phase + 2)


def symplectic_form(p: PauliString, q: PauliString) -> int:
    """Symplectic inner product of two strings: 0 = commute, 1 = anti-commute.

    Depends only on the exponent masks, never on phases.

    Raises:
        DimensionError: if the strings act on different system counts.
    """
    if p.n != q.n:
        raise DimensionError(f"system counts differ: {p.n} vs {q.n}")
    return ((p.a & q.b).bit_count() + (p.b & q.a).bit_count()) & 1


def commutes(p: PauliString, q: PauliString) -> bool:
    return symplectic_form(p, q) == 0


def pauli_product(p: PauliString, q: PauliString) -> PauliString:
    """Exact operator product of two strings, phase included.

    Moving every Z exponent of ``p`` past every X exponent of ``q``
    contributes a factor (-1) per crossing, i.e. i**2 per bit of
    ``p.b & q.a``.
    """
    if p.n != q.n:
        raise DimensionError(f"system counts differ: {p.n} vs {q.n}")
    phase = p.phase + q.phase + 2 * (p.b & q.a).bit_count()
    return PauliString(p.n, p.a ^ q.a, p.b ^ q.b, phase)


def product_of(strings: Iterable[PauliString], n: int | None = None) -> PauliString:
    """Left-to-right product of a sequence of strings."""
    result: PauliString | None = None
    for s in strings:
        result = s if result is None else pauli_product(result, s)
    if result is None:
        if n is None:
            raise DomainError("empty product needs an explicit system count")
        return PauliString.identity(n)
    return result


@dataclass(frozen=True)
class AntiCommutingSet:
    """A pairwise anti-commuting collection of Hermitian strings.

    The constructor validates pairwise anti-commutation and the size
    bound: on ``n`` systems no more than ``2n + 1`` operators can
    pairwise anti-commute.
    """

    members: tuple[PauliString, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise DomainError("an anti-commuting set needs at least one member")
        n = self.members[0].n
        for s in self.members:
            if s.n != n:
                raise DimensionError("mixed system counts in anti-commuting set")
            if not s.is_hermitian:
                raise DomainError(f"{s.text()} is not Hermitian")
            if s.is_identity:
                raise DomainError("the identity commutes with everything")
        for s, t in itertools.combinations(self.members, 2):
            if symplectic_form(s, t) == 0:
                raise DomainError(f"{s.text()} and {t.text()} commute")
        if len(self.members) > 2 * n + 1:
            raise DomainError(
                f"{len(self.members)} pairwise anti-commuting operators on "
                f"{n} systems is impossible (bound {2 * n + 1})"
            )

    @property
    def n(self) -> int:
        return self.members[0].n

    def __iter__(self) -> Iterator[PauliString]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


def gamma_set(n: int) -> AntiCommutingSet:
    """The canonical maximal anti-commuting ladder on ``n`` systems.

    Pairs of generators place X or Z at position ``j`` behind a prefix
    of Y letters; the final element is the product of all generators,
    normalized by a scalar from {1, i} so that it is Hermitian and
    squares to the identity (it equals Y on every system, up to sign).

    Examples:
        >>> [g.text() for g in gamma_set(1)]
        ['+1 X', '+1 Z', '+1 Y']
    """
    if n < 1:
        raise DomainError("need at least one system")
    members: list[PauliString] = []
    for j in range(n):
        prefix_a = prefix_b = (1 << j) - 1
        members.append(PauliString.hermitian(n, prefix_a | (1 << j), prefix_b))
        members.append(PauliString.hermitian(n, prefix_a, prefix_b | (1 << j)))
    closure = product_of(members)
    if not closure.is_hermitian:
        closure = PauliString(n, closure.a, closure.b, closure.phase + 1)
    members.append(closure)
    return AntiCommutingSet(tuple(members))


def _basis_keys(n: int) -> list[int]:
    """Packed exponents ``a | b << n`` of the Hermitian basis in
    :func:`hermitian_basis` order, the identity first."""
    return [a | b << n for a, b in map(digit_masks, itertools.product(range(4), repeat=n))]


def hermitian_basis(n: int) -> Iterator[PauliString]:
    """The 4**n - 1 Hermitian basis elements on ``n`` systems other than
    the identity (``PauliString.identity(n)``), lexicographic by letters.

    Ordering follows per-system digits I < X < Z < Y, system 0 most
    significant: the layout of the unrestricted coefficient code, whose
    bit j sits on the j-th string.
    """
    low = (1 << n) - 1
    for k in _basis_keys(n)[1:]:
        yield PauliString.hermitian(n, k & low, k >> n)


def full_support_strings(n: int) -> tuple[PauliString, ...]:
    """The 3**n Hermitian strings with no identity factor, lexicographic."""
    return tuple(
        PauliString.hermitian(n, *digit_masks(digits))
        for digits in itertools.product((1, 2, 3), repeat=n)
    )


@lru_cache(maxsize=MAX_COMMUTING_SYSTEMS)
def lagrangian_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """The maximal commuting collections as rows of packed exponents
    ``a | b << n``, in :func:`maximal_commuting_sets` order.

    The search runs on :func:`hermitian_basis` positions, whose bits
    are b_0 a_0 ... b_(n-1) a_(n-1) from the top: a relabelling of the
    exponent bits, so spans and commutation carry over, and a sorted
    span is in basis order.  Each subspace has one greedy basis
    g_1 < ... < g_n, where g_k is the smallest element outside the span
    of the earlier ones; equivalently every g_k is larger than g_(k-1),
    commutes with the earlier ones and has none of their top bits set.
    A search over exactly those choices reaches each subspace once.
    A row lists its span in basis order, so its greedy basis is the
    members at positions 2**k - 1 (0, 1, 3, 7, ...): every element of
    span(g_1..g_(k-1)) has a lower top bit than g_k, and g_k is the
    smallest element with its own top bit.  Candidates are bitsets over
    the 4**n positions: ``allowed[g]`` holds those larger than g that
    commute with it and lack its top bit, so a step is one AND.  The
    top bits rise along the basis, so a choice with fewer free top bits
    above it than generators still to pick is never tried.

    Raises:
        ResourceError: beyond four systems.
    """
    if n > MAX_COMMUTING_SYSTEMS:
        raise ResourceError(
            f"commuting-set enumeration is limited to n <= {MAX_COMMUTING_SYSTEMS}"
        )
    keys = _basis_keys(n)
    size = len(keys)
    full = (1 << size) - 1
    has = [sum(1 << v for v in range(size) if v >> t & 1) for t in range(2 * n)]
    # v anti-commutes with g iff v holds an odd number of the twins of
    # g's bits, a_i <-> b_i being bits t <-> t ^ 1; each bit of g toggles.
    anti = [0] * size
    for g in range(1, size):
        anti[g] = anti[g & g - 1] ^ has[((g & -g).bit_length() - 1) ^ 1]
    allowed = [full & ~(anti[g] | has[g.bit_length() - 1] | (2 << g) - 1) for g in range(size)]
    rows: list[list[int]] = []
    stack = [([0], full ^ 1, n)]  # (span so far, candidates, generators to pick)
    while stack:
        span, candidates, need = stack.pop()
        todo = candidates & (1 << (1 << 2 * n - need + 1)) - 1  # top bit <= 2n - need
        while todo:
            g = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            grown = span + [s ^ g for s in span]
            if need == 1:
                rows.append(sorted(grown)[1:])
            elif candidates & allowed[g]:
                stack.append((grown, candidates & allowed[g], need - 1))
    # Letters sort as text, I < X < Y < Z, so a digit d ranks d ^ d >> 1.
    odd_digits = sum(1 << 2 * i for i in range(n))
    rank = [p ^ (p >> 1 & odd_digits) for p in range(size)]
    rows.sort(key=lambda row: [rank[p] for p in row])
    return tuple(tuple(map(keys.__getitem__, row)) for row in rows)


@lru_cache(maxsize=MAX_COMMUTING_SYSTEMS)
def maximal_commuting_sets(n: int) -> tuple[tuple[PauliString, ...], ...]:
    """All maximal pairwise commuting collections of non-identity strings.

    Each is closed under products up to sign: the product of two members
    commutes with every member, so maximality forces it back into the
    collection.  A collection is therefore a Lagrangian subspace of the
    symplectic space without its zero; it has 2**n - 1 members, and
    there are prod over k = 1..n of (2**k + 1) collections (Aaronson and
    Gottesman, quant-ph/0406196).

    The subspaces are enumerated once, as rows of packed exponents
    (:func:`lagrangian_rows`), and mapped here onto the shared
    :func:`hermitian_basis` strings.  Members follow
    :func:`hermitian_basis` order and the collections are sorted by
    their letters.

    Raises:
        ResourceError: beyond four systems.
    """
    rows = lagrangian_rows(n)
    strings = {s.a | s.b << n: s for s in hermitian_basis(n)}
    return tuple(tuple(map(strings.__getitem__, row)) for row in rows)
