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
from typing import Iterable, Iterator, Sequence

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
    "maximal_anticommuting_sets",
    "maximal_commuting_sets",
    "enumerate_anticommuting_sets",
]

_LETTER_TO_AB = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_AB_TO_LETTER = {v: k for k, v in _LETTER_TO_AB.items()}
_TAG_TO_PHASE = {"+1": 0, "+i": 1, "-1": 2, "-i": 3, "−1": 2, "−i": 3}
_PHASE_TO_TAG = {0: "+1", 1: "+i", 2: "-1", 3: "-i"}

# Enumerating every maximal anti-commuting set over all 4**n - 1 strings
# is gated here; maximal commuting sets are enumerated up to one system
# further.
MAX_ENUMERATION_SYSTEMS = 3
MAX_COMMUTING_SYSTEMS = 4


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
        try:
            a_bit, b_bit = _LETTER_TO_AB[letter]
        except KeyError:
            raise DomainError(f"unknown Pauli letter {letter!r}") from None
        return cls.hermitian(n, a_bit << position, b_bit << position)

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
        a = b = 0
        for i, letter in enumerate(letters):
            try:
                a_bit, b_bit = _LETTER_TO_AB[letter]
            except KeyError:
                raise DomainError(f"unknown Pauli letter {letter!r}") from None
            a |= a_bit << i
            b |= b_bit << i
        n = len(letters)
        if n == 0:
            raise DomainError("empty Pauli text")
        return cls(n, a, b, tag_phase + (a & b).bit_count())

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
            _AB_TO_LETTER[(self.a >> i & 1, self.b >> i & 1)] for i in range(self.n)
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


def hermitian_basis(n: int, include_identity: bool = False) -> Iterator[PauliString]:
    """All Hermitian basis elements on ``n`` systems, lexicographic by letters.

    Ordering follows per-system digits I < X < Z < Y, system 0 most
    significant, which matches the index maps used by the encoders.
    """
    for digits in itertools.product(range(4), repeat=n):
        if not include_identity and all(d == 0 for d in digits):
            continue
        a = b = 0
        for i, d in enumerate(digits):
            a_bit, b_bit = _DIGIT_TO_AB[d]
            a |= a_bit << i
            b |= b_bit << i
        yield PauliString.hermitian(n, a, b)


_DIGIT_TO_AB = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)}


def full_support_strings(n: int) -> tuple[PauliString, ...]:
    """The 3**n Hermitian strings with no identity factor, lexicographic."""
    out = []
    for digits in itertools.product((1, 2, 3), repeat=n):
        a = b = 0
        for i, d in enumerate(digits):
            a_bit, b_bit = _DIGIT_TO_AB[d]
            a |= a_bit << i
            b |= b_bit << i
        out.append(PauliString.hermitian(n, a, b))
    return tuple(out)


def _relation_masks(strings: Sequence[PauliString], form: int) -> list[int]:
    masks = [0] * len(strings)
    for i, s in enumerate(strings):
        for j in range(i + 1, len(strings)):
            if symplectic_form(s, strings[j]) == form:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return masks


def _bron_kerbosch(adj: list[int], r: int, p: int, x: int, out: list[int]) -> None:
    if p == 0 and x == 0:
        out.append(r)
        return
    pool = p | x
    pivot = max(
        (v for v in range(pool.bit_length()) if pool >> v & 1),
        key=lambda v: (p & adj[v]).bit_count(),
    )
    candidates = p & ~adj[pivot]
    while candidates:
        v = (candidates & -candidates).bit_length() - 1
        bit = 1 << v
        _bron_kerbosch(adj, r | bit, p & adj[v], x & adj[v], out)
        candidates &= ~bit
        p &= ~bit
        x |= bit


def _maximal_cliques(
    strings: tuple[PauliString, ...], form: int
) -> list[tuple[PauliString, ...]]:
    """Every maximal subset of ``strings`` whose pairs all have symplectic
    form ``form`` (0 = commuting, 1 = anti-commuting), sorted by letters."""
    cliques: list[int] = []
    _bron_kerbosch(_relation_masks(strings, form), 0, (1 << len(strings)) - 1, 0, cliques)
    out = [
        tuple(strings[i] for i in range(len(strings)) if mask >> i & 1)
        for mask in cliques
    ]
    out.sort(key=lambda c: tuple(s.letters() for s in c))
    return out


def maximal_anticommuting_sets(
    strings: Sequence[PauliString],
) -> tuple[AntiCommutingSet, ...]:
    """Every maximal pairwise anti-commuting subset of ``strings``.

    Maximality is relative to the supplied alphabet: no further member
    of ``strings`` can be added.
    """
    return tuple(AntiCommutingSet(c) for c in _maximal_cliques(tuple(strings), 1))


@lru_cache(maxsize=MAX_COMMUTING_SYSTEMS)
def maximal_commuting_sets(n: int) -> tuple[tuple[PauliString, ...], ...]:
    """All maximal pairwise commuting collections of non-identity strings.

    Each is closed under products up to sign: the product of two members
    commutes with every member, so maximality forces it back into the
    collection.  A collection is therefore a Lagrangian subspace of the
    symplectic space without its zero; it has 2**n - 1 members, and
    there are prod over k = 1..n of (2**k + 1) collections (Aaronson and
    Gottesman, quant-ph/0406196).

    The subspaces are generated directly, on packed exponents
    ``a | b << n``.  Each has one greedy basis g_1 < ... < g_n, where
    g_k is the smallest element outside the span of the earlier ones;
    equivalently every g_k is larger than g_(k-1), commutes with the
    earlier ones and has none of their top bits set.  A depth-first
    search over exactly those choices reaches each subspace once.
    Members follow :func:`hermitian_basis` order and the collections
    are sorted by their letters.

    Raises:
        ResourceError: beyond four systems.
    """
    if n > MAX_COMMUTING_SYSTEMS:
        raise ResourceError(
            f"commuting-set enumeration is limited to n <= {MAX_COMMUTING_SYSTEMS}"
        )
    basis = tuple(hermitian_basis(n, include_identity=True))
    position = [0] * len(basis)
    for i, s in enumerate(basis):
        position[s.a | s.b << n] = i
    low = (1 << n) - 1
    spans: list[list[int]] = []

    def search(span: list[int], candidates: list[int], depth: int) -> None:
        if depth == n:
            spans.append(span)
            return
        for i, g in enumerate(candidates):
            if len(candidates) - i < n - depth:  # too few left for a basis
                return
            twin = g >> n | (g & low) << n  # v commutes with g iff v & twin is even
            top = 1 << g.bit_length() - 1
            rest = [
                v
                for v in candidates[i + 1 :]
                if not v & top and not (v & twin).bit_count() & 1
            ]
            search(span + [s ^ g for s in span], rest, depth + 1)

    search([0], list(range(1, len(basis))), 0)
    sets = [sorted(map(position.__getitem__, span))[1:] for span in spans]
    letters = [s.letters() for s in basis]
    sets.sort(key=lambda members: [letters[i] for i in members])
    return tuple(tuple(basis[i] for i in members) for members in sets)


def enumerate_anticommuting_sets(n: int) -> tuple[AntiCommutingSet, ...]:
    """All maximal anti-commuting sets over every non-identity string.

    Raises:
        ResourceError: for n > 3.
    """
    if n > MAX_ENUMERATION_SYSTEMS:
        raise ResourceError(
            f"exhaustive enumeration is limited to n <= {MAX_ENUMERATION_SYSTEMS}"
        )
    return maximal_anticommuting_sets(tuple(hermitian_basis(n)))

