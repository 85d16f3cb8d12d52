"""Diagonals of the polygon with points 0..b, and admissibility tests.

Boundary points of the (b+1)-gon are labeled clockwise 0, 1, ..., b.  A
diagonal ``i-j`` (i < j) joins two non-adjacent points; the pairs (i, i+1)
and (0, b) are sides, not diagonals.  For a coprime pair a < b, a diagonal
is admissible when the two boundary arcs it separates both have point
counts in the remainder set S(a, b) = {floor(i*b/a) : 1 <= i <= a-1}.

``admissible_by_ends`` is the one lookup of an admissible diagonal by its
ends, built once per pair, giving its index in ``all_admissible_diagonals``:
the laser facets, the obstruction-graph completions and the certificate
reader all go through it.

All predicates here are exact integer computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import BadOrderError, NotAFaceOfHatError, NotCoprimeError


def check_slope_pair(a: int, b: int) -> None:
    """Validate 0 < a < b and gcd(a, b) == 1, raising otherwise."""
    if not (isinstance(a, int) and isinstance(b, int)):
        raise BadOrderError(f"slope pair must be integers, got ({a!r}, {b!r})")
    if not 0 < a < b:
        raise BadOrderError(f"need 0 < a < b, got ({a}, {b})")
    if gcd(a, b) != 1:
        raise NotCoprimeError(f"({a}, {b}) is not a coprime pair")


@dataclass(frozen=True)
class Diagonal:
    """Chord ``i-j`` of the polygon with boundary points 0..b.

    Equality and hashing include the ambient ``b`` so diagonals of
    different polygons never compare equal.
    """

    i: int
    j: int
    b: int

    def __post_init__(self):
        if not 0 <= self.i < self.j <= self.b:
            raise ValueError(f"need 0 <= i < j <= b, got ({self.i}, {self.j}) with b={self.b}")
        if self.j - self.i < 2 or (self.i, self.j) == (0, self.b):
            raise ValueError(f"({self.i}, {self.j}) is a side of the (b+1)-gon with b={self.b}")

    def key(self) -> tuple[int, int]:
        """Canonical sort key (j, i); this is the order used everywhere."""
        return (self.j, self.i)

    def text(self) -> str:
        return f"{self.i}-{self.j}"

    def __str__(self) -> str:
        return self.text()

    @classmethod
    def parse(cls, text: str, b: int) -> "Diagonal":
        """Parse the text form ``"i-j"``; any other text raises ValueError
        naming it."""
        left, _, right = text.partition("-")
        try:
            i, j = int(left), int(right)
        except ValueError:
            message = f"malformed diagonal {text!r}: expected i-j with integers i and j"
            raise ValueError(message) from None
        return cls(i, j, b)


@lru_cache(maxsize=None)
def remainder_set(a: int, b: int) -> frozenset[int]:
    """Return S(a, b) = {floor(i*b/a) : i = 1..a-1}, the admissible arc sizes.

    Coprimality makes the a-1 floor values pairwise distinct.
    """
    check_slope_pair(a, b)
    members = frozenset(i * b // a for i in range(1, a))
    if len(members) != a - 1:
        raise NotCoprimeError(f"S({a},{b}) collapsed; pair cannot be coprime")
    return members


def is_admissible(d: Diagonal, a: int, b: int) -> bool:
    """True when both boundary arcs cut off by ``d`` have sizes in S(a, b)."""
    if d.b != b:
        raise ValueError(f"diagonal {d} lives on b={d.b}, not b={b}")
    s = remainder_set(a, b)
    inner = d.j - d.i - 1
    outer = b - 1 - inner
    return inner in s and outer in s


def all_diagonals(b: int) -> tuple[Diagonal, ...]:
    """Every diagonal of the (b+1)-gon, ordered by (j, i)."""
    out = []
    for j in range(2, b + 1):
        for i in range(0, j - 1):
            if (i, j) != (0, b):
                out.append(Diagonal(i, j, b))
    return tuple(out)


@lru_cache(maxsize=None)
def all_admissible_diagonals(a: int, b: int) -> tuple[Diagonal, ...]:
    """Every admissible diagonal exactly once, ordered by (j, i)."""
    check_slope_pair(a, b)
    return tuple(d for d in all_diagonals(b) if is_admissible(d, a, b))


@lru_cache(maxsize=None)
def admissible_by_ends(a: int, b: int) -> dict[tuple[int, int], int]:
    """The index in ``all_admissible_diagonals`` of each admissible diagonal
    i-j, keyed by its ends (i, j); a pair of ends that is missing is no
    admissible diagonal, or no diagonal at all."""
    return {(d.i, d.j): p for p, d in enumerate(all_admissible_diagonals(a, b))}


@lru_cache(maxsize=None)
def admissible_compatibility(a: int, b: int) -> tuple[int, ...]:
    """``compatibility_masks`` of ``all_admissible_diagonals``, built once per
    pair: the laser facets' crossing check and the noncrossing model both
    read it."""
    return tuple(compatibility_masks(all_admissible_diagonals(a, b)))


def crosses(d: Diagonal, e: Diagonal) -> bool:
    """True when the two diagonals cross in the open interior.

    Crossing means strictly interleaved endpoints: i < k < j < m or
    k < i < m < j.  Diagonals sharing an endpoint never cross.
    """
    if d.b != e.b:
        raise ValueError(f"cannot compare diagonals of different polygons: {d}, {e}")
    return (d.i < e.i < d.j < e.j) or (e.i < d.i < e.j < d.j)


def compatibility_masks(ground: tuple[Diagonal, ...]) -> list[int]:
    """For each ground index, the bitmask of noncrossing partners."""
    n = len(ground)
    compat = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if not crosses(ground[u], ground[v]):
                compat[u] |= 1 << v
                compat[v] |= 1 << u
    return compat


def check_hat_face(face: frozenset[Diagonal], a: int, b: int) -> None:
    """Raise NotAFaceOfHatError unless ``face`` is a noncrossing set of
    (a, b)-admissible diagonals, a face of the noncrossing model."""
    for d in face:
        if d.b != b:
            raise NotAFaceOfHatError(f"diagonal {d} lives on b={d.b}, not b={b}")
        if not is_admissible(d, a, b):
            raise NotAFaceOfHatError(f"diagonal {d} is not ({a},{b})-admissible")
    members = sorted(face, key=lambda d: d.key())
    for m in range(len(members)):
        for n in range(m + 1, len(members)):
            if crosses(members[m], members[n]):
                raise NotAFaceOfHatError(f"diagonals {members[m]} and {members[n]} cross")
