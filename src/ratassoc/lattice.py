"""Rational Dyck paths, valleys, and laser geometry.

An (a, b)-Dyck path runs from (0, 0) to (b, a) in north and east steps and
stays weakly above the line y = (a/b) x.  Because gcd(a, b) = 1 the path
touches the line only at its endpoints.  Besides its step word a path is
held as its north-step sequence ``xs``: ``xs[y]`` is the x-coordinate of
the north step from height y to y+1, and ``xs[a] = b``.  Row y of the path
is then the east run from ``xs[y-1]`` to ``xs[y]`` at height y.

A laser is fired from the bottom point of a north step (other than the
origin) with slope a/b toward the northeast; it stops at the first point
of the path it meets, which coprimality forces into the open interior of
an east step.  If the source has x-coordinate i and the east step's right
endpoint has x-coordinate k, the laser contributes the diagonal i-k of the
polygon with points 0..b.

Give row y the key a xs[y] - b y.  The laser from row y0 is caught by the
first row y above it with a larger key, and it then ends at
k = xs[y0] + (y - y0) b // a + 1.  That one inequality is read in two
orders.  ``_row_step`` reads it bottom-up, for paths grown from the
origin: each placed row catches the pending sources below it with smaller
keys.  ``enumerate_dyck_paths`` takes that step once per prefix of its
lex-order walk, and ``DyckPath`` once per row of a path built from a word.
``_laser_hit`` reads it top-down, for paths grown from (b, a), whose top
rows are known first: membership's valley-path search, and
``laser_diagonal``.

Each fired laser i-k is read as a ground index from the pair's table of
admissible diagonals by their ends, ``polygon.admissible_by_ends``, and
checked against the facet's mask so far with the pair's compatibility
rows, ``polygon.admissible_compatibility``; ``facet_of`` decodes the mask.
Only a failed check builds the diagonals afresh, to name the witness.

Every slope comparison is done by integer cross multiplication.  No
floating point enters any predicate in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, NoReturn, Sequence

from .errors import InvalidSourceError, InvariantViolationError
from .polygon import Diagonal, admissible_by_ends, admissible_compatibility, all_admissible_diagonals
from .polygon import check_slope_pair, crosses, is_admissible


class LatticePoint(NamedTuple):
    x: int
    y: int


@dataclass(frozen=True)
class DyckPath:
    """An (a, b)-Dyck path stored as a step word over {N, E}, with two fields
    derived from the word: its north-step sequence ``xs`` and its facet, the
    ground mask of its laser diagonals over ``all_admissible_diagonals``.

    The constructor checks the word and fires the lasers row by row, with
    every facet check; ``enumerate_dyck_paths`` hands each path the facet
    its walk fired along the shared prefixes.
    """

    a: int
    b: int
    word: str
    xs: tuple[int, ...] = field(init=False, repr=False, compare=False)
    facet: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a, b, w = self.a, self.b, self.word
        check_slope_pair(a, b)
        if len(w) != a + b or w.count("N") != a or w.count("E") != b:
            raise ValueError(f"word {w!r} is not an (N^{a}, E^{b}) shuffle")
        xs = []
        east = 0
        for step in w:
            if step == "N":
                xs.append(east)
            elif step == "E":
                east += 1
                if len(xs) * b < east * a:
                    raise ValueError(f"word {w!r} dips below the line y = {a}/{b} x")
            else:
                raise ValueError(f"bad step {step!r} in {w!r}")
        xs.append(east)
        xs = tuple(xs)
        table, compat = admissible_by_ends(a, b), admissible_compatibility(a, b)
        pending, mask = (), 0
        for y in range(1, a + 1):
            pending, fired = _row_step(xs, y, pending, a, b)
            mask = _fire(mask, fired, table, compat)
        if mask < 0 or pending:
            _raise_facet_failure(a, b, w, xs)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "facet", mask)

    @classmethod
    def _trusted(cls, a: int, b: int, word: str, xs: tuple[int, ...], facet: int) -> "DyckPath":
        """Internal constructor for a word known to be a Dyck path, its ``xs``
        and its checked facet mask."""
        self = object.__new__(cls)
        vars(self).update(a=a, b=b, word=word, xs=xs, facet=facet)
        return self

    def __str__(self) -> str:
        return self.word


def enumerate_dyck_paths(a: int, b: int) -> list[DyckPath]:
    """All (a, b)-Dyck paths in lexicographic word order with N < E, each
    with its facet.

    A depth-first walk places rows 0..a in turn, row y at each column from
    the previous row's up to the line, lowest first, which is the lex order.
    Each prefix applies its last row's step once, so a laser is fired once
    for all the paths that share the prefix where it is caught.  A failed
    check marks the prefix's mask, and the first path that completes it,
    the first failing path in lex order, raises the check's error.
    """
    check_slope_pair(a, b)
    table, compat = admissible_by_ends(a, b), admissible_compatibility(a, b)
    # an explicit stack, not a recursive closure: a closure that calls
    # itself is a reference cycle, which would keep every path alive
    # until the cyclic garbage collector runs; a node is a prefix through
    # row len(xs) - 1, whose step is taken when the node is popped
    out: list[DyckPath] = []
    stack = [("N", (0,), (), 0)]
    while stack:
        word, xs, pending, mask = stack.pop()
        y = len(xs) - 1
        pending, fired = _row_step(xs, y, pending, a, b)
        if fired:
            mask = _fire(mask, fired, table, compat)
        if y == a:
            if mask < 0 or pending:
                _raise_facet_failure(a, b, word, xs)
            out.append(DyckPath._trusted(a, b, word, xs, mask))
        elif y == a - 1:
            stack.append((word + "E" * (b - xs[y]), xs + (b,), pending, mask))
        else:
            # pushed highest first, so that the lowest column comes out first
            for x in range((y + 1) * b // a, xs[y] - 1, -1):
                stack.append((word + "E" * (x - xs[y]) + "N", xs + (x,), pending, mask))
    return out


def valleys(path: DyckPath) -> list[LatticePoint]:
    """EN corners of the path, west to east."""
    xs = path.xs
    return [LatticePoint(xs[y], y) for y in range(1, path.a) if xs[y] > xs[y - 1]]


def _laser_hit(xs: Sequence[int], a: int, b: int, y0: int) -> int:
    """Right endpoint x of the east step hit by the laser from (xs[y0], y0).

    Only ``xs[y0:]`` is read, so a path grown downward from (b, a) can fire
    as soon as its row y0 is placed.  At height y the ray is at
    x = xs[y0] + (y - y0) b/a, which coprimality keeps off the integers for
    0 < y - y0 < a.  Row y's east run ends at xs[y], so the ray meets the
    path in the first row y > y0 with a (xs[y] - xs[y0]) > (y - y0) b, inside
    the unit step ending at floor of the ray's x plus one.  Below that row
    the ray stays strictly east of the path, so it meets no north step
    first.  A source strictly above the line is hit by row a at the latest.
    """
    x0 = xs[y0]
    for y in range(y0 + 1, a + 1):
        if a * (xs[y] - x0) > (y - y0) * b:
            return x0 + (y - y0) * b // a + 1
    raise InvariantViolationError(f"laser from ({x0},{y0}) escaped the path")


def laser_diagonal(path: DyckPath, source: LatticePoint) -> Diagonal:
    """The admissible diagonal i-k carved out by the laser from ``source``,
    which must be the bottom of a north step of the path and not the
    origin.  Exact integer arithmetic throughout."""
    x, y = source
    if (x, y) == (0, 0):
        raise InvalidSourceError("lasers cannot be fired from the origin")
    if not (0 <= y < path.a and path.xs[y] == x):
        raise InvalidSourceError(
            f"{LatticePoint(x, y)} is not the bottom of a north step of {path.word}"
        )
    k = _laser_hit(path.xs, path.a, path.b, y)
    p = admissible_by_ends(path.a, path.b).get((x, k))
    if p is None:  # a side of the polygon raises ValueError here
        d = Diagonal(x, k, path.b)
        raise InvariantViolationError(f"laser diagonal {d} of {path.word} is not admissible")
    return all_admissible_diagonals(path.a, path.b)[p]


def _row_step(xs: Sequence[int], y: int, pending: tuple, a: int, b: int) -> tuple[tuple, list]:
    """Place row y at x = xs[y]: the rows pending below it that it catches
    fire, and row y itself becomes pending when it is a source (0 < y < a).

    Row y's key is a x - b y.  The pending sources are held as (key, x0, y0),
    keys falling toward the top, so the ones caught are those on top with a
    smaller key than row y's.  A caught source fires the diagonal x0-k with
    k = x0 + (y - y0) b // a + 1: the inequality of ``_laser_hit``, read
    from the hitting row down instead of from the source up.  Returns the
    new pending tuple and the fired lasers as (x0, y0, k).
    """
    x = xs[y]
    key = a * x - b * y
    n, fired = len(pending), []
    while n and pending[n - 1][0] < key:
        n -= 1
        _, x0, y0 = pending[n]
        fired.append((x0, y0, x0 + (y - y0) * b // a + 1))
    if fired:
        pending = pending[:n]
    if 0 < y < a:
        pending += ((key, x, y),)
    return pending, fired


def _fire(mask: int, fired: list, table: dict, compat: Sequence[int]) -> int:
    """OR the ground bits of the fired lasers into the facet mask ``mask``,
    checking each: a laser missing from ``table`` (``admissible_by_ends``)
    is off the admissible set, a bit already set is a repeat, and a set bit
    outside the laser's compatibility row is a crossing.  A failed check
    returns -1, which every later call returns unchanged."""
    for x0, _, k in fired:
        p = table.get((x0, k))
        if p is None or mask >> p & 1 or mask & ~compat[p]:
            return -1
        mask |= 1 << p
    return mask


def facet_of(path: DyckPath) -> frozenset[Diagonal]:
    """The facet of the path as a set of diagonals: ``path.facet``, decoded."""
    mask, ground = path.facet, all_admissible_diagonals(path.a, path.b)
    return frozenset(d for p, d in enumerate(ground) if mask >> p & 1)


def _raise_facet_failure(a: int, b: int, word: str, xs: tuple[int, ...]) -> NoReturn:
    """Raise the first failed facet check of the path on fresh diagonals,
    fired row by row by ``_row_step`` and listed by source row."""
    pending, fired = (), []
    for y in range(1, a + 1):
        pending, caught = _row_step(xs, y, pending, a, b)
        fired += caught
    if pending:
        _, x0, y0 = pending[0]
        raise InvariantViolationError(f"laser from ({x0},{y0}) escaped the path")
    diag = [Diagonal(x0, k, b) for x0, _, k in sorted(fired, key=lambda f: f[1])]
    face = frozenset(diag)
    if len(face) != a - 1:
        raise InvariantViolationError(f"facet of {word} has {len(face)} diagonals, not a-1")
    for d in diag:
        if not is_admissible(d, a, b):
            raise InvariantViolationError(f"laser diagonal {d} of {word} is not admissible")
    for m in range(len(diag)):
        for n in range(m + 1, len(diag)):
            if crosses(diag[m], diag[n]):
                raise InvariantViolationError(
                    f"facet of {word} contains crossing diagonals {diag[m]}, {diag[n]}"
                )
    raise InvariantViolationError(f"facet of {word} fails a mask check its diagonals pass")
