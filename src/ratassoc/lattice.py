"""Rational Dyck paths, partitions, valleys, and laser geometry.

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

One laser loop, ``facet_mask``, reads each laser's diagonal i-k as a
ground index from the pair's table of admissible diagonals by their ends,
``polygon.admissible_by_ends``, checks the facet with two masks of polygon
points (see there) and ORs the index's bit into the facet's mask;
``facet_of`` decodes that mask.  Only a failed check builds the diagonals
afresh, to name the witness.

Every slope comparison is done by integer cross multiplication.  No
floating point enters any predicate in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, NoReturn, Sequence

from .errors import InvalidSourceError, InvariantViolationError
from .polygon import Diagonal, admissible_by_ends, all_admissible_diagonals, check_slope_pair
from .polygon import crosses, is_admissible


class LatticePoint(NamedTuple):
    x: int
    y: int


class LaserHit(NamedTuple):
    """Laser outcome: the source point and the hit step's right endpoint x."""

    source: LatticePoint
    hit_step_right_x: int


@dataclass(frozen=True)
class DyckPath:
    """An (a, b)-Dyck path stored as a step word over {N, E}, with its
    north-step sequence ``xs`` derived from the word."""

    a: int
    b: int
    word: str
    xs: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_slope_pair(self.a, self.b)
        w = self.word
        if len(w) != self.a + self.b or w.count("N") != self.a or w.count("E") != self.b:
            raise ValueError(f"word {w!r} is not an (N^{self.a}, E^{self.b}) shuffle")
        xs = []
        east = 0
        for step in w:
            if step == "N":
                xs.append(east)
            elif step == "E":
                east += 1
                if len(xs) * self.b < east * self.a:
                    raise ValueError(f"word {w!r} dips below the line y = {self.a}/{self.b} x")
            else:
                raise ValueError(f"bad step {step!r} in {w!r}")
        xs.append(east)
        object.__setattr__(self, "xs", tuple(xs))

    @classmethod
    def _trusted(cls, a: int, b: int, word: str, xs: tuple[int, ...]) -> "DyckPath":
        """Internal constructor for a word known to be a Dyck path, and its ``xs``."""
        self = object.__new__(cls)
        vars(self).update(a=a, b=b, word=word, xs=xs)
        return self

    def __str__(self) -> str:
        return self.word

    @classmethod
    def from_runs(cls, a: int, b: int, runs: Sequence[Sequence]) -> "DyckPath":
        """Build from run-length form [["N", 2], ["E", 1], ...]."""
        return cls(a, b, "".join(step * int(n) for step, n in runs))

    def runs(self) -> list[tuple[str, int]]:
        """Run-length encoding of the step word."""
        out: list[tuple[str, int]] = []
        for step in self.word:
            if out and out[-1][0] == step:
                out[-1] = (step, out[-1][1] + 1)
            else:
                out.append((step, 1))
        return out

    def points(self) -> list[LatticePoint]:
        """All a+b+1 lattice points of the path in order."""
        pts = [LatticePoint(0, 0)]
        x = y = 0
        for step in self.word:
            if step == "N":
                y += 1
            else:
                x += 1
            pts.append(LatticePoint(x, y))
        return pts

    def north_step_bottoms(self) -> list[LatticePoint]:
        """Bottom points of all north steps, in path order (origin included)."""
        return [LatticePoint(x, y) for y, x in enumerate(self.xs[:-1])]

    def vertical_run_xs(self) -> list[int]:
        """x-coordinates holding a vertical run, in increasing order."""
        return sorted(set(self.xs[:-1]))


def enumerate_dyck_paths(a: int, b: int) -> list[DyckPath]:
    """All (a, b)-Dyck paths in lexicographic word order with N < E."""
    check_slope_pair(a, b)
    # an explicit stack, not a recursive closure: a closure that calls
    # itself is a reference cycle, which would keep every path alive
    # until the cyclic garbage collector runs; each prefix carries its xs,
    # which gives its north count and then the path's xs unparsed
    out: list[DyckPath] = []
    stack = [("", (), 0)]
    while stack:
        word, xs, east = stack.pop()
        north = len(xs)
        if north == a and east == b:
            out.append(DyckPath._trusted(a, b, word, xs + (b,)))
            continue
        # E is pushed first so that the N branch comes out first
        if east < b and north * b >= (east + 1) * a:
            stack.append((word + "E", xs, east + 1))
        if north < a:
            stack.append((word + "N", xs + (east,), east))
    return out


def partition_of(path: DyckPath) -> tuple[int, ...]:
    """Row lengths of the cells northwest of the path, top row first.

    Row i of the result is the x-coordinate of the i-th north step counted
    from the top, so the tuple is weakly decreasing and fits under the
    staircase cut out by the line.
    """
    return tuple(reversed(path.xs[:-1]))


def young_contains(inner: Sequence[int], outer: Sequence[int]) -> bool:
    """Containment of partitions: inner[i] <= outer[i] for all rows."""
    n = max(len(inner), len(outer))
    get = lambda p, i: p[i] if i < len(p) else 0
    return all(get(inner, i) <= get(outer, i) for i in range(n))


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


def fire_laser(path: DyckPath, source: LatticePoint) -> LaserHit:
    """Fire the slope-a/b laser from a north-step bottom of the path.

    The source must be the bottom of a north step and not the origin.
    Exact integer arithmetic throughout.
    """
    source = LatticePoint(*source)
    if source == (0, 0):
        raise InvalidSourceError("lasers cannot be fired from the origin")
    if not (0 <= source.y < path.a and path.xs[source.y] == source.x):
        raise InvalidSourceError(f"{source} is not the bottom of a north step of {path.word}")
    return LaserHit(source, _laser_hit(path.xs, path.a, path.b, source.y))


def laser_diagonal(path: DyckPath, source: LatticePoint) -> Diagonal:
    """The admissible diagonal i-k carved out by the laser from ``source``."""
    hit = fire_laser(path, source)
    p = admissible_by_ends(path.a, path.b).get((hit.source.x, hit.hit_step_right_x))
    if p is None:  # a side of the polygon raises ValueError here
        d = Diagonal(hit.source.x, hit.hit_step_right_x, path.b)
        raise InvariantViolationError(f"laser diagonal {d} of {path.word} is not admissible")
    return all_admissible_diagonals(path.a, path.b)[p]


def facet_mask(path: DyckPath) -> int:
    """Laser diagonals from every non-origin north-step bottom of the path,
    as a mask over ``all_admissible_diagonals``.

    The facet has exactly a-1 pairwise noncrossing admissible diagonals.
    Lasers fire from rows 1..a-1 in turn, so their start columns never
    decrease, and two diagonals from one column never cross.  Each laser i-k
    is therefore checked against two masks of polygon points: a miss in the
    table of admissible diagonals is a laser off the admissible set, k among
    the ends already fired from column i is a repeat, and an end of a
    diagonal from a column left of i strictly between i and k is a crossing.
    Only a failure builds the diagonals anew, to name the witness.
    """
    a, b, xs = path.a, path.b, path.xs
    table = admissible_by_ends(a, b)
    mask, column, left_ends, ends = 0, 0, 0, 0
    for y in range(1, a):
        i = xs[y]
        k = _laser_hit(xs, a, b, y)
        if i != column:
            column, left_ends, ends = i, left_ends | ends, 0
        p = table.get((i, k))
        if p is None or ends >> k & 1 or left_ends & (1 << k) - (2 << i):
            _raise_facet_failure(path)
        ends |= 1 << k
        mask |= 1 << p
    return mask


def facet_of(path: DyckPath) -> frozenset[Diagonal]:
    """The facet of the path as a set of diagonals: ``facet_mask``, decoded."""
    mask, ground = facet_mask(path), all_admissible_diagonals(path.a, path.b)
    return frozenset(d for p, d in enumerate(ground) if mask >> p & 1)


def _raise_facet_failure(path: DyckPath) -> NoReturn:
    """Raise the first failed check of ``facet_mask`` on fresh diagonals."""
    a, b, xs = path.a, path.b, path.xs
    diag = [Diagonal(xs[y], _laser_hit(xs, a, b, y), b) for y in range(1, a)]
    face = frozenset(diag)
    if len(face) != a - 1:
        raise InvariantViolationError(f"facet of {path.word} has {len(face)} diagonals, not a-1")
    for d in diag:
        if not is_admissible(d, a, b):
            raise InvariantViolationError(f"laser diagonal {d} of {path.word} is not admissible")
    for m in range(len(diag)):
        for n in range(m + 1, len(diag)):
            if crosses(diag[m], diag[n]):
                raise InvariantViolationError(
                    f"facet of {path.word} contains crossing diagonals {diag[m]}, {diag[n]}"
                )
    raise InvariantViolationError(f"facet of {path.word} fails a mask check its diagonals pass")
