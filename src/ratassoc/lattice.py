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
keys.  What a row catches depends only on its row and column and on the
sources pending below it, so ``enumerate_dyck_paths`` takes that step once
per move of a walk memoised on that row state, and lists facet masks and
their skeleton, not paths; ``DyckPath`` takes it once per row of a path
built from a word.  ``_laser_hit`` reads it top-down, for paths grown from
(b, a), whose top rows are known first: membership's valley-path search,
which hands the ends it fired to ``_path_with_lasers``, and
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
from typing import Iterable, NamedTuple, NoReturn, Sequence

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
    every facet check; membership's valley paths get the facet their search
    fired, through ``_path_with_lasers``.
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
            pending, fired = _row_step(xs[y], y, pending, a, b)
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


class DyckFacets(list):
    """The facet masks of the (a, b)-Dyck paths, one per path in lex word
    order, with the 1-skeleton they span: ``adj[p]`` is the mask of the
    ground diagonals that share a facet with diagonal p, and ``vertices``
    is the union of the facets."""

    __slots__ = ("adj", "vertices")

    def __init__(self, masks: Iterable[int], adj: list[int], vertices: int):
        super().__init__(masks)
        self.adj, self.vertices = adj, vertices


def enumerate_dyck_paths(a: int, b: int) -> DyckFacets:
    """The facet masks of all (a, b)-Dyck paths in lexicographic word order
    with N < E, and their skeleton.

    The lasers fired above row y depend only on the row state (y, xs[y],
    the sources pending after row y), so one walk memoises each state's
    suffixes: the masks of the lasers fired in rows y+1..a along each way
    on to (b, a), in lex order, and their union.  A state moves to row y+1
    at each column from xs[y] up to the line, lowest first (``_moves``);
    the suffixes through a move that fires the lasers m are m | s for the
    suffixes s of the state it reaches, and the skeleton row of each laser
    p in m gains the rest of m and that state's union, once per move.
    Every check of the row step is made once per move: a table miss, a
    repeat or a crossing among the lasers of m (``_fire``), and a laser of
    m that one of the suffixes repeats or crosses, read off their union.
    A source still pending after row a escapes.  A failed check marks the
    suffixes it spoils with -1, and the first marked path in lex order
    raises the check's error.
    """
    check_slope_pair(a, b)
    table, compat = admissible_by_ends(a, b), admissible_compatibility(a, b)
    adj = [0] * len(compat)
    # state -> (its suffixes, their union); -1 marks a failed suffix, and a
    # union with one is -1 too
    memo: dict[tuple, tuple[list[int], int]] = {}
    root = (0, 0, ())
    # an explicit stack, not a recursive closure, which would be a
    # reference cycle; a state is entered with its moves unknown, then
    # revisited with them once every state they reach is memoised
    stack: list = [(root, None)]
    while stack:
        state, moves = stack.pop()
        if moves is None:
            if state in memo:
                continue
            if state[0] == a:
                memo[state] = ([-1], -1) if state[2] else ([0], 0)
                continue
            moves = _moves(state, a, b, table, compat)
            stack.append((state, moves))
            stack += [(child, None) for _, _, child in moves if child not in memo]
            continue
        masks, union = [], 0
        for _, m, child in moves:
            below, reach = memo[child]
            if not m:
                masks += below
                union |= reach
                continue
            # the skeleton rows are written before the check, and read only
            # if no check fails
            clash, rest = m, m
            while rest > 0:
                bit = rest & -rest
                rest ^= bit
                p = bit.bit_length() - 1
                clash |= ~compat[p]
                adj[p] |= reach | m ^ bit
            if m > 0 and not reach & clash:
                masks += [m | s for s in below]
                union |= m | reach
            else:  # a failed s = -1 meets the bits of m in clash; a failed m
                # = -1 makes clash and every m | s -1
                masks += [-1 if s & clash else m | s for s in below]
                union = -1
        memo[state] = (masks, union)
    masks, union = memo[root]
    if union < 0:
        # descend to the first failed path, counting suffixes move by move
        index, state, xs = masks.index(-1), root, [0]
        while state[0] < a:
            for x, _, child in _moves(state, a, b, table, compat):
                if index < len(memo[child][0]):
                    break
                index -= len(memo[child][0])
            state = child
            xs.append(x)
        _raise_facet_failure(a, b, _word_of(xs), tuple(xs))
    for p, row in enumerate(adj):
        bit = 1 << p
        while row:
            low = row & -row
            row ^= low
            adj[low.bit_length() - 1] |= bit
    return DyckFacets(masks, adj, union)


def _moves(state: tuple, a: int, b: int, table: dict, compat: Sequence[int]) -> list[tuple]:
    """The moves of the row state (y, x, pending) to row y+1, lowest column
    first: to every column from x up to the line, or to b for the top row.
    Each is (column, mask of the lasers row y+1 catches or -1 when ``_fire``
    fails them, the row state it reaches)."""
    y, x, pending = state
    y += 1
    moves = []
    for col in range(x, y * b // a + 1) if y < a else (b,):
        left, fired = _row_step(col, y, pending, a, b)
        moves.append((col, _fire(0, fired, table, compat) if fired else 0, (y, col, left)))
    return moves


def _path_with_lasers(a: int, b: int, xs: tuple[int, ...], ends: Sequence[int]) -> DyckPath:
    """The path with north-step sequence ``xs``, given the end ``ends[y]`` of
    the laser from each row 0 < y < a, as ``_laser_hit`` fires it: its facet
    is built from those ends with every check of ``_fire``, and the first
    failed check is raised as the row step's is."""
    fired = [(xs[y], y, ends[y]) for y in range(1, a)]
    mask = _fire(0, fired, admissible_by_ends(a, b), admissible_compatibility(a, b))
    word = _word_of(xs)
    if mask < 0:
        _raise_facet_failure(a, b, word, xs)
    return DyckPath._trusted(a, b, word, xs, mask)


def _word_of(xs: Sequence[int]) -> str:
    """The step word of the north-step sequence ``xs``."""
    return "N".join("E" * (x1 - x0) for x0, x1 in zip([0, *xs], xs))


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


def _row_step(x: int, y: int, pending: tuple, a: int, b: int) -> tuple[tuple, list]:
    """Place row y at column x: the rows pending below it that it catches
    fire, and row y itself becomes pending when it is a source (0 < y < a).

    Row y's key is a x - b y.  The pending sources are held as (key, x0, y0),
    keys falling toward the top, so the ones caught are those on top with a
    smaller key than row y's.  A caught source fires the diagonal x0-k with
    k = x0 + (y - y0) b // a + 1: the inequality of ``_laser_hit``, read
    from the hitting row down instead of from the source up.  Returns the
    new pending tuple and the fired lasers as (x0, y0, k).
    """
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
        pending, caught = _row_step(xs[y], y, pending, a, b)
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
