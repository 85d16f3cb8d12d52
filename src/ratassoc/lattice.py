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
orders.  ``_read_row`` reads it bottom-up, for paths grown from the
origin: row y, placed at each of a run of columns, catches the pending
sources below it with smaller keys, a longer run of them the farther east
it stands, and fires each once, when a column first catches it.  The
pending sources are a stack, held as a node of a trie: one source on top
of the node below it, node 0 the empty stack.  What a row catches depends
only on its row and column and on the node below it, so
``enumerate_dyck_paths`` reads each such row state once for all its
columns, row by row, and lists facet masks and their skeleton, not paths.
The top row catches every source still pending, so there each source is
read once, at its own node, when the node is made: a stack's top-row
lasers are read once per prefix, not once per state.  Only after a failed
check does the walk read paths one by one, on a one-path trie, one column
per row, to name the first path that fails (``_raise_first_failure``).
``_laser_hit`` reads it top-down, for paths grown from (b, a), whose top
rows are known first: membership's valley-path search, which hands the
ends it fired to ``_path_with_lasers``, the one builder of a ``DyckPath``.

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

from .errors import InvariantViolationError
from .polygon import Diagonal, admissible_by_ends, admissible_compatibility, all_admissible_diagonals
from .polygon import check_slope_pair, crosses, is_admissible


class LatticePoint(NamedTuple):
    x: int
    y: int


@dataclass(frozen=True)
class DyckPath:
    """An (a, b)-Dyck path: its step word, its north-step sequence ``xs`` and
    its facet, the ground mask of its laser diagonals over
    ``all_admissible_diagonals``.  A plain record, compared and hashed by
    (a, b, word); ``_path_with_lasers`` builds it from lasers it has checked.
    """

    a: int
    b: int
    word: str
    xs: tuple[int, ...] = field(repr=False, compare=False)
    facet: int = field(repr=False, compare=False)

    def __str__(self) -> str:
        return self.word


class DyckFacets(list):
    """The facet masks of the (a, b)-Dyck paths, one per path in lex word
    order, with the 1-skeleton they span: ``adj[p]`` is the mask of the
    ground diagonals that share a facet with diagonal p, and ``vertices``
    is the union of the facets.  ``enumerate_dyck_paths`` builds all three
    in one walk over the row states, held as nodes of a trie of pending
    stacks, with no path objects."""

    __slots__ = ("adj", "vertices")

    def __init__(self, masks: Iterable[int], adj: list[int], vertices: int):
        super().__init__(masks)
        self.adj, self.vertices = adj, vertices


def enumerate_dyck_paths(a: int, b: int) -> DyckFacets:
    """The facet masks of all (a, b)-Dyck paths in lexicographic word order
    with N < E, and their skeleton.

    The lasers fired above row y depend only on the row state (y, xs[y],
    the sources pending after row y), so the walk runs in two passes over
    those states.  The pending sources of a state are a node of a trie, a
    source on top of the node left below it (node 0 is the empty stack), so
    a state of row y is a node, interned by the node left below its source
    and its column.  Going up, the walk reads every state of row y before
    any state of row y+1: one ``_read_row`` per state gives its moves to
    row y+1, one per column from xs[y] up to the line, lowest first, and
    the lasers they fire.  The columns fire growing prefixes of those
    lasers, so each laser is checked once per state, against the ones
    before it, for a table miss, a repeat or a crossing.  The top row
    catches every source still pending, so a node reads its own source's
    top-row laser once, when it is made, and keeps its stack's top-row
    mask: its parent's with that laser, checked against the parent's the
    same way, or -1 after a failed check or a source that escapes.  A state
    of row a-1 then moves to (b, a) with its node's mask, firing nothing.
    Going down, from row a, each state lists its suffixes, the masks of the
    lasers fired in rows y+1..a along each way on to (b, a), in lex order,
    with their union: a move that fires the lasers m gives m | s for each
    suffix s of the state it reaches, and is checked once against that
    state's union for a repeat or a crossing.  The trie goes before the
    down pass, and a row's lists as soon as the row below has read them.
    Any failed check hands over to ``_raise_first_failure``, which names
    the first failing path in lex order.
    """
    check_slope_pair(a, b)
    table, compat = admissible_by_ends(a, b), admissible_compatibility(a, b)
    adj = [0] * len(compat)
    # trie[n] is node n, a source as (node below, key, x0, y0), and top[n]
    # its stack's top-row mask.  The states of row y are the nodes made, in
    # order, while reading row y, so a state's index in its row is its node
    # less the row's first, ``lo`` when row y+1 is read.  steps[y] holds the
    # moves of each state of row y as (mask of the lasers fired, the ground
    # bits they repeat or cross, index of the state reached in row y+1)
    trie, top, lo, w = [(0, 0, 0, 0)], [0], 0, b + 1
    steps: list = []
    for y in range(1, a):
        index: dict[int, int] = {}
        step = []
        made = len(trie)
        for n in range(lo, made):
            moves, fired = _read_row(y, _columns(y, n, trie, a, b), n, 0, trie, a, b)
            # the columns fire growing prefixes of ``fired``: each laser is
            # checked once against those before it, inline, by the check
            # ``_fire`` makes (keep the two in step)
            m = clash = done = 0
            out = []
            for source, count in moves:
                left, _, x, _ = source
                while done < count:
                    x0, _, k = fired[done]
                    done += 1
                    p = table.get((x0, k))
                    if p is None or m & ~compat[p]:
                        _raise_first_failure(a, b)
                    m |= 1 << p
                    clash |= ~compat[p]
                i = index.get(key := left * w + x)
                if i is None:
                    i = index[key] = len(index)
                    trie.append(source)
                    ((lifted, _),), caught = _read_row(a, (b,), len(top), left, trie, a, b)
                    top.append(_fire(top[left], caught, table, compat) if lifted[0] == left else -1)
                out.append((m, clash, i))
            step.append(out)
        steps.append(step)
        lo = made
    if min(top[lo:]) < 0:  # a top-row check failed, or a source escapes
        _raise_first_failure(a, b)
    steps.append([[(t, 0, 0)] for t in top[lo:]])
    trie = top = None
    lists, unions = [[0]], [0]  # row a's one state, with nothing pending
    for y in range(a - 1, -1, -1):
        below_lists, below_unions = lists, unions
        lists, unions = [], []
        for out in steps[y]:
            masks, union = [], 0
            for m, clash, i in out:
                below, reach = below_lists[i], below_unions[i]
                if not m:
                    masks += below
                elif reach & clash:
                    _raise_first_failure(a, b)
                else:
                    masks += [m | s for s in below]
                union |= m | reach
            lists.append(masks)
            unions.append(union)
            # the skeleton: a laser a move fires first shares a facet with
            # the other lasers of that move, and with the union of each state
            # reached from that move on (pairs with the lasers later moves
            # fire first are theirs to write; adj is symmetrised below)
            reach = 0
            for j in range(len(out) - 1, -1, -1):
                m, _, i = out[j]
                reach |= below_unions[i]
                fresh = m & ~out[j - 1][0] if j else m
                while fresh:
                    bit = fresh & -fresh
                    fresh ^= bit
                    adj[bit.bit_length() - 1] |= reach | m ^ bit
        steps[y] = below_lists = below_unions = None
    for p, row in enumerate(adj):
        bit = 1 << p
        while row:
            low = row & -row
            row ^= low
            adj[low.bit_length() - 1] |= bit
    return DyckFacets(lists[0], adj, unions[0])


def _raise_first_failure(a: int, b: int) -> NoReturn:
    """Raise the facet failure of the first (a, b)-Dyck path in lex order
    whose lasers fail a check, for a walk that has failed one.  Paths grow
    depth-first from the origin, lowest column first, on a one-path trie
    (node y is row y's source): one ``_read_row`` of one column per row,
    then ``_top_row``, with the checks of ``_fire``."""
    table, compat = admissible_by_ends(a, b), admissible_compatibility(a, b)
    trie = [(0, 0, 0, 0)] * a

    def grow(xs: list[int], node: int, mask: int) -> None:
        y = len(xs)
        if y == a:
            fired, escaped = _top_row(node, trie, a, b)
            if escaped or _fire(mask, fired, table, compat) < 0:
                path = (*xs, b)
                _raise_facet_failure(a, b, _word_of(path), path)
            return
        for x in _columns(y, node, trie, a, b):
            moves, fired = _read_row(y, (x,), node, 0, trie, a, b)
            trie[y] = moves[0][0]
            grow(xs + [x], y, _fire(mask, fired, table, compat))

    grow([0], 0, 0)
    raise InvariantViolationError(f"the ({a},{b}) walk failed a check that no path fails")


def _columns(y: int, node: int, trie: Sequence[tuple], a: int, b: int) -> range:
    """The columns row y < a can take above the state at trie node ``node``:
    from that state's column (its own source, on top) up to the line."""
    return range(trie[node][2], y * b // a + 1)


def _path_with_lasers(a: int, b: int, xs: tuple[int, ...], ends: Sequence[int]) -> DyckPath:
    """The path with north-step sequence ``xs``, given the end ``ends[y]`` of
    the laser from each row 0 < y < a, as ``_laser_hit`` fires it: its facet
    is built from those ends with every check of ``_fire``, and a failed
    check is raised by ``_raise_facet_failure``, which fires the path's
    lasers again bottom-up.  The one builder of a ``DyckPath``."""
    fired = [(xs[y], y, ends[y]) for y in range(1, a)]
    mask = _fire(0, fired, admissible_by_ends(a, b), admissible_compatibility(a, b))
    word = _word_of(xs)
    if mask < 0:
        _raise_facet_failure(a, b, word, xs)
    return DyckPath(a, b, word, xs, mask)


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


def _read_row(
    y: int, cols: Iterable[int], node: int, stop: int, trie: Sequence[tuple], a: int, b: int
) -> tuple[list, list]:
    """Place row y at each column of ``cols``, ascending, above the stack of
    pending sources at trie node ``node``, read down to the node ``stop``:
    the sources it catches fire.

    Row y's key is a x - b y.  A trie node is a source (node below, key,
    x0, y0), keys falling toward the top, so a column catches the sources
    on top with a smaller key than its row's, and a column farther east,
    with a larger key, catches the same ones and perhaps more.  A caught
    source fires the diagonal x0-k with k = x0 + (y - y0) b // a + 1,
    whatever the column: the inequality of ``_laser_hit``, read from the
    hitting row down instead of from the source up.  Each source is fired
    once, when the first column catches it.  Returns the moves, one per
    column as (row y's source there, a node on top of the node the column
    leaves; how many lasers of ``fired`` it fires), and the fired lasers as
    (x0, y0, k), top source first.  Below the top row ``stop`` is 0, the
    empty stack; the top row catches every source, and is read one source
    at a time, ``stop`` the parent of ``node`` (``_top_row``).
    """
    fired, moves = [], []
    for x in cols:
        key = a * x - b * y
        while node != stop and trie[node][1] < key:
            node, _, x0, y0 = trie[node]
            fired.append((x0, y0, x0 + (y - y0) * b // a + 1))
        moves.append(((node, key, x, y), len(fired)))
    return moves, fired


def _top_row(node: int, trie: Sequence[tuple], a: int, b: int) -> tuple[list, tuple | None]:
    """The top-row lasers of the stack at trie node ``node``, top source
    first, each read as the walk reads it, by one ``_read_row`` over its own
    node down to its parent; and the lowest source whose read leaves it
    pending, which escapes, or None."""
    fired, escaped = [], None
    while node:
        below = trie[node][0]
        moves, caught = _read_row(a, (b,), node, below, trie, a, b)
        if moves[0][0][0] != below:
            escaped = trie[node]
        fired += caught
        node = below
    return fired, escaped


def _path_lasers(a: int, b: int, xs: Sequence[int]) -> tuple[list, tuple | None]:
    """The lasers of the path ``xs`` as (x0, y0, k), read on a one-path trie
    (node y is row y's source): one ``_read_row`` of one column per row
    below the top, then ``_top_row``; with the source that escapes, or
    None."""
    trie, node, fired = [(0, 0, 0, 0)] * a, 0, []
    for y in range(1, a):
        moves, caught = _read_row(y, (xs[y],), node, 0, trie, a, b)
        trie[y], node = moves[0][0], y
        fired += caught
    caught, escaped = _top_row(node, trie, a, b)
    return fired + caught, escaped


def _fire(mask: int, fired: list, table: dict, compat: Sequence[int]) -> int:
    """OR the ground bits of the fired lasers into the facet mask ``mask``,
    checking each: a laser missing from ``table`` (``admissible_by_ends``)
    is off the admissible set, and a set bit outside the laser's
    compatibility row is a repeat (no row holds its own bit) or a crossing.
    A failed check returns -1, which every later call returns unchanged.
    ``enumerate_dyck_paths`` makes the same check inline, one laser at a
    time, as a state's columns grow its mask; keep the two in step."""
    for x0, _, k in fired:
        p = table.get((x0, k))
        if p is None or mask & ~compat[p]:
            return -1
        mask |= 1 << p
    return mask


def facet_of(path: DyckPath) -> frozenset[Diagonal]:
    """The facet of the path as a set of diagonals: ``path.facet``, decoded
    by its set bits."""
    mask, ground, out = path.facet, all_admissible_diagonals(path.a, path.b), []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(ground[low.bit_length() - 1])
    return frozenset(out)


def _raise_facet_failure(a: int, b: int, word: str, xs: tuple[int, ...]) -> NoReturn:
    """Raise the first failed facet check of the path on fresh diagonals,
    fired by ``_path_lasers`` and listed by source row."""
    fired, escaped = _path_lasers(a, b, xs)
    if escaped:
        _, _, x0, y0 = escaped
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
