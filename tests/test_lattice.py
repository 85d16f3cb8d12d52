from __future__ import annotations

import random
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratassoc import (
    Diagonal,
    DyckPath,
    build_ass,
    InvariantViolationError,
    LatticePoint,
    enumerate_dyck_paths,
    facet_of,
    rational_catalan,
    valley_path,
    valleys,
)
from ratassoc import lattice
from ratassoc.polygon import admissible_by_ends, all_admissible_diagonals, is_admissible

from helpers import (
    all_facets,
    checked_path,
    coprime_pairs,
    dyck_paths,
    laser_hit_oracle,
    north_step_bottoms,
    partition_of,
    path_points,
    random_dyck_path,
    reference_dyck_words,
    skeleton_of_facets,
    young_contains,
)

D58 = checked_path(5, 8, "NNENNEEENEEEE")


def staircase(a, b):
    return checked_path(a, b, "N" * a + "E" * b)


def laser_end(path: DyckPath, source) -> int:
    """``lattice._laser_hit`` from ``source``, the bottom of a north step of
    ``path``: the right end k of its laser diagonal i-k."""
    x, y = source
    assert 0 < y < path.a and path.xs[y] == x
    return lattice._laser_hit(path.xs, path.a, path.b, y)


def test_path_validation():
    with pytest.raises(ValueError):
        checked_path(2, 3, "NEENE")  # dips below the line
    with pytest.raises(ValueError):
        checked_path(2, 3, "NNEE")  # wrong length
    with pytest.raises(ValueError):
        checked_path(2, 3, "NXNEE")


def test_enumeration_smallest_cases():
    assert reference_dyck_words(1, 2) == ["NEE"]
    assert reference_dyck_words(2, 3) == ["NNEEE", "NENEE"]
    assert enumerate_dyck_paths(1, 2) == [0]
    # NNEEE fires 0-2 from row 1, NENEE fires 1-3
    by_ends = admissible_by_ends(2, 3)
    assert enumerate_dyck_paths(2, 3) == [1 << by_ends[0, 2], 1 << by_ends[1, 3]]


@pytest.mark.parametrize("a,b", coprime_pairs(max_b=10))
def test_enumerated_paths_equal_checked_paths(a, b):
    """Membership builds its valley paths unchecked, from the lasers its
    search fired; the valley path of each enumerated facet is the path
    ``checked_path`` builds from the same word, with the same facet."""
    masks = enumerate_dyck_paths(a, b)
    for mask, facet, checked in zip(masks, all_facets(a, b), dyck_paths(a, b), strict=True):
        path = valley_path(facet, a, b).valley_path
        assert path.word == checked.word and path.xs == checked.xs
        assert path == checked and hash(path) == hash(checked)
        assert path.facet == checked.facet == mask


def test_enumeration_counts_and_order():
    for a, b in coprime_pairs(max_sum=12):
        masks, words = enumerate_dyck_paths(a, b), reference_dyck_words(a, b)
        assert len(masks) == rational_catalan(a, b)
        assert len(set(masks)) == len(masks)
        # lexicographic with N before E: one mask per word, in the words' order
        rank = {"N": 0, "E": 1}
        keys = [tuple(rank[c] for c in w) for w in words]
        assert keys == sorted(keys)
        assert masks == [checked_path(a, b, w).facet for w in words]


def test_enumeration_contains_example_path():
    assert D58.facet in enumerate_dyck_paths(5, 8)


def test_partition_examples():
    assert partition_of(staircase(4, 7)) == (0, 0, 0, 0)
    assert partition_of(D58) == (4, 1, 1, 0, 0)
    assert partition_of(checked_path(2, 3, "NENEE")) == (1, 0)


def test_partition_fits_staircase():
    for a, b in coprime_pairs(max_sum=11):
        for path in dyck_paths(a, b):
            parts = partition_of(path)
            assert all(x >= y for x, y in zip(parts, parts[1:]))
            # the north step bounding row i from the right sits weakly
            # above the line
            for i, width in enumerate(parts):
                y = a - i - 1
                assert width * a <= b * y


def test_young_contains():
    assert young_contains((1, 0), (4, 1))
    assert not young_contains((2, 2), (4, 1))
    assert young_contains((), (3,))


def test_valleys_examples():
    assert valleys(staircase(3, 5)) == []
    assert valleys(D58) == [LatticePoint(1, 2), LatticePoint(4, 4)]
    assert valleys(checked_path(2, 3, "NENEE")) == [LatticePoint(1, 1)]


def test_fire_laser_examples():
    for source, k in [((1, 3), 3), ((4, 4), 6)]:
        assert laser_end(D58, source) == laser_hit_oracle(D58, source) == k


@pytest.mark.parametrize("a,b", [(3, 5), (5, 8), (4, 7), (3, 10)])
def test_fire_laser_staircase_formula(a, b):
    path = staircase(a, b)
    for k in range(1, a):
        got = laser_end(path, (0, k))
        assert got == ceil((a - k) * b / a)
        assert got == laser_hit_oracle(path, (0, k))


def test_laser_diagonal_examples():
    assert laser_end(D58, (1, 2)) == laser_hit_oracle(D58, (1, 2)) == 6
    assert laser_end(D58, (0, 1)) == laser_hit_oracle(D58, (0, 1)) == 7


def test_laser_diagonals_admissible_and_distinct():
    for a, b in coprime_pairs(max_sum=11):
        for path in dyck_paths(a, b):
            sources = [p for p in north_step_bottoms(path) if p != (0, 0)]
            diags = [Diagonal(p.x, laser_end(path, p), b) for p in sources]
            assert len(set(diags)) == len(diags)
            assert all(is_admissible(d, a, b) for d in diags)


def test_facet_examples():
    assert facet_of(D58) == {
        Diagonal(0, 7, 8),
        Diagonal(1, 6, 8),
        Diagonal(1, 3, 8),
        Diagonal(4, 6, 8),
    }
    for a, b in [(3, 5), (4, 7)]:
        path = staircase(a, b)
        assert facet_of(path) == {Diagonal(0, laser_end(path, (0, k)), b) for k in range(1, a)}


def test_facets_biject_with_paths():
    """Every facet is the set of exact-Fraction oracle lasers of its path, as
    diagonals and as a ground mask, and distinct paths give distinct facets."""
    for a, b in coprime_pairs(max_sum=12):
        by_ends = admissible_by_ends(a, b)
        mask_of = lambda face: sum(1 << by_ends[x.i, x.j] for x in face)
        paths = dyck_paths(a, b)
        facets = {facet_of(p) for p in paths}
        assert len(facets) == len(paths) == rational_catalan(a, b)
        for path in paths:
            # north-step bottoms read off the step word, not the path's xs
            pts = path_points(path)
            sources = [pts[k] for k, step in enumerate(path.word) if step == "N" and k > 0]
            expect = {Diagonal(p.x, laser_hit_oracle(path, p), b) for p in sources}
            assert len(expect) == a - 1
            assert facet_of(path) == expect
            assert path.facet == mask_of(facet_of(path)) == mask_of(expect)


_PAIRS = [(3, 5), (5, 8), (4, 7), (7, 10), (5, 12), (7, 12)]


@settings(max_examples=150, deadline=None)
@given(pair=st.sampled_from(_PAIRS), seed=st.integers(0, 2**32 - 1))
def test_fire_laser_matches_rational_oracle(pair, seed):
    """The integer cross-multiplication trace agrees with an exact-Fraction
    full segment-intersection trace on random paths."""
    a, b = pair
    path = random_dyck_path(a, b, random.Random(seed))
    for src in north_step_bottoms(path):
        if src == (0, 0):
            continue
        assert laser_end(path, src) == laser_hit_oracle(path, src)


def _stack(node: int, trie) -> tuple:
    """The pending sources at trie node ``node`` as (key, x0, y0), bottom
    first."""
    out = []
    while node:
        node, key, x0, y0 = trie[node]
        out.append((key, x0, y0))
    return tuple(reversed(out))


def _sources(pending: tuple) -> tuple:
    """The pending sources as (x0, y0), without their keys."""
    return tuple((x0, y0) for _, x0, y0 in pending)


def _row_states(a: int, b: int, xs) -> list[tuple[tuple, list[int]]]:
    """The rows along the path ``xs``, each as (x, y, pending), row y placed
    at column x above the sources pending below it, with the source rows
    it fires, read by the unpatched ``lattice._read_row`` on a one-path
    trie: one column per row below the top, then the top row one source at
    a time (``lattice._top_row``), top source first."""
    out, trie, node = [], [(0, 0, 0, 0)] * a, 0
    for y in range(1, a):
        moves, fired = lattice._read_row(y, (xs[y],), node, 0, trie, a, b)
        out.append(((xs[y], y, _stack(node, trie)), [y0 for _, y0, _ in fired]))
        trie[y], node = moves[0][0], y
    fired, _ = lattice._top_row(node, trie, a, b)
    out.append(((xs[a], a, _stack(node, trie)), [y0 for _, y0, _ in fired]))
    return out


def _read_of(a: int, state: tuple, row: int) -> tuple:
    """The read that fires the laser from ``row`` in the row ``state``, as
    (y, the stack read, as (x0, y0) bottom first): below the top row the
    state's own stack, and at the top row, which reads each source at its
    own trie node, the prefix of the stack up to that source."""
    _, y, pending = state
    stack = _sources(pending)
    if y == a:
        stack = stack[: [y0 for _, y0 in stack].index(row) + 1]
    return y, stack


def _first_word_through(a: int, b: int, state: tuple, row: int) -> str:
    """The lex-first reference word whose path fires the laser from ``row``
    in the read ``_read_of`` names for the row ``state``."""
    read = _read_of(a, state, row)
    return next(
        w for w in reference_dyck_words(a, b)
        if any(row in rows and _read_of(a, s, row) == read
               for s, rows in _row_states(a, b, checked_path(a, b, w).xs))
    )


def _misfiring_reader(monkeypatch, state: tuple, row: int, end) -> None:
    """Patch ``lattice._read_row`` so that its read of the (5,8) row
    ``state`` that fires the laser from ``row`` (``_read_of``), keyed on the
    stack as (x0, y0) rebuilt from the trie node read, fires that laser to
    ``end(k)`` instead of k, at every column that catches it.  The walk, its
    search for the first failing path and ``checked_path`` all read rows
    through it, the walk on its trie of all states and the others on
    one-path tries."""
    read = lattice._read_row
    faulty = _read_of(5, state, row)

    def misfiring(y, cols, node, stop, trie, a, b):
        moves, fired = read(y, cols, node, stop, trie, a, b)
        if (a, b) == (5, 8) and (y, _sources(_stack(node, trie))) == faulty:
            fired = [(x0, y0, end(k) if y0 == row else k) for x0, y0, k in fired]
        return moves, fired

    monkeypatch.setattr(lattice, "_read_row", misfiring)


def _misfire(monkeypatch, row: int, hit: int) -> str:
    """Make the laser from row ``row`` of D58 end at x = ``hit``, in the read
    that fires it (``_read_of``): every (5,8)-path that fires it in the same
    read misfires with D58, and every other laser fires as before.  Returns
    the lex-first word that misfires."""
    faulty = next(state for state, rows in _row_states(5, 8, D58.xs) if row in rows)
    first = _first_word_through(5, 8, faulty, row)
    _misfiring_reader(monkeypatch, faulty, row, lambda k: hit)
    return first


# every route that fires D58's lasers, each run after the patch:
# ``checked_path``'s single pass on D58 (decoded by facet_of), and the row
# walk inside the model builder, which names the lex-first failing path
_ROUTES = pytest.mark.parametrize("route", ["facet_of", "build_ass"])


def _scan(route: str) -> None:
    if route == "facet_of":
        facet_of(checked_path(5, 8, D58.word))
    else:
        build_ass(5, 8)


@_ROUTES
@pytest.mark.parametrize(
    "row, hit, message",
    [
        # D58 fires 0-7, 1-6, 1-3 and 4-6 from rows 1..4; S(5,8) = {1, 3, 4, 6}
        (4, 7, "laser diagonal 4-7 of NNENNEEENEEEE is not admissible"),
        (3, 6, "facet of NNENNEEENEEEE has 3 diagonals, not a-1"),
        (4, 8, "facet of NNENNEEENEEEE contains crossing diagonals 0-7, 4-8"),
    ],
)
def test_facet_of_names_the_failed_check(monkeypatch, row, hit, message, route):
    first = _misfire(monkeypatch, row, hit)
    with pytest.raises(InvariantViolationError) as err:
        _scan(route)
    word = D58.word if route == "facet_of" else first
    assert str(err.value) == message.replace(D58.word, word)


@_ROUTES
def test_facet_of_laser_on_a_side_is_not_a_diagonal(monkeypatch, route):
    _misfire(monkeypatch, 3, 2)  # 1-2 is a side of the 9-gon
    with pytest.raises(ValueError, match=r"\(1, 2\) is a side"):
        _scan(route)


def test_a_source_left_pending_after_row_a_escapes(monkeypatch):
    """A row read that catches nothing leaves every source pending after the
    top row: ``checked_path`` names D58's lowest, and the walk the lowest
    of the lex-first path, which is in column 0 too."""
    first = checked_path(5, 8, reference_dyck_words(5, 8)[0])

    def catch_nothing(y, cols, node, stop, trie, a, b):
        return [((node, a * x - b * y, x, y), 0) for x in cols], []

    monkeypatch.setattr(lattice, "_read_row", catch_nothing)
    with pytest.raises(InvariantViolationError, match=r"laser from \(0,1\) escaped the path"):
        checked_path(5, 8, D58.word)
    assert first.xs[1] == 0
    with pytest.raises(InvariantViolationError, match=r"laser from \(0,1\) escaped the path"):
        build_ass(5, 8)


def _first_failure(a: int, b: int) -> Exception | None:
    """The error of the first reference word whose ``checked_path`` fails,
    or None when every path passes."""
    for w in reference_dyck_words(a, b):
        try:
            checked_path(a, b, w)
        except (ValueError, InvariantViolationError) as err:
            return err
    return None


# rows of (5,8) paths that fire a laser, each with a wrong end for its
# first laser: states shared by several paths, whose suffixes a misfire
# spoils in part or in full.  The misfire is keyed on the read that fires
# it (``_read_of``), not on the row's column x: below the top row the row
# state (y, pending), and at the top row the prefix of the stack up to the
# source.  So rows of one state that fire the same source apply one fault:
# the 36 cases taken below hold 31 distinct faults.  The repeats are kept
# so that the test ids stay the same.
_STEPS = sorted({
    (state, rows[0]) for w in reference_dyck_words(5, 8)
    for state, rows in _row_states(5, 8, checked_path(5, 8, w).xs) if rows
})


@pytest.mark.parametrize("state, row", _STEPS[::3])
@pytest.mark.parametrize("shift", [-1, 1, 2])
def test_the_walk_raises_the_error_of_the_lex_first_failing_path(monkeypatch, state, row, shift):
    """A laser misfired in one row state spoils the paths through it whose
    facet check it breaks, which need not be all of them; the walk raises
    exactly what ``checked_path`` raises on the first of them, also
    when the state's row lists were dropped before the walk found it."""
    _misfiring_reader(monkeypatch, state, row, lambda k: k + shift)
    expected = _first_failure(5, 8)
    if expected is None:
        lattice.enumerate_dyck_paths(5, 8)
        return
    with pytest.raises(type(expected)) as err:
        lattice.enumerate_dyck_paths(5, 8)
    assert str(err.value) == str(expected)


@pytest.mark.parametrize("a,b", [(5, 8), (7, 10)])
def test_the_walk_reads_each_row_state_once(monkeypatch, a, b):
    """The walk reads each row state below the top once, for all its
    columns, and each trie node's top-row laser once: its reads are the
    (row, pending sources) pairs along the reference paths below the top
    row, and (a, stack) for the stack each row 0 < y < a leaves, each read
    once."""
    states = set()
    for w in reference_dyck_words(a, b):
        for (_, y, pending), _ in _row_states(a, b, checked_path(a, b, w).xs):
            stack = _sources(pending)
            if y < a:
                states.add((y, stack))
            if y > 1:
                states.add((a, stack))
    read, reads = lattice._read_row, []

    def counting(y, cols, node, stop, trie, a, b):
        reads.append((y, _sources(_stack(node, trie))))
        return read(y, cols, node, stop, trie, a, b)

    monkeypatch.setattr(lattice, "_read_row", counting)
    enumerate_dyck_paths(a, b)
    assert len(reads) == len(states)
    assert set(reads) == states


@pytest.mark.parametrize("a,b,nodes", [(8, 13, 1891), (9, 14, 5460)])
def test_the_walk_fires_each_top_row_laser_once_per_node(monkeypatch, a, b, nodes):
    """The top row fires one laser per trie node, its own source's, read
    when the node is made: 1,891 at (8,13) and 5,460 at (9,14), where a
    read of the whole stack per state of row a-1 fired 6,400 and 21,016."""
    read, top = lattice._read_row, []

    def counting(y, cols, node, stop, trie, a, b):
        moves, fired = read(y, cols, node, stop, trie, a, b)
        if y == a:
            top.append(len(fired))
        return moves, fired

    monkeypatch.setattr(lattice, "_read_row", counting)
    enumerate_dyck_paths(a, b)
    assert len(top) == sum(top) == nodes


@pytest.mark.parametrize("a,b", coprime_pairs(max_b=11))
def test_walk_matches_the_reference_enumerator_and_both_laser_readings(a, b):
    """The walk lists one facet mask per word of the naive enumerator, in its
    lex order, Cat(a,b) of them; each is the facet ``checked_path`` fires
    for its word, and the one ``_laser_hit`` gives row by row, read
    top-down."""
    masks, words = enumerate_dyck_paths(a, b), reference_dyck_words(a, b)
    assert len(masks) == len(words) == rational_catalan(a, b)
    by_ends = admissible_by_ends(a, b)
    for mask, word in zip(masks, words):
        path = checked_path(a, b, word)
        assert mask == path.facet
        xs = path.xs
        assert mask == sum(
            1 << by_ends[xs[y], lattice._laser_hit(xs, a, b, y)] for y in range(1, a)
        )


@pytest.mark.parametrize("a,b", coprime_pairs(max_b=11))
def test_walk_skeleton_is_the_skeleton_of_its_facets(a, b):
    """The skeleton the walk builds once per row state, from the lasers each
    move fires first and the unions of the states reached, is the one the
    loop over every bit of every facet builds."""
    facets = enumerate_dyck_paths(a, b)
    adj, vertices = skeleton_of_facets(facets, len(all_admissible_diagonals(a, b)))
    assert facets.adj == adj
    assert facets.vertices == vertices


def test_build_ass_builds_no_path_object(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a DyckPath was built")

    monkeypatch.setattr(DyckPath, "__init__", forbidden)
    cpx = build_ass(8, 13)
    assert len(cpx.facets()) == rational_catalan(8, 13)
