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
    InvalidSourceError,
    InvariantViolationError,
    LatticePoint,
    enumerate_dyck_paths,
    facet_of,
    laser_diagonal,
    rational_catalan,
    valleys,
)
from ratassoc import lattice
from ratassoc.polygon import admissible_by_ends, is_admissible

from helpers import (
    coprime_pairs,
    laser_hit_oracle,
    north_step_bottoms,
    partition_of,
    path_points,
    random_dyck_path,
    reference_dyck_words,
    young_contains,
)

D58 = DyckPath(5, 8, "NNENNEEENEEEE")


def staircase(a, b):
    return DyckPath(a, b, "N" * a + "E" * b)


def test_path_validation():
    with pytest.raises(ValueError):
        DyckPath(2, 3, "NEENE")  # dips below the line
    with pytest.raises(ValueError):
        DyckPath(2, 3, "NNEE")  # wrong length
    with pytest.raises(ValueError):
        DyckPath(2, 3, "NXNEE")


def test_enumeration_smallest_cases():
    assert [p.word for p in enumerate_dyck_paths(1, 2)] == ["NEE"]
    assert [p.word for p in enumerate_dyck_paths(2, 3)] == ["NNEEE", "NENEE"]


@pytest.mark.parametrize("a,b", coprime_pairs(max_b=10))
def test_enumerated_paths_equal_checked_paths(a, b):
    """Enumeration builds its paths unchecked; each one is the path the
    checking constructor builds from the same word."""
    for path in enumerate_dyck_paths(a, b):
        checked = DyckPath(a, b, path.word)
        assert path.word == checked.word and path.xs == checked.xs
        assert path == checked and hash(path) == hash(checked)


def test_enumeration_counts_and_order():
    for a, b in coprime_pairs(max_sum=12):
        paths = enumerate_dyck_paths(a, b)
        assert len(paths) == rational_catalan(a, b)
        assert len(set(p.word for p in paths)) == len(paths)
        # lexicographic with N before E
        rank = {"N": 0, "E": 1}
        keys = [tuple(rank[c] for c in p.word) for p in paths]
        assert keys == sorted(keys)


def test_enumeration_contains_example_path():
    words = {p.word for p in enumerate_dyck_paths(5, 8)}
    assert D58.word in words


def test_partition_examples():
    assert partition_of(staircase(4, 7)) == (0, 0, 0, 0)
    assert partition_of(D58) == (4, 1, 1, 0, 0)
    assert partition_of(DyckPath(2, 3, "NENEE")) == (1, 0)


def test_partition_fits_staircase():
    for a, b in coprime_pairs(max_sum=11):
        for path in enumerate_dyck_paths(a, b):
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
    assert valleys(DyckPath(2, 3, "NENEE")) == [LatticePoint(1, 1)]


def test_fire_laser_examples():
    assert laser_diagonal(D58, LatticePoint(1, 3)).j == 3
    assert laser_diagonal(D58, LatticePoint(4, 4)).j == 6


@pytest.mark.parametrize("a,b", [(3, 5), (5, 8), (4, 7), (3, 10)])
def test_fire_laser_staircase_formula(a, b):
    path = staircase(a, b)
    for k in range(1, a):
        got = laser_diagonal(path, LatticePoint(0, k)).j
        assert got == ceil((a - k) * b / a)
        assert got == laser_hit_oracle(path, (0, k))


def test_fire_laser_rejects_bad_sources():
    with pytest.raises(InvalidSourceError):
        laser_diagonal(D58, LatticePoint(0, 0))
    with pytest.raises(InvalidSourceError):
        laser_diagonal(D58, LatticePoint(2, 4))  # interior of an east run
    with pytest.raises(InvalidSourceError):
        laser_diagonal(D58, LatticePoint(1, 4))  # top of a north run, not a bottom


def test_laser_diagonal_examples():
    assert laser_diagonal(D58, LatticePoint(1, 2)) == Diagonal(1, 6, 8)
    assert laser_diagonal(D58, LatticePoint(0, 1)) == Diagonal(0, 7, 8)


def test_laser_diagonals_admissible_and_distinct():
    for a, b in coprime_pairs(max_sum=11):
        for path in enumerate_dyck_paths(a, b):
            sources = [p for p in north_step_bottoms(path) if p != (0, 0)]
            diags = [laser_diagonal(path, p) for p in sources]
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
        assert facet_of(path) == {laser_diagonal(path, LatticePoint(0, k)) for k in range(1, a)}


def test_facets_biject_with_paths():
    """Every facet is the set of exact-Fraction oracle lasers of its path, as
    diagonals and as a ground mask, and distinct paths give distinct facets."""
    for a, b in coprime_pairs(max_sum=12):
        by_ends = admissible_by_ends(a, b)
        mask_of = lambda face: sum(1 << by_ends[x.i, x.j] for x in face)
        paths = enumerate_dyck_paths(a, b)
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
        assert laser_diagonal(path, src).j == laser_hit_oracle(path, src)


def _misfire(monkeypatch, row: int, hit: int) -> None:
    """Make the laser from row ``row`` of D58 end at x = ``hit``, in the row
    step of every prefix of D58; every other prefix, and every other row,
    fires as before."""
    step = lattice._row_step

    def misfiring(xs, y, pending, a, b):
        pending, fired = step(xs, y, pending, a, b)
        if (a, b) == (D58.a, D58.b) and tuple(xs[: y + 1]) == D58.xs[: y + 1]:
            fired = [(x0, y0, hit if y0 == row else k) for x0, y0, k in fired]
        return pending, fired

    monkeypatch.setattr(lattice, "_row_step", misfiring)


# every route that fires D58's lasers, each run after the patch: the
# constructor's single pass (decoded by facet_of), and the lex-order walk
# inside the model builder, which fires along every (5,8)-prefix
_SCANS = pytest.mark.parametrize(
    "scan", [lambda: facet_of(DyckPath(5, 8, D58.word)), lambda: build_ass(5, 8)],
    ids=["facet_of", "build_ass"],
)


@_SCANS
@pytest.mark.parametrize(
    "row, hit, message",
    [
        # D58 fires 0-7, 1-6, 1-3 and 4-6 from rows 1..4; S(5,8) = {1, 3, 4, 6}
        (4, 7, "laser diagonal 4-7 of NNENNEEENEEEE is not admissible"),
        (3, 6, "facet of NNENNEEENEEEE has 3 diagonals, not a-1"),
        (4, 8, "facet of NNENNEEENEEEE contains crossing diagonals 0-7, 4-8"),
    ],
)
def test_facet_of_names_the_failed_check(monkeypatch, row, hit, message, scan):
    _misfire(monkeypatch, row, hit)
    with pytest.raises(InvariantViolationError) as err:
        scan()
    assert str(err.value) == message


@_SCANS
def test_facet_of_laser_on_a_side_is_not_a_diagonal(monkeypatch, scan):
    _misfire(monkeypatch, 3, 2)  # 1-2 is a side of the 9-gon
    with pytest.raises(ValueError, match=r"\(1, 2\) is a side"):
        scan()


def test_a_source_left_pending_after_row_a_escapes(monkeypatch):
    """A row step that catches nothing leaves every source pending after the
    top row: the constructor and the walk both name the lowest one."""

    def catch_nothing(xs, y, pending, a, b):
        return (pending + ((a * xs[y] - b * y, xs[y], y),) if 0 < y < a else pending), []

    monkeypatch.setattr(lattice, "_row_step", catch_nothing)
    with pytest.raises(InvariantViolationError, match=r"laser from \(0,1\) escaped the path"):
        DyckPath(5, 8, D58.word)
    with pytest.raises(InvariantViolationError, match=r"laser from \(0,1\) escaped the path"):
        build_ass(5, 8)


@pytest.mark.parametrize("a,b", coprime_pairs(max_b=11))
def test_walk_matches_the_reference_enumerator_and_both_laser_readings(a, b):
    """The walk lists the naive enumerator's words in its lex order, Cat(a,b)
    of them; each path's facet is the one its word's constructor fires, and
    the one ``_laser_hit`` gives row by row, read top-down."""
    paths = enumerate_dyck_paths(a, b)
    assert [p.word for p in paths] == reference_dyck_words(a, b)
    assert len(paths) == rational_catalan(a, b)
    by_ends = admissible_by_ends(a, b)
    for path in paths:
        assert path.facet == DyckPath(a, b, path.word).facet
        xs = path.xs
        assert path.facet == sum(
            1 << by_ends[xs[y], lattice._laser_hit(xs, a, b, y)] for y in range(1, a)
        )
