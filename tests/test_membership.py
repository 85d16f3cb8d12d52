from __future__ import annotations

import pytest

from ratassoc import (
    Diagonal,
    InvariantViolationError,
    NotAFaceOfHatError,
    all_admissible_diagonals,
    is_face_of_ass,
    valley_path,
)
from ratassoc import membership, parse_face

from helpers import (
    all_facets,
    checked_path,
    coprime_pairs,
    dyck_paths,
    hat,
    oracle_in_ass,
    partition_of,
    vertical_run_xs,
    young_contains,
)


def face(text, b):
    return parse_face(text, b)


# D58's facet is {0-7, 1-6, 1-3, 4-6}; its valleys are (1,2) and (4,4)
D58 = "NNENNEEENEEEE"


def _hand_back_d58(monkeypatch):
    """Make the search hand back D58 whatever it built."""
    monkeypatch.setattr(membership, "_path_with_lasers", lambda a, b, xs, ends: checked_path(a, b, D58))


def test_valley_path_that_misses_the_face_is_refused(monkeypatch):
    _hand_back_d58(monkeypatch)
    with pytest.raises(InvariantViolationError) as err:
        valley_path(face("0-5", 8), 5, 8)
    assert str(err.value) == (
        "valley path NNENNEEENEEEE misses part of frozenset({Diagonal(i=0, j=5, b=8)})"
    )


def test_valley_laser_outside_the_face_is_refused(monkeypatch):
    # the valley check reads the ends the search fired, the staircase's, at
    # D58's valleys: the first, (1,2), gets 1-5, which the empty face lacks
    _hand_back_d58(monkeypatch)
    with pytest.raises(InvariantViolationError) as err:
        valley_path([], 5, 8)
    assert str(err.value) == "valley LatticePoint(x=1, y=2) of NNENNEEENEEEE fires a laser outside {}"


def test_worked_rejection_with_break_column():
    result = valley_path(face("5-7,2-4,0-5,0-4", 8), 5, 8)
    assert not result.is_member
    assert result.break_x == 0


def test_second_worked_rejection():
    result = valley_path(face("5-7,4-8,2-4,0-4", 8), 5, 8)
    assert not result.is_member
    assert result.break_x == 0
    assert not is_face_of_ass(face("5-7,4-8,2-4,0-4", 8), 5, 8)


def test_empty_face_gets_staircase_path():
    result = valley_path([], 5, 8)
    assert result.is_member
    assert result.valley_path.word == "N" * 5 + "E" * 8


def test_obstructing_pair_rejected():
    assert not is_face_of_ass(face("0-4,2-4", 5), 3, 5)
    assert not is_face_of_ass(face("1-5,3-5", 5), 3, 5)


def test_wedge_with_shared_smaller_endpoint_accepted():
    # a wedge at the top point whose completion is not even a diagonal;
    # it must still belong to the path model
    assert is_face_of_ass(face("0-5,1-5", 8), 5, 8)


def test_single_diagonals_always_members():
    for a, b in coprime_pairs(max_sum=12):
        for diag in all_admissible_diagonals(a, b):
            result = valley_path([diag], a, b)
            assert result.is_member
            assert oracle_in_ass([diag], a, b)


@pytest.mark.parametrize("a,b", [(3, 5), (5, 8), (4, 7), (5, 7)])
def test_facets_accepted_with_facet_containment(a, b):
    from ratassoc import facet_of

    for facet in all_facets(a, b):
        result = valley_path(facet, a, b)
        assert result.is_member
        assert facet <= facet_of(result.valley_path)


@pytest.mark.parametrize("a,b", coprime_pairs(max_sum=12))
def test_oracle_equivalence_exhaustive(a, b):
    for f in hat(a, b).faces():
        assert is_face_of_ass(f, a, b) == oracle_in_ass(f, a, b)


def test_accepted_path_vertical_runs_sit_at_face_columns():
    for a, b in [(3, 5), (5, 8), (4, 7)]:
        for f in hat(a, b).faces():
            result = valley_path(f, a, b)
            if not result.is_member or not f:
                continue
            runs = set(vertical_run_xs(result.valley_path))
            wanted = {d.i for d in f}
            assert wanted <= runs
            assert runs <= wanted | {0}


def test_valley_path_minimizes_partition_among_witnesses():
    # optional structural property, checked at small scale only
    from ratassoc import facet_of

    for a, b in [(3, 5), (2, 5), (4, 7)]:
        for f in hat(a, b).faces():
            result = valley_path(f, a, b)
            if not result.is_member:
                continue
            mine = partition_of(result.valley_path)
            for path in dyck_paths(a, b):
                if f <= facet_of(path):
                    assert young_contains(mine, partition_of(path))


def test_rejects_non_faces():
    with pytest.raises(NotAFaceOfHatError):
        valley_path(face("0-4,1-5", 5), 3, 5)  # crossing pair
    with pytest.raises(NotAFaceOfHatError):
        valley_path(face("0-3", 5), 3, 5)  # inadmissible diagonal
    with pytest.raises(NotAFaceOfHatError):
        valley_path([Diagonal(0, 2, 6)], 3, 5)  # wrong polygon
