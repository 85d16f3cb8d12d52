from __future__ import annotations

from itertools import combinations
from math import comb, gcd

import pytest

from ratassoc import (
    BadOrderError,
    Diagonal,
    NotCoprimeError,
    all_admissible_diagonals,
    crosses,
    is_admissible,
    remainder_set,
)
from ratassoc.polygon import admissible_by_ends, all_diagonals

from helpers import coprime_pairs, translate


def d(i, j, b):
    return Diagonal(i, j, b)


def test_diagonal_rejects_sides_and_bad_order():
    with pytest.raises(ValueError):
        Diagonal(2, 3, 5)  # adjacent points
    with pytest.raises(ValueError):
        Diagonal(0, 5, 5)  # the wrap-around side
    with pytest.raises(ValueError):
        Diagonal(4, 2, 5)
    assert Diagonal.parse("0-4", 5) == d(0, 4, 5)


def test_remainder_set_examples():
    assert remainder_set(3, 5) == {1, 3}
    assert remainder_set(5, 8) == {1, 3, 4, 6}


@pytest.mark.parametrize("a,k", [(2, 1), (3, 2), (4, 3), (5, 1)])
def test_remainder_set_fuss_pattern(a, k):
    assert remainder_set(a, k * a + 1) == {k * i for i in range(1, a)}


def test_remainder_set_validation():
    with pytest.raises(NotCoprimeError):
        remainder_set(2, 4)
    with pytest.raises(BadOrderError):
        remainder_set(5, 3)
    with pytest.raises(BadOrderError):
        remainder_set(0, 3)


def test_is_admissible_examples():
    assert is_admissible(d(0, 2, 5), 3, 5) is True
    assert is_admissible(d(0, 3, 5), 3, 5) is False
    assert is_admissible(d(0, 3, 5), 2, 5) is True


def test_all_admissible_examples():
    got = all_admissible_diagonals(3, 5)
    assert set(got) == {d(0, 2, 5), d(1, 3, 5), d(2, 4, 5), d(3, 5, 5), d(0, 4, 5), d(1, 5, 5)}
    assert list(got) == sorted(got, key=lambda x: x.key())
    assert set(all_admissible_diagonals(2, 5)) == {d(0, 3, 5), d(1, 4, 5), d(2, 5, 5)}


@pytest.mark.parametrize("b", [3, 4, 5, 6, 7, 8])
def test_classical_pair_admits_everything(b):
    assert len(all_admissible_diagonals(b - 1, b)) == comb(b + 1, 2) - (b + 1)


def test_crosses_examples():
    assert crosses(d(0, 4, 5), d(1, 5, 5)) is True
    assert crosses(d(0, 4, 5), d(2, 4, 5)) is False  # shared endpoint
    assert crosses(d(1, 3, 5), d(0, 4, 5)) is False  # nested


def test_crosses_is_symmetric_irreflexive_and_blind_to_shared_endpoints():
    diags = all_diagonals(8)
    for x in diags:
        assert not crosses(x, x)
    for x, y in combinations(diags, 2):
        assert crosses(x, y) == crosses(y, x)
        if {x.i, x.j} & {y.i, y.j}:
            assert not crosses(x, y)


def test_translate_examples():
    assert translate(d(4, 8, 8), 2) == d(2, 6, 8)
    assert translate(d(0, 4, 8), 1) is None
    assert translate(d(1, 3, 8), 0) == d(1, 3, 8)
    assert translate(d(1, 3, 8), -5) == d(6, 8, 8)
    assert translate(d(1, 4, 8), -5) is None


@pytest.mark.parametrize("a,b", coprime_pairs(max_b=9))
def test_admissible_count_is_rotation_invariant(a, b):
    """Shifting every diagonal by one keeps admissibility wherever defined."""
    adm = set(all_admissible_diagonals(a, b))
    for diag in all_diagonals(b):
        shifted = translate(diag, -1)
        if shifted is not None:
            assert (diag in adm) == (shifted in adm)


@pytest.mark.parametrize("b", [3, 4, 5, 6, 7, 8, 9, 10, 11])
def test_admissible_sets_partition_all_diagonals(b):
    everything = set(all_diagonals(b))
    for a in range(1, b):
        if gcd(a, b) != 1:
            continue
        mine = set(all_admissible_diagonals(a, b))
        dual = set(all_admissible_diagonals(b - a, b))
        assert not mine & dual
        assert mine | dual == everything


@pytest.mark.parametrize("a,b", coprime_pairs(max_b=12))
def test_admissible_by_ends_is_the_admissible_filter_of_all_diagonals(a, b):
    by_ends = admissible_by_ends(a, b)
    assert list(by_ends) == [(x.i, x.j) for x in all_diagonals(b) if is_admissible(x, a, b)]
    ground = all_admissible_diagonals(a, b)
    assert [(ground[p].i, ground[p].j) for p in by_ends.values()] == list(by_ends)
    assert len(by_ends) == len(ground)
