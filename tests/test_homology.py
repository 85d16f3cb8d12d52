from __future__ import annotations

import random
import re
from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratassoc import (
    Diagonal,
    InvariantViolationError,
    SimplicialComplex,
    alexander_duality_check,
    alexander_partition_check,
    betti_numbers,
    build_ass,
    build_hat_ass,
    homology,
)
from ratassoc.complexes import bit_positions, clique_walk
from ratassoc.homology import FIELDS, _reduce_cells

from helpers import (
    ass,
    build_matrices,
    check_dd_zero,
    closure,
    coprime_pairs,
    direct_betti,
    flag_witness,
    graph_complex,
    graph_complexes,
    hat,
    skeleton_adjacency,
)


def test_betti_examples():
    assert betti_numbers(ass(3, 5), "gf2").nonzero() == {1: 2}
    assert betti_numbers(ass(5, 8), "q").nonzero() == {3: 7}
    assert betti_numbers(ass(2, 3), "gf2").nonzero() == {0: 1}


def test_full_simplex_is_acyclic():
    verts = [Diagonal(0, k, 9) for k in range(2, 7)]
    simplex = graph_complex(verts, 0b11111, combinations(range(5), 2))
    for field in ("gf2", "q"):
        assert betti_numbers(simplex, field).nonzero() == {}


def test_lonely_empty_face_complex():
    cpx = ass(1, 4)
    assert len(cpx.f_vector_counts()) - 2 == -1
    assert betti_numbers(cpx, "gf2").nonzero() == {-1: 1}
    assert direct_betti(cpx, "q").nonzero() == {-1: 1}


def test_boundary_squared_vanishes():
    for a, b in [(3, 5), (5, 8), (4, 7)]:
        by_dim, mats = build_matrices(set(ass(a, b).mask_set))
        check_dd_zero(by_dim, mats)


@pytest.mark.parametrize("a,b", coprime_pairs(max_sum=12))
def test_reduction_agrees_with_direct_ranks(a, b):
    for cpx in (ass(a, b), hat(a, b)):
        for field in ("gf2", "q"):
            fast = betti_numbers(cpx, field)
            slow = direct_betti(cpx, field)
            assert fast.values == slow.values


def check_betti_or_refusal(cpx, direct) -> None:
    """With the walk's critical cells in one dimension, ``betti_numbers``
    equals ``direct`` on both fields.  Otherwise it refuses, naming each
    dimension with its cell count, and those counts bound the direct Betti
    numbers from above (the weak Morse inequalities)."""
    cells = Counter(m.bit_count() - 1 for m in cpx.clique_walk().cells)
    if len(cells) <= 1:
        for field in FIELDS:
            assert betti_numbers(cpx, field).values == direct[field].values
        return
    spread = ", ".join(f"{n} in dimension {k}" for k, n in sorted(cells.items()))
    for field in FIELDS:
        with pytest.raises(InvariantViolationError, match=re.escape(f"({spread})")):
            betti_numbers(cpx, field)
        assert all(cells[k] >= v for k, v in direct[field].nonzero().items())


def test_reduction_agrees_on_random_subcomplexes():
    """Clique complexes of random subgraphs of the path model's skeleton:
    some vertices and about half of the edges among them."""
    rng = random.Random(20130815)
    for a, b in [(4, 7), (5, 8), (5, 7)]:
        model = ass(a, b)
        adj, vertices = model._graph
        for _ in range(4):
            kept = sum(1 << p for p in bit_positions(vertices) if rng.random() < 0.8)
            edges = [(u, v) for u in bit_positions(kept) for v in bit_positions(adj[u] & kept)
                     if u < v and rng.random() < 0.5]
            cpx = graph_complex(model.ground, kept, edges, a, b)
            check_betti_or_refusal(cpx, {f: direct_betti(cpx, f) for f in FIELDS})


# nine vertices, some of which may lie in no face at all
VERTICES = [Diagonal(0, k, 12) for k in range(2, 11)]


@settings(max_examples=150, deadline=None)
@given(graph_complexes(VERTICES))
def test_reduction_agrees_with_direct_on_random_families(cpx):
    """Clique complexes of random graphs: isolated vertices, several
    components and the lone empty face (no vertices) included."""
    direct = {f: direct_betti(cpx, f) for f in FIELDS}
    check_betti_or_refusal(cpx, direct)
    cells, counts = cpx.clique_walk().cells, cpx.f_vector_counts()
    # a second reading sees the same cells and face counts, walked once and
    # kept; a fresh object gives the same
    walk = cpx._walk
    check_betti_or_refusal(cpx, direct)
    sizes = [m.bit_count() for m in cpx.mask_set]
    assert counts == tuple(sizes.count(k) for k in range(len(counts)))
    assert cpx.clique_walk().cells == cells and cpx.f_vector_counts() == counts
    assert walk is not None and cpx._walk is walk
    fresh = SimplicialComplex(cpx.ground, *cpx._graph, None, None)
    check_betti_or_refusal(fresh, direct)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sets(st.integers(0, len(VERTICES) - 1), max_size=5), max_size=8))
def test_is_flag_agrees_with_brute_force_on_random_families(facets):
    """The flag oracle's verdict is whether every clique of the 1-skeleton
    is a face; a witness is a missing clique all of whose facets are faces.
    The clique complex of the skeleton is flag and holds the family."""
    masks = closure(sum(1 << i for i in f) for f in facets)
    present = [1 << p for p in range(len(VERTICES)) if 1 << p in masks]

    def is_clique(m):
        return all(m & u == 0 or m & v == 0 or u | v in masks
                   for u in present for v in present if u < v)

    subsets = [sum(bit for i, bit in enumerate(present) if chosen >> i & 1)
               for chosen in range(1 << len(present))]
    witness = flag_witness(masks)
    is_flag = all(m in masks for m in subsets if is_clique(m))
    assert (witness is None) == is_flag
    if witness is not None:
        assert is_clique(witness) and witness not in masks
        assert all(witness ^ bit in masks for bit in present if witness & bit)
    filled = SimplicialComplex(VERTICES, skeleton_adjacency(masks, len(VERTICES)),
                               sum(present), None, None)
    assert filled.mask_set == {m for m in subsets if is_clique(m)} >= masks
    assert flag_witness(filled.mask_set) is None


def _skeleton(cpx):
    """The 1-skeleton read from the face set, not from a built model's graph."""
    n = len(cpx.ground)
    vertices = sum(1 << p for p in range(n) if 1 << p in cpx.mask_set)
    return skeleton_adjacency(cpx.mask_set, n), vertices


@pytest.mark.parametrize("model", [ass, hat], ids=["ass", "hat"])
@pytest.mark.parametrize("a,b", coprime_pairs(max_b=10) + [(7, 12)])
def test_reduction_leaves_one_cell_per_sphere(a, b, model):
    """Both models are flag and their matching trees are perfect: the cells
    left are C(b,a)/b critical cells with a-1 diagonals each.  Falling back
    to direct ranks would leave every face.  The model's graph and the
    skeleton read from its face set leave the same cells."""
    cpx = model(a, b)
    cells = _reduce_cells(cpx)
    assert len(cells) == comb(b, a) // b
    assert {m.bit_count() for m in cells} == {a - 1}
    assert _reduce_cells(SimplicialComplex(cpx.ground, *_skeleton(cpx), a, b)) == cells


@pytest.mark.parametrize("a,b", coprime_pairs(max_b=12))
def test_every_model_leaves_one_cell_per_sphere(a, b):
    """The precondition of homology's refusal: under the default caps both
    models' walks leave C(b,a)/b critical cells of a-1 diagonals each, with
    no face set built."""
    for cpx in (build_hat_ass(a, b), build_ass(a, b)):
        cells = cpx.clique_walk().cells
        assert len(cells) == comb(b, a) // b
        assert all(m.bit_count() == a - 1 for m in cells)
        assert cpx._masks is None


@pytest.mark.parametrize("a,b", coprime_pairs(max_b=10))
def test_clique_count_is_the_face_count_of_both_models(a, b):
    for cpx in (ass(a, b), hat(a, b)):
        adj, vertices = _skeleton(cpx)
        assert sum(clique_walk(adj, vertices).counts) == len(cpx.mask_set)


# (vertex mask, edges) over VERTICES
FOUR_CYCLE = (0b1111, [(0, 1), (1, 2), (2, 3), (0, 3)])
# three pairs of opposite vertices, each vertex adjacent to the four others
OCTAHEDRON = (0b111111, [(u, v) for u, v in combinations(range(6), 2) if u // 2 != v // 2])
POINT_AND_SQUARE = (0b11111, [(i, i % 4 + 1) for i in range(1, 5)])


@pytest.mark.parametrize(
    "graph,betti", [(FOUR_CYCLE, {1: 1}), (OCTAHEDRON, {2: 1})], ids=["four-cycle", "octahedron"]
)
def test_reduction_leaves_one_cell_on_a_flag_sphere(graph, betti):
    """A square is a circle and an octahedron a 2-sphere: the tree leaves
    one critical cell, in the sphere's dimension."""
    cpx = graph_complex(VERTICES, *graph)
    [cell] = _reduce_cells(cpx)
    assert {cell.bit_count() - 1: 1} == betti
    for field in ("gf2", "q"):
        vec = betti_numbers(cpx, field)
        assert vec.values == direct_betti(cpx, field).values
        assert vec.nonzero() == betti


@pytest.mark.parametrize(
    "graph,betti", [(POINT_AND_SQUARE, {0: 1, 1: 1})], ids=["point-and-square"]
)
def test_reduction_keeps_every_cell_when_the_tree_cannot_decide(graph, betti):
    """A point beside a square has homology in two dimensions, so the tree
    cannot be perfect: its critical cells lie in dimensions 0 and 1, and
    homology refuses them, naming both, while the direct ranks decide."""
    cpx = graph_complex(VERTICES, *graph)
    named = r"\(1 in dimension 0, 1 in dimension 1\)"
    with pytest.raises(InvariantViolationError, match=named):
        _reduce_cells(cpx)
    for field in FIELDS:
        with pytest.raises(InvariantViolationError, match=named):
            betti_numbers(cpx, field)
        assert direct_betti(cpx, field).nonzero() == betti


def test_clique_count_passes_the_face_count_of_a_hollow_triangle():
    """A hollow triangle is not flag: the clique walk of its skeleton counts
    the 2-face it lacks."""
    hollow = closure([0b011, 0b110, 0b101])
    adj = skeleton_adjacency(hollow, len(VERTICES))
    assert len(hollow) == 7
    assert clique_walk(adj, 0b111).counts == (1, 3, 3, 1)
    filled = SimplicialComplex(VERTICES, adj, 0b111, None, None)
    assert filled.mask_set == hollow | {0b111}
    assert filled.n_faces == 8


def test_euler_check_reports_integers(monkeypatch):
    """A reduction that loses a cell fails the Euler check, whose message
    gives both characteristics as integers."""
    reduce_cells = homology._reduce_cells

    def lossy(cpx):
        cells = reduce_cells(cpx)
        return sorted(cells)[1:]

    monkeypatch.setattr(homology, "_reduce_cells", lossy)
    with pytest.raises(InvariantViolationError, match=r"faces give -?\d+, Betti give -?\d+$"):
        betti_numbers(build_ass(5, 8), "gf2")


@pytest.mark.parametrize("a,b", [(2, 3), (3, 5), (2, 5), (4, 7), (5, 8)])
def test_wedge_examples(a, b):
    """The lattice-path model has the homology of a wedge of C(b,a)/b
    spheres of dimension a-2, over both fields."""
    for field in ("gf2", "q"):
        assert betti_numbers(ass(a, b), field).nonzero() == {a - 2: comb(b, a) // b}


def test_wedge_counts_match_quoted_values():
    for (a, b), spheres in {(3, 5): 2, (2, 3): 1, (4, 7): 5, (5, 8): 7}.items():
        assert spheres == comb(b, a) // b
        for field in ("gf2", "q"):
            assert betti_numbers(ass(a, b), field).nonzero() == {a - 2: spheres}


@pytest.mark.parametrize("a,b", [(3, 5), (5, 8), (4, 7), (5, 7), (3, 8)])
def test_collapse_preserves_betti(a, b):
    for field in ("gf2", "q"):
        left = betti_numbers(hat(a, b), field)
        right = betti_numbers(ass(a, b), field)
        assert left.nonzero() == right.nonzero()


def test_partition_checks():
    p5 = alexander_partition_check(5)
    assert p5.ok and p5.total_diagonals == 9
    assert (3, 6, 3) in p5.pairs
    p8 = alexander_partition_check(8)
    assert p8.ok and p8.total_diagonals == 27


def test_duality_examples():
    r = alexander_duality_check(3, 5, ass_left=ass(3, 5), ass_right=ass(2, 5))
    assert r.ok and r.rank_left == r.rank_right == 2
    r = alexander_duality_check(5, 8, ass_left=ass(5, 8), ass_right=ass(3, 8))
    assert r.ok and r.expected_rank == 7
    assert any("surrogate" in note for note in r.notes)


@pytest.mark.parametrize("b", [4, 5, 6, 7, 8])
def test_classical_model_is_a_sphere(b):
    vec = betti_numbers(ass(b - 1, b), "q")
    assert vec.nonzero() == {b - 3: 1}
