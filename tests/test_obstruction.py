from __future__ import annotations

from pathlib import Path

import pytest

from ratassoc import (
    AdmissibilityViolatedError,
    Diagonal,
    ObstructionEdge,
    all_admissible_diagonals,
    crossing_indices,
    half_wedge_completion,
    is_admissible,
    wedge_completion,
)

from helpers import coprime_pairs, is_fuss, obstruction_graph, translate

GOLDEN = Path(__file__).parent / "golden"


def d(i, j, b=8):
    return Diagonal(i, j, b)


def edge(i1, j1, i2, j2, a=5, b=8):
    return ObstructionEdge(a, Diagonal(i1, j1, b), Diagonal(i2, j2, b))


def test_og_3_5_edges():
    g = obstruction_graph(3, 5)
    assert [e.text() for e in g.edges] == ["0-4 2-4", "1-5 3-5"]


@pytest.mark.parametrize("a,b", [(2, 3), (3, 7), (4, 9), (2, 11), (4, 5), (10, 11)])
def test_fuss_graphs_have_no_edges(a, b):
    assert is_fuss(a, b)
    assert obstruction_graph(a, b).edges == ()


def test_og_5_8_against_golden_file():
    g = obstruction_graph(5, 8)
    text = "".join(e.text() + "\n" for e in g.edges)
    assert text == (GOLDEN / "og_5_8.txt").read_text()


def test_component_apex_8():
    g = obstruction_graph(5, 8)
    comp = g.component(8)
    assert [e.text() for e in comp.edges] == ["1-8 3-8", "1-8 6-8", "4-8 6-8"]


def test_components_0_and_1_empty():
    g = obstruction_graph(5, 8)
    assert g.component(0).edges == () and g.component(0).vertices == ()
    assert g.component(1).edges == () and g.component(1).vertices == ()


def test_component_6_is_disconnected():
    comp = obstruction_graph(5, 8).component(6)
    assert set(v.text() for v in comp.vertices) == {"1-6", "2-6", "4-6"}
    assert [e.text() for e in comp.edges] == ["2-6 4-6"]
    touched = {comp.edges[0].lesser, comp.edges[0].greater}
    isolated = [v for v in comp.vertices if v not in touched]
    assert isolated  # vertex 1-6 has no incident edge, so the piece splits


def test_edge_order_examples():
    g = obstruction_graph(5, 8)
    e1, e2 = g.edges[0], g.edges[1]
    assert (e1.text(), e2.text()) == ("0-4 2-4", "1-5 3-5")
    # the edge order is the order of sort keys, in which the graph lists them
    assert e1.sort_key() < e2.sort_key()
    keys = [e.sort_key() for e in g.edges]
    assert keys == sorted(set(keys))


def test_wedge_completion_examples():
    assert wedge_completion(edge(4, 8, 6, 8)) == d(4, 6)
    assert wedge_completion(edge(1, 8, 3, 8)) == d(1, 3)
    e35 = ObstructionEdge(3, Diagonal(0, 4, 5), Diagonal(2, 4, 5))
    assert wedge_completion(e35) == Diagonal(0, 2, 5)


def test_wedge_completion_guards():
    # {0-5, 1-5} is not an obstructing edge; its completion is a side
    with pytest.raises(AdmissibilityViolatedError, match="completion 0-1 .* not an admissible"):
        wedge_completion(edge(0, 5, 1, 5))
    # {1-8, 6-8}'s half completion at s = 2 is the side 1-2
    with pytest.raises(AdmissibilityViolatedError, match="half completion 1-2 .* not an admissible"):
        half_wedge_completion(edge(1, 8, 6, 8), 2, obstruction_graph(5, 8))


@pytest.mark.parametrize("a,b", coprime_pairs(max_b=10))
def test_crossing_indices_match_a_brute_force_oracle(a, b):
    """Each s between the lesser ends with s-k a diagonal, admissible, and
    not joined to j-k by an edge, found by building the diagonal afresh."""
    g = obstruction_graph(a, b)
    for e in g.edges:
        k, want = e.apex, []
        for s in range(e.lesser.i + 1, e.greater.i):
            try:
                sk = Diagonal(s, k, b)
            except ValueError:
                continue
            if is_admissible(sk, a, b) and not g.has_edge(sk, e.greater):
                want.append(s)
        assert crossing_indices(e, g) == want, e


def test_crossing_indices_examples():
    g = obstruction_graph(5, 8)
    assert crossing_indices(edge(1, 8, 6, 8), g) == [3]
    assert crossing_indices(edge(1, 8, 3, 8), g) == []
    g35 = obstruction_graph(3, 5)
    e35 = ObstructionEdge(3, Diagonal(0, 4, 5), Diagonal(2, 4, 5))
    assert crossing_indices(e35, g35) == []


def test_half_wedge_completion_example():
    g = obstruction_graph(5, 8)
    got = half_wedge_completion(edge(1, 8, 6, 8), 3, g)
    assert got == d(1, 3)
    assert g.has_edge(d(1, 8), d(3, 8))


def test_half_wedge_completion_for_apex_7_edge():
    g = obstruction_graph(5, 8)
    e = edge(0, 7, 5, 7)
    assert crossing_indices(e, g) == [2]
    assert half_wedge_completion(e, 2, g) == d(0, 2)
    assert g.has_edge(d(0, 7), d(2, 7))
    # s = 3 is not a crossing index ({3-7, 5-7} is itself an edge), and the
    # narrower-wedge conclusion fails for it: {0-7, 3-7} is not an edge
    with pytest.raises(AdmissibilityViolatedError):
        half_wedge_completion(e, 3, g)


@pytest.mark.parametrize("a,b", [p for p in coprime_pairs(max_sum=16, max_b=15)])
def test_translation_structure(a, b):
    """Every apex component is the apex-b component translated down, with
    vertices that fall off the polygon removed (and their edges with them)."""
    g = obstruction_graph(a, b)
    top = g.component(b)
    for m in range(b + 1):
        comp = g.component(m)
        expect_vertices = {
            t for t in (translate(v, b - m) for v in top.vertices) if t is not None
        }
        assert set(comp.vertices) == expect_vertices
        expect_edges = set()
        for e in top.edges:
            lo, hi = translate(e.lesser, b - m), translate(e.greater, b - m)
            if lo is not None and hi is not None:
                expect_edges.add(frozenset((lo, hi)))
        assert {e.pair() for e in comp.edges} == expect_edges


@pytest.mark.parametrize("a,b", coprime_pairs(max_sum=13))
def test_edges_share_larger_endpoint_and_match_membership(a, b):
    from itertools import combinations

    from ratassoc import crosses, is_face_of_ass

    g = obstruction_graph(a, b)
    for e in g.edges:
        assert e.lesser.j == e.greater.j
        assert e.lesser.i < e.greater.i
    pairs = {e.pair() for e in g.edges}
    for d1, d2 in combinations(all_admissible_diagonals(a, b), 2):
        if crosses(d1, d2):
            assert frozenset((d1, d2)) not in pairs
        else:
            assert (frozenset((d1, d2)) in pairs) == (not is_face_of_ass((d1, d2), a, b))


def test_dot_and_json_exports():
    g = obstruction_graph(3, 5)
    dot = g.to_dot()
    assert '"0-4" -- "2-4";' in dot
    assert dot.startswith('graph "obstruction_3_5"')
    doc = g.to_json()
    assert doc["schema"] == 1
    assert doc["edges"] == [[[0, 4], [2, 4]], [[1, 5], [3, 5]]]
