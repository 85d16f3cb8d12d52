from __future__ import annotations

import json
import sys
from collections import Counter

import pytest

from ratassoc import (
    CapExceededError,
    Diagonal,
    FHVector,
    InvariantViolationError,
    NonIntegralError,
    SimplicialComplex,
    all_admissible_diagonals,
    build_ass,
    build_hat_ass,
    cli,
    complexes,
    facet_of,
    rational_catalan,
    rational_kirkman,
    rational_narayana,
)
from ratassoc.complexes import (
    clique_complex,
    clique_walk,
    maximal_cliques,
)
from ratassoc.lattice import DyckFacets, enumerate_dyck_paths
from ratassoc.polygon import admissible_compatibility, compatibility_masks

from helpers import (
    SMALL_GRAPHS,
    ass,
    bron_kerbosch,
    closure,
    coprime_pairs,
    dyck_paths,
    flag_witness,
    graph_complex,
    hat,
    is_fuss,
    maximal_masks,
    obstruction_graph,
    polygon_dissections,
    skeleton_adjacency,
    skeleton_of_facets,
    weighted_clique_tree,
)


def d(i, j, b=5):
    return Diagonal(i, j, b)


def test_hat_3_5_structure():
    cpx = hat(3, 5)
    assert len(cpx.ground) == 6
    facets = cpx.facets()
    triangles = [f for f in facets if len(f) == 3]
    assert {frozenset(t) for t in triangles} == {
        frozenset({d(0, 2), d(0, 4), d(2, 4)}),
        frozenset({d(1, 3), d(1, 5), d(3, 5)}),
    }
    assert cpx.n_faces == 18
    assert len({len(f) for f in facets}) > 1  # not pure


def test_hat_2_3_is_two_points():
    cpx = hat(2, 3)
    assert set(cpx.ground) == {Diagonal(0, 2, 3), Diagonal(1, 3, 3)}
    assert {frozenset(f) for f in cpx.facets()} == {
        frozenset({Diagonal(0, 2, 3)}),
        frozenset({Diagonal(1, 3, 3)}),
    }
    assert 0 in cpx.mask_set


@pytest.mark.parametrize("a,b", [(2, 3), (3, 4), (2, 5), (3, 7), (4, 9), (4, 5), (5, 11)])
def test_models_coincide_at_fuss_level(a, b):
    assert is_fuss(a, b)
    assert hat(a, b).ground == ass(a, b).ground
    assert hat(a, b).mask_set == ass(a, b).mask_set


@pytest.mark.parametrize("a,b", [(3, 5), (5, 8), (4, 7), (5, 7), (3, 8), (7, 9)])
def test_path_model_is_strict_subcomplex_outside_fuss(a, b):
    assert not is_fuss(a, b)
    assert ass(a, b).mask_set < hat(a, b).mask_set


def test_ass_facet_counts():
    assert len(ass(3, 5).facets()) == 7
    assert len(ass(5, 8).facets()) == 99


@pytest.mark.parametrize("a,b", coprime_pairs(max_sum=12))
def test_ass_is_pure_with_catalan_facets(a, b):
    cpx = ass(a, b)
    facets = cpx.facets()
    assert len(facets) == rational_catalan(a, b)
    assert all(len(f) == a - 1 for f in facets)
    assert len(cpx.f_vector_counts()) - 2 == a - 2


def test_f_vector_examples():
    assert FHVector.of(ass(3, 5)).f == (1, 6, 7)
    point = graph_complex([d(0, 2)], 0b1, [])
    assert FHVector.of(point).f == (1, 1)
    fh58 = FHVector.of(ass(5, 8))
    assert fh58.f == tuple(rational_kirkman(5, 8, i) for i in range(1, 6))


def test_h_vector_examples():
    assert FHVector.of(ass(3, 5)).h == (1, 4, 2)
    simplex = graph_complex([d(0, 2), d(0, 3), d(0, 4)], 0b111, [(0, 1), (0, 2), (1, 2)])
    assert FHVector.of(simplex).h == (1, 0, 0, 0)
    assert FHVector.of(ass(5, 8)).h == tuple(rational_narayana(5, 8, i) for i in range(1, 6))


def test_fh_top_term_consistency():
    for a, b in coprime_pairs(max_sum=11):
        fh = FHVector.of(ass(a, b))
        assert sum(fh.h) == fh.f[-1]


def test_fh_vector_derives_h_from_f():
    fh = FHVector.of(ass(3, 5))
    assert FHVector(fh.f) == fh
    with pytest.raises(TypeError):
        FHVector(fh.f, (1, 4, 3))


def test_fh_vector_of_the_void_complex_is_empty():
    assert FHVector(()).f == FHVector(()).h == ()


def test_formula_examples():
    assert rational_catalan(3, 5) == 7
    assert rational_kirkman(3, 5, 2) == 6
    assert rational_narayana(5, 8, 5) == 7


def test_formula_validation():
    with pytest.raises(ValueError):
        rational_kirkman(3, 5, 0)
    with pytest.raises(ValueError):
        rational_narayana(3, 5, 4)


def test_exact_division_guard():
    from ratassoc.complexes import _exact_div

    with pytest.raises(NonIntegralError):
        _exact_div(7, 3, "guard")


def test_is_flag_on_models():
    """Every minimal non-face of either model's face set is an edge."""
    for a, b in coprime_pairs(max_b=9):
        assert flag_witness(ass(a, b).mask_set) is None
        assert flag_witness(hat(a, b).mask_set) is None


@pytest.mark.parametrize("a,b", coprime_pairs(max_b=10))
def test_path_model_is_the_closure_of_its_dyck_facets(a, b):
    cpx = ass(a, b)
    facets = [cpx._mask_of(facet_of(p)) for p in dyck_paths(a, b)]
    assert closure(facets) == cpx.mask_set


@pytest.mark.parametrize("a,b", coprime_pairs(max_b=10))
def test_hat_facets_are_the_scanned_maximal_faces(a, b):
    """The facets read off the graph are the faces of the face set that lie
    in no larger face."""
    cpx = hat(a, b)
    scanned = sorted(sorted(maximal_masks(cpx.mask_set)), key=int.bit_count)
    assert cpx._compute_facet_masks() == tuple(scanned)
    assert cpx.facets() == [cpx._face_of(m) for m in scanned]


@pytest.mark.parametrize("b", [2, 3, 7])
def test_a_equal_one_is_the_empty_face(b):
    for cpx in (build_ass(1, b), build_hat_ass(1, b)):
        assert cpx.mask_set == {0} and cpx.ground == ()
        assert cpx.facets() == [frozenset()]


def test_build_ass_rejects_a_skeleton_with_other_maximal_cliques(monkeypatch):
    # three "facets" that are the edges of a triangle: Cat(2,5) = 3 of them,
    # but the triangle itself is a clique of their skeleton and no facet
    bit = {x: 1 << p for p, x in enumerate(all_admissible_diagonals(2, 5))}
    v03, v14, v25 = bit[d(0, 3)], bit[d(1, 4)], bit[d(2, 5)]
    masks = [v03 | v14, v14 | v25, v03 | v25]
    fakes = DyckFacets(masks, *skeleton_of_facets(masks, len(bit)))
    monkeypatch.setattr(complexes, "enumerate_dyck_paths", lambda a, b: fakes)
    with pytest.raises(InvariantViolationError, match="not the Dyck facets"):
        build_ass(2, 5)


def test_build_ass_rejects_a_repeated_facet(monkeypatch):
    # Cat(5,8) = 99 distinct masks with one of them listed twice: the
    # distinct count alone would pass
    facets = enumerate_dyck_paths(5, 8)
    fakes = DyckFacets([*facets, facets[0]], facets.adj, facets.vertices)
    monkeypatch.setattr(complexes, "enumerate_dyck_paths", lambda a, b: fakes)
    with pytest.raises(InvariantViolationError) as err:
        build_ass(5, 8)
    assert str(err.value) == (
        "(5,8) facets do not biject with Dyck paths: 100 listed, 99 distinct, Cat = 99"
    )


def test_is_flag_witness_on_hollow_triangle():
    # three mutually noncrossing diagonals, all pairs present, no 2-face
    verts = [d(0, 2, 6), d(0, 4, 6), d(2, 4, 6)]
    hollow = closure([0b011, 0b101, 0b110])
    assert flag_witness(hollow) == 0b111
    assert flag_witness(hollow | {0b111}) is None
    filled = graph_complex(verts, 0b111, [(0, 1), (0, 2), (1, 2)])
    assert filled.mask_set == hollow | {0b111}


def without(cpx, drop_vertices=0, drop_edges=()) -> SimplicialComplex:
    """The clique complex of the graph of ``cpx`` less the vertices in the
    mask ``drop_vertices`` and the edges ``drop_edges``, each a pair of
    ground positions."""
    adj, vertices = cpx._graph
    rows = [0 if drop_vertices >> u & 1 else row & ~drop_vertices for u, row in enumerate(adj)]
    for u, v in drop_edges:
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
    return SimplicialComplex(cpx.ground, rows, vertices & ~drop_vertices, cpx.a, cpx.b)


def test_deletion_examples():
    """Deleting a vertex from the graph deletes exactly the faces that hold
    it; deleting nothing leaves the complex."""
    cpx = hat(3, 5)
    v = d(0, 2)
    deleted = without(cpx, cpx._bit[v])
    assert all(v not in f for f in deleted.faces())
    assert deleted.n_faces == sum(1 for f in cpx.faces() if v not in f)
    assert deleted.mask_set == {m for m in cpx.mask_set if not m & cpx._bit[v]}
    unchanged = without(cpx)
    assert unchanged.ground == cpx.ground and unchanged.mask_set == cpx.mask_set


@pytest.mark.parametrize("a,b", coprime_pairs(max_b=10))
def test_deleting_obstruction_edges_yields_path_model(a, b):
    graph = obstruction_graph(a, b)
    edges = [hat(a, b)._mask_of(e.pair()) for e in graph.edges]
    kept = {m for m in hat(a, b).mask_set if not any(m & e == e for e in edges)}
    assert kept == ass(a, b).mask_set
    # the edges are exactly the noncrossing pairs the path model's skeleton lacks
    ground = ass(a, b).ground
    index = {v: i for i, v in enumerate(ground)}
    compat = compatibility_masks(ground)
    skeleton = skeleton_adjacency(ass(a, b).mask_set, len(ground))
    missing = {(u, v) for u in range(len(ground)) for v in range(u + 1, len(ground))
               if compat[u] >> v & 1 and not skeleton[u] >> v & 1}
    assert {tuple(sorted((index[e.lesser], index[e.greater]))) for e in graph.edges} == missing


def test_build_caps():
    with pytest.raises(CapExceededError):
        build_hat_ass(8, 15)
    with pytest.raises(CapExceededError):
        build_ass(8, 15)


def _forbid_face_listing(monkeypatch) -> None:
    def listed(*args):
        raise AssertionError("clique_complex ran")

    monkeypatch.setattr(complexes, "clique_complex", listed)


def _cli_build(capsys, monkeypatch, cap: int, *argv: str) -> tuple[int, str, str]:
    monkeypatch.setenv("RATASSOC_FACE_CAP", str(cap))
    code = cli.main(["build", *argv])
    out, err = capsys.readouterr()
    return code, out, err


def test_hat_cap_refuses_before_the_clique_walk(capsys, monkeypatch):
    # (8,13): the Kirkman sum is under the cap, the noncrossing model is not;
    # build's exact clique count refuses it, and no face is listed on the way
    assert sum(rational_kirkman(8, 13, i) for i in range(1, 9)) == 89_155 < 100_000
    compat = admissible_compatibility(8, 13)
    assert sum(clique_walk(compat, (1 << len(compat)) - 1).counts) == 354_875
    _forbid_face_listing(monkeypatch)
    code, out, err = _cli_build(capsys, monkeypatch, 100_000,
                                "--model", "hat", "--a", "8", "--b", "13", "--full-faces")
    assert code == cli.EXIT_CAP and out == ""
    assert err == "cap exceeded: (8,13) has 354875 faces, over the face cap 100000\n"
    # the builder holds the graph alone: the walk and the faces wait for a reader
    cpx = build_hat_ass(8, 13)
    assert cpx._walk is None and cpx._masks is None
    assert cpx.n_faces == 354_875 and len(cpx.f_vector_counts()) - 2 == 10
    with pytest.raises(AssertionError, match="clique_complex ran"):
        cpx.mask_set


def test_hat_cap_count_is_exact_at_the_boundary(capsys, monkeypatch):
    n = hat(5, 8).n_faces
    full = ("--model", "hat", "--a", "5", "--b", "8", "--full-faces")
    code, out, _ = _cli_build(capsys, monkeypatch, n, *full)
    assert code == cli.EXIT_OK and len(json.loads(out)["faces"]) == n
    _forbid_face_listing(monkeypatch)
    code, out, _ = _cli_build(capsys, monkeypatch, n, *full[:-1])
    assert code == cli.EXIT_OK and len(json.loads(out)["facets"]) == len(hat(5, 8).facets())
    code, out, err = _cli_build(capsys, monkeypatch, n - 1, *full)
    assert code == cli.EXIT_CAP and out == ""
    assert err == f"cap exceeded: (5,8) has {n} faces, over the face cap {n - 1}\n"


@pytest.mark.parametrize("b", range(2, 10))
def test_polygon_dissections_count_the_full_noncrossing_model(b):
    assert polygon_dissections(b) == build_hat_ass(b - 1, b).n_faces


@pytest.mark.parametrize("b", range(3, 15))
def test_counting_walk_gives_the_dissections_of_delta_b(b):
    """Delta_b = hat(b-1, b), every noncrossing set of diagonals of the
    (b+1)-gon: no face set is built, so b = 13 and 14 are in reach though
    their models have over 10**7 faces.  It is a (b-3)-sphere, and its
    matching tree leaves one critical cell, of b-2 diagonals."""
    compat = admissible_compatibility(b - 1, b)
    walk = clique_walk(compat, (1 << len(compat)) - 1)
    assert sum(walk.counts) == polygon_dissections(b)
    assert [m.bit_count() for m in walk.cells] == [b - 2]


def test_clique_walk_needs_no_recursion():
    """An edgeless graph on more vertices than the recursion limit: one
    split per vertex, n points, and n-1 critical vertices for the n-1
    components beyond the first."""
    n = sys.getrecursionlimit() + 200
    walk = clique_walk([0] * n, (1 << n) - 1)
    assert walk.counts == (1, n)
    assert len(walk.cells) == n - 1 and all(m.bit_count() == 1 for m in walk.cells)


def test_maximal_cliques_needs_no_recursion():
    """A complete and an edgeless graph on more vertices than the recursion
    limit: a chain of n search states gives the one clique of all, and one
    state of n leaf branches gives the n points."""
    n = sys.getrecursionlimit() + 200
    everyone = (1 << n) - 1
    complete = [everyone ^ 1 << v for v in range(n)]
    assert maximal_cliques(complete, everyone) == [everyone]
    assert sorted(maximal_cliques([0] * n, everyone)) == [1 << v for v in range(n)]


@pytest.mark.parametrize("name", SMALL_GRAPHS)
def test_maximal_cliques_of_small_graphs(name):
    adj, vertices, expected = SMALL_GRAPHS[name]
    found = maximal_cliques(adj, vertices)
    assert sorted(found) == sorted(expected)
    assert sorted(bron_kerbosch(adj, vertices)) == sorted(expected)


@pytest.mark.parametrize("a,b", coprime_pairs(max_b=12))
def test_maximal_cliques_match_the_unmemoised_search(a, b):
    """On both models' graphs the memoised walk lists the cliques that the
    search without the memo lists, each once."""
    for adj, vertices in (hat(a, b)._graph, ass(a, b)._graph):
        found = maximal_cliques(adj, vertices)
        assert len(set(found)) == len(found)
        assert set(found) == set(bron_kerbosch(adj, vertices))


@pytest.mark.parametrize("a,b", coprime_pairs(max_b=11))
def test_graph_walks_agree_with_the_face_set(a, b):
    """On each model's graph, the clique walk counts the sizes of the faces
    the face walk lists and leaves the cells the weighted matching tree
    leaves unmatched, in the same order, and the maximal cliques are the
    maximal faces.  Where the two models coincide, so do their graphs,
    checked once."""
    graphs = {(tuple(adj), vertices) for adj, vertices in
              (build_hat_ass(a, b)._graph, build_ass(a, b)._graph)}
    for adj, vertices in graphs:
        faces = clique_complex(adj, vertices)
        sizes = Counter(map(int.bit_count, faces))
        walk = clique_walk(adj, vertices)
        assert walk.counts == tuple(sizes[k] for k in range(len(sizes)))
        assert set(maximal_cliques(adj, vertices)) == maximal_masks(faces)
        count, unmatched = weighted_clique_tree(adj, vertices, len(faces))
        assert count == len(faces)
        assert list(walk.cells) == unmatched


def test_a_deletion_reads_its_own_faces():
    """The noncrossing model's graph less the obstruction edges is a complex
    of its own: it walks its own graph, builds no face set, and has the
    path model's face counts and facets."""
    cpx = build_hat_ass(5, 8)
    edges = [tuple(cpx.ground.index(x) for x in e.pair()) for e in obstruction_graph(5, 8).edges]
    kept = without(cpx, drop_edges=edges)
    assert kept.f_vector_counts() == ass(5, 8).f_vector_counts()
    assert kept.facets() == ass(5, 8).facets()
    assert kept._masks is None and cpx._masks is None
    assert kept.ground == ass(5, 8).ground and kept.mask_set == ass(5, 8).mask_set


def test_json_round_trip():
    """The closure of the facets ``to_json`` lists is the face set, and
    ``include_faces`` lists that face set."""
    cpx = ass(3, 5)
    doc = cpx.to_json(include_faces=True)
    assert doc["schema"] == 1
    ground = [Diagonal(i, j, doc["b"]) for i, j in doc["ground"]]
    assert tuple(ground) == cpx.ground

    def masks(faces):
        return [sum(1 << ground.index(Diagonal(i, j, 5)) for i, j in face) for face in faces]

    assert closure(masks(doc["facets"])) == cpx.mask_set
    assert sorted(masks(doc["faces"])) == sorted(cpx.mask_set)
    assert cpx.to_json() == {k: v for k, v in doc.items() if k != "faces"}
