from __future__ import annotations

import copy
import json
import random
import signal
from dataclasses import replace
from functools import partial
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratassoc import (
    CollapseCertificate,
    Diagonal,
    InvariantViolationError,
    NotAFaceError,
    NotConeVertexError,
    ScheduleFailedError,
    SimplicialComplex,
    StageRecord,
    StageReplay,
    betti_numbers,
    build_ass,
    build_hat_ass,
    collapse_schedule,
    face_text,
    verify_certificate,
)
from ratassoc import collapse, complexes
from ratassoc.collapse import _cone_batch
from ratassoc.complexes import bit_positions, rational_kirkman
from ratassoc.polygon import compatibility_masks

from helpers import (
    SMALL_GRAPHS,
    ExplicitReplay,
    ass,
    closure,
    coprime_pairs,
    explicit_cone_batch,
    explicit_schedule,
    explicit_verify,
    graph_complex,
    graph_complexes,
    hat,
    is_fuss,
    obstruction_graph,
    rows_of,
    schedule,
)


def d(i, j, b):
    return Diagonal(i, j, b)


def face(b, *pairs):
    return frozenset(d(i, j, b) for i, j in pairs)


def cone_batch(cpx, target, cone):
    """The explicit cone batch on a copy of the faces of ``cpx``, with every
    vertex adjacent to every other: the removed (facet, subface) pairs in
    removal order, and the faces left."""
    masks = set(cpx.mask_set)
    everything = [(1 << len(cpx.ground)) - 1] * len(cpx.ground)
    cone_bit = cpx._bit[cone]
    smaller = explicit_cone_batch(masks, cpx._mask_of(target), cone_bit, everything)
    return [(cpx._face_of(m | cone_bit), cpx._face_of(m)) for m in smaller], masks


def exhaustive_verify(start, target, cert):
    return explicit_verify(start, target, cert, exhaustive=True)


def predicate_batch(cpx, target: int, cone: int):
    """The generator's batch on the graph of ``cpx``, every vertex free: its
    pair count, or the exception it raised; the graph is only read."""
    adj, vertices = cpx._graph
    rows = list(adj)
    try:
        result = _cone_batch(rows, vertices, target, cone)
    except (NotAFaceError, NotConeVertexError) as exc:
        result = (type(exc), str(exc), exc.witness)
    assert rows == list(adj)
    return result


def explicit_batch(cpx, target: int, cone: int):
    """:func:`predicate_batch`'s result, from the explicit batch on a copy of
    the face set of ``cpx``."""
    n = len(cpx.ground)
    try:
        return len(explicit_cone_batch(set(cpx.mask_set), target, cone, [(1 << n) - 1] * n))
    except (NotAFaceError, NotConeVertexError, InvariantViolationError) as exc:
        return (type(exc), str(exc), exc.witness)


def without_star(cpx, target) -> set[int]:
    """The faces of ``cpx`` that do not contain the face ``target``."""
    t = cpx._mask_of(target)
    return {m for m in cpx.mask_set if m & t != t}


def test_cone_batch_on_small_model():
    cpx = hat(3, 5)
    pairs, masks = cone_batch(cpx, face(5, (0, 4), (2, 4)), d(0, 2, 5))
    assert pairs == [(face(5, (0, 2), (0, 4), (2, 4)), face(5, (0, 4), (2, 4)))]
    assert masks == without_star(cpx, face(5, (0, 4), (2, 4)))


def test_cone_batch_on_full_simplex():
    verts = [d(0, 2, 5), d(0, 3, 5), d(0, 4, 5)]
    x, y, z = verts
    simplex = graph_complex(verts, 0b111, [(0, 1), (0, 2), (1, 2)])
    pairs, masks = cone_batch(simplex, [x], y)
    assert pairs == [
        (frozenset({x, y, z}), frozenset({x, z})),
        (frozenset({x, y}), frozenset({x})),
    ]
    assert masks == without_star(simplex, [x])


def test_cone_vertex_rejections():
    cpx = hat(3, 5)
    # 0-2 crosses 1-5, so it cannot cone the faces containing {1-5, 3-5}
    with pytest.raises(NotConeVertexError) as info:
        cone_batch(cpx, face(5, (1, 5), (3, 5)), d(0, 2, 5))
    assert info.value.witness is not None
    # a facet has no extension at all, so nothing can cone it
    with pytest.raises(NotConeVertexError):
        cone_batch(cpx, face(5, (0, 2), (0, 4), (2, 4)), d(1, 3, 5))
    with pytest.raises(NotAFaceError):
        cone_batch(cpx, face(5, (0, 4), (1, 5)), d(0, 2, 5))


def test_cone_batch_errors_carry_the_face_not_hex():
    # vertices 0..3, target {0}, cone 1; {0,2,3} is not reached by the upward
    # search (its face {0,2} is missing), so {0,3} has a second cofacet
    masks = {0b0001, 0b0011, 0b1001, 0b1011, 0b1101}
    everything = [0b1111] * 4
    with pytest.raises(InvariantViolationError) as info:
        explicit_cone_batch(set(masks), 0b0001, 0b0010, everything)
    assert info.value.witness == 0b1001
    assert "not free" in str(info.value) and "0x" not in str(info.value)
    with pytest.raises(NotAFaceError) as info:
        explicit_cone_batch(set(masks), 0b0100, 0b0010, everything)
    assert info.value.witness == 0b0100
    assert "0x" not in str(info.value)
    # the same target on a graph that lacks vertex 2: both sides refuse it
    cpx = graph_complex(VERTICES[:4], 0b1011, [(0, 1), (0, 3), (1, 3)])
    err = predicate_batch(cpx, 0b0100, 0b0010)
    assert err == explicit_batch(cpx, 0b0100, 0b0010)
    assert err == (NotAFaceError, "the target face is not in the complex", 0b0100)


def test_cone_batch_refuses_a_cone_in_the_target():
    with pytest.raises(NotConeVertexError, match="cone vertex already belongs to the face"):
        explicit_cone_batch({0, 0b01, 0b11}, 0b11, 0b10, [0b11] * 2)
    err = predicate_batch(graph_complex(VERTICES[:2], 0b11, [(0, 1)]), 0b11, 0b10)
    assert err == (NotConeVertexError, "cone vertex already belongs to the face", None)


NO_EXTENSION = "cone condition fails: a face has no extension"


@pytest.mark.parametrize("vertices,edges,free,expected", [
    # the cone is no free vertex: the target itself has no extension
    (0b111, [(0, 1), (0, 2), (1, 2)], 0b101, ("face", 0b001)),
    # the cone is not adjacent to the target
    (0b111, [(0, 2), (1, 2)], 0b111, ("face", 0b001)),
    # the cone misses vertex 2 of the link {1, 2, 3}: the target plus 2
    (0b1111, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)], 0b1111, ("face", 0b0101)),
    # the link is the cone alone: one pair, the target and the target + cone
    (0b111, [(0, 1), (1, 2)], 0b111, ("pairs", 1)),
])
def test_cone_batch_decides_by_the_link(vertices, edges, free, expected):
    """Target vertex 0, cone vertex 1, on small graphs: the generator's
    batch fails or counts as the explicit batch on the faces within
    ``free`` does, and a failure names its own face."""
    target, cone = 0b01, 0b10
    cpx = graph_complex(VERTICES[:vertices.bit_length()], vertices, edges)
    adj = list(cpx._graph[0])
    try:
        got = ("pairs", _cone_batch(adj, free, target, cone))
    except NotConeVertexError as exc:
        assert str(exc) == NO_EXTENSION
        got = ("face", exc.witness)
    assert got == expected and adj == list(cpx._graph[0])
    kept = [(u, v) for u, v in edges if free >> u & free >> v & 1]
    oracle = explicit_batch(graph_complex(cpx.ground, free, kept), target, cone)
    if expected[0] == "pairs":
        assert oracle == expected[1]
    else:
        assert oracle[:2] == (NotConeVertexError, NO_EXTENSION)


def test_cone_batch_refuses_a_star_its_pairs_do_not_cover():
    # 0b101 is missing, so the star face 0b111 is left with no pair
    masks = {0, 0b001, 0b011, 0b111}
    with pytest.raises(InvariantViolationError, match="cone pairing does not partition the star"):
        explicit_cone_batch(masks, 0b001, 0b010, [0b111] * 3)
    assert masks == {0, 0b111}


@pytest.mark.parametrize("a,b", [(2, 3), (3, 4), (3, 7), (4, 9), (2, 11)])
def test_schedule_is_empty_at_fuss_level(a, b):
    assert is_fuss(a, b)
    assert schedule(a, b).n_steps == 0


def test_schedule_3_5_shape():
    cert = schedule(3, 5)
    assert cert.n_steps == 2
    assert len(hat(3, 5).mask_set - ass(3, 5).mask_set) == 4
    assert [(s.r, s.q, s.cone.text(), face_text(s.target), s.n_steps) for s in cert.stages] == [
        (2, 1, "1-3", "1-5,3-5", 1),
        (1, 1, "0-2", "0-4,2-4", 1),
    ]
    # the verifier's expansion of the stages removes exactly these two pairs
    replay = StageReplay(hat(3, 5), cert)
    assert replay.run(cert.stages) is None and replay.steps_applied == 2
    left = replay.current_faces()
    removed = {face_text(hat(3, 5)._face_of(m)) for m in hat(3, 5).mask_set - left}
    assert removed == {"1-3,1-5,3-5", "1-5,3-5", "0-2,0-4,2-4", "0-4,2-4"}


def test_schedule_5_8_stage_structure():
    cert = schedule(5, 8)
    heads = [(s.r, s.q, s.cone.text()) for s in cert.stages]
    # edges are processed descending; the two-phase stage for the wide
    # wedge at r=8 goes through the crossing triple first
    assert heads[:4] == [(9, 1, "4-6"), (8, 1, "1-3"), (8, 2, "1-6"), (7, 1, "1-3")]
    assert [s.r for s in cert.stages] == sorted([s.r for s in cert.stages], reverse=True)
    first = cert.stages[1]
    assert first.target == face(8, (1, 8), (3, 8), (6, 8))


@pytest.mark.parametrize("a,b", [p for p in coprime_pairs(max_b=9)] + [(5, 8)])
def test_schedule_and_verification(a, b):
    cert = schedule(a, b)
    report = verify_certificate(hat(a, b), ass(a, b), cert)
    assert report.ok, report
    assert report.terminal_face_count == ass(a, b).n_faces
    # the pairs removed are exactly the faces of hat outside ass, matched up
    assert 2 * report.steps_applied == hat(a, b).n_faces - ass(a, b).n_faces
    if is_fuss(a, b):
        assert cert.n_steps == 0


@pytest.mark.parametrize("a,b", [(3, 5), (4, 7), (5, 8)])
def test_start_complex_is_collapsed_in_place(a, b):
    """Neither the generator nor the replay changes the start complex: its
    faces, facets and face counts stay the noncrossing model's, and the
    replay counts the terminal faces as the start's less two per pair."""
    start = build_hat_ass(a, b)
    facets, counts = start.facets(), start.f_vector_counts()
    report = verify_certificate(start, ass(a, b), schedule(a, b))
    assert report.ok
    assert report.terminal_face_count == hat(a, b).n_faces - 2 * report.steps_applied
    assert report.terminal_face_count == ass(a, b).n_faces
    collapse_schedule(a, b, hat=start, ass=ass(a, b), graph=obstruction_graph(a, b))
    assert start.mask_set == hat(a, b).mask_set
    assert start.facets() == facets == hat(a, b).facets()
    assert start.f_vector_counts() == counts == hat(a, b).f_vector_counts()


@pytest.mark.parametrize("a,b", [(3, 5), (4, 7), (5, 8), (5, 9)])
@pytest.mark.parametrize("consumer", ["collapse_schedule", "verify_certificate"])
def test_a_collapsed_model_forgets_its_graph(a, b, consumer):
    """A freshly built model keeps its graph through the collapse and the
    replay, and neither builds its face set: the current complex is read
    off the graph.  Its invariants stay the noncrossing model's."""
    start, model = build_hat_ass(a, b), build_ass(a, b)
    before = {field: betti_numbers(start, field) for field in ("gf2", "q")}
    facets = start.facets()
    graph = start._graph
    if consumer == "collapse_schedule":
        cert = collapse_schedule(a, b, hat=start, ass=model, graph=obstruction_graph(a, b))
        assert cert.n_steps
    else:
        report = verify_certificate(start, model, schedule(a, b))
        assert report.ok and report.steps_applied
        assert report.terminal_face_count == start.n_faces - 2 * report.steps_applied
    assert start._graph is graph and start._masks is None and model._masks is None
    assert start.n_faces == hat(a, b).n_faces > model.n_faces
    assert start.f_vector_counts() == hat(a, b).f_vector_counts()
    assert start.facets() == facets
    for field in ("gf2", "q"):
        assert betti_numbers(start, field) == before[field]


def test_replay_refuses_a_target_that_shares_the_start_face_set():
    """The replay leaves the start complex alone, so the start may be its own
    target: the terminal comparison fails, and the start is unchanged."""
    cert = schedule(3, 5)
    start = build_hat_ass(3, 5)
    report = verify_certificate(start, start, cert)
    assert (report.ok, report.failure_index) == (False, len(cert.stages))
    assert report.reason == "terminal face set differs from target"
    assert not report.target_matched
    assert report.terminal_face_count == hat(3, 5).n_faces - 2 * report.steps_applied
    assert report.steps_applied == cert.n_steps
    assert start.mask_set == hat(3, 5).mask_set


@pytest.mark.parametrize("a,b", [(3, 5), (5, 8), (4, 7)])
def test_exhaustive_verification_agrees(a, b):
    cert = schedule(a, b)
    report = explicit_verify(hat(a, b), ass(a, b), cert, exhaustive=True)
    assert report.ok
    assert report == explicit_verify(hat(a, b), ass(a, b), cert)
    assert report == verify_certificate(hat(a, b), ass(a, b), cert)


def test_reversed_certificate_fails_immediately():
    cert = schedule(5, 8)
    reversed_cert = CollapseCertificate(cert.a, cert.b, cert.ground, cert.stages[::-1])
    for verify in (verify_certificate, exhaustive_verify):
        report = verify(hat(5, 8), ass(5, 8), reversed_cert)
        assert not report.ok
        assert report.failure_index == 0
        assert report.steps_applied == 0
        assert report.reason == "expanded pair count differs from the certificate"
        assert report.terminal_face_count == hat(5, 8).n_faces


@pytest.mark.parametrize(
    "corrupt,index,steps,reason",
    [
        ("truncate", 1, 1, "terminal face set differs from target"),
        ("recount", 0, 0, "expanded pair count differs from the certificate"),
    ],
    ids=["truncate", "recount"],
)
def test_rejected_certificate_leaves_a_partial_collapse(corrupt, index, steps, reason):
    """A rejected replay keeps the pairs it removed before the failing
    check: its current complex is exactly the collapse the report counts,
    and the start complex is unchanged."""
    cert = schedule(3, 5)
    first = cert.stages[0]
    if corrupt == "truncate":
        stages = (first,)
    else:
        stages = (replace(first, n_steps=2),) + cert.stages[1:]
    rejected = CollapseCertificate(3, 5, cert.ground, stages)
    start = build_hat_ass(3, 5)
    report = verify_certificate(start, ass(3, 5), rejected)
    assert (report.ok, report.failure_index, report.steps_applied) == (False, index, steps)
    assert report.reason == reason
    assert report.terminal_face_count == hat(3, 5).n_faces - 2 * steps
    assert start.mask_set == hat(3, 5).mask_set
    replay = StageReplay(start, rejected)
    assert replay.run(stages) == ((0, reason) if index == 0 else None)
    partial = without_star(start, first.target) if steps else start.mask_set
    assert replay.current_faces() == partial
    assert replay.n_faces == len(partial) == report.terminal_face_count


def test_wrong_target_detected():
    cert = schedule(3, 5)
    report = verify_certificate(build_hat_ass(3, 5), hat(3, 5), cert)
    assert not report.ok
    assert report.reason == "terminal face set differs from target"


@pytest.mark.parametrize("a,b", [(3, 5), (5, 8), (5, 7), (4, 7), (7, 9)])
def test_stage_boundary_invariant(a, b):
    """After finishing the stage of edge r, the surviving face set equals
    the deletion of all edges with index >= r from the starting complex."""
    cert = schedule(a, b)
    graph = obstruction_graph(a, b)
    bit = {diag: 1 << i for i, diag in enumerate(cert.ground)}
    edge_masks = [bit[e.lesser] | bit[e.greater] for e in graph.edges]
    replay = StageReplay(hat(a, b), cert)
    closing = {}
    for stage in cert.stages:
        closing[stage.r] = max(closing.get(stage.r, 0), stage.q)
    for stage in cert.stages:
        before = replay.steps_applied
        replay.expand(stage)
        assert replay.steps_applied - before == stage.n_steps
        if stage.q == closing[stage.r]:
            expect = {
                m
                for m in hat(a, b).mask_set
                if not any(m & em == em for em in edge_masks[stage.r - 1 :])
            }
            assert replay.current_faces() == expect
    assert sorted(closing) == list(range(1, len(graph.edges) + 1))
    assert replay.steps_applied == cert.n_steps


@pytest.mark.parametrize("a,b", [(3, 5), (5, 8)])
def test_certificate_json_round_trip(a, b):
    cert = schedule(a, b)
    doc = cert.to_json()
    assert doc["schema"] == 2
    assert [st["pairs"] for st in doc["steps"]] == [s.n_steps for s in cert.stages]
    back = CollapseCertificate.from_json(json.loads(cert.dumps()))
    assert back.stages == cert.stages
    assert back.n_steps == cert.n_steps
    assert back.dumps() == cert.dumps()
    report = verify_certificate(hat(a, b), ass(a, b), back)
    assert report.ok and report.steps_applied == cert.n_steps


def test_stage_expansion_matches_cone_batch():
    """Stage by stage, for every coprime pair with b <= 8, the verifier's
    expansion removes as many pairs, and leaves the same faces, as the
    explicit cone batch."""
    for a, b in coprime_pairs(max_b=8):
        cert, start = schedule(a, b), hat(a, b)
        masks = set(start.mask_set)
        compat = compatibility_masks(start.ground)
        replay = StageReplay(start, cert)
        for k, stage in enumerate(cert.stages):
            target, cone = start._mask_of(stage.target), start._bit[stage.cone]
            smaller = explicit_cone_batch(masks, target, cone, compat)
            before = replay.steps_applied
            assert replay.expand(stage) is None, (a, b, k)
            assert replay.steps_applied - before == len(smaller) == stage.n_steps, (a, b, k)
            assert replay.current_faces() == masks, (a, b, k)
        assert masks == ass(a, b).mask_set, (a, b)


def rewired(cpx, drop=(), add=()) -> SimplicialComplex:
    """The clique complex of the graph of ``cpx`` less the edges ``drop`` and
    with the edges ``add``, each a pair of ground positions."""
    adj, vertices = cpx._graph
    rows = list(adj)
    for u, v in drop:
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
    for u, v in add:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return SimplicialComplex(cpx.ground, rows, vertices, cpx.a, cpx.b)


def test_schedule_failure_carries_stage_and_face():
    """A start lacking the edge from the first stage's cone to the lowest
    vertex x of its star: the faces holding the target and x no longer
    extend by the cone.  The generator fails at the explicit engine's stage
    with its reason, and names the smallest such face, the target plus x."""
    h = hat(5, 8)
    stage = schedule(5, 8).stages[0]
    target, cone = h._mask_of(stage.target), h._bit[stage.cone]
    adj, vertices = h._graph
    star = vertices & ~target & ~cone
    for p in bit_positions(target):
        star &= adj[p]
    x = star & -star
    broken = rewired(h, drop=[(x.bit_length() - 1, cone.bit_length() - 1)])
    with pytest.raises(ScheduleFailedError) as info:
        explicit_schedule(5, 8, hat=broken, ass=ass(5, 8), graph=obstruction_graph(5, 8))
    oracle = info.value
    with pytest.raises(ScheduleFailedError) as info:
        collapse_schedule(5, 8, hat=broken, ass=ass(5, 8), graph=obstruction_graph(5, 8))
    err = info.value
    reason = str(err).partition(" at face ")[0]
    assert (err.r, err.q, reason) == (oracle.r, oracle.q, str(oracle).partition(" at face ")[0])
    assert (err.r, err.q) == (stage.r, stage.q)
    # x is the lowest vertex of the link the cone misses, so the face named
    # is the target plus x, whose cone extension went with the edge
    assert err.face == face_text(h._face_of(target | x))
    assert target | x in broken.mask_set and target | x | cone not in broken.mask_set
    assert target | x | cone in h.mask_set
    assert f"(r={stage.r}, q={stage.q}, cone {stage.cone.text()})" in str(err)


def test_schedule_terminal_failure_names_extra_and_missing_faces():
    """An expected complex whose graph swaps an edge of the path model's
    for an obstruction edge: the failure counts both differences and names
    the smallest differing face."""
    h, model, graph = hat(5, 8), ass(5, 8), obstruction_graph(5, 8)
    adj, vertices = model._graph
    u = min(bit_positions(vertices))
    edge = graph.edges[0]
    swapped = rewired(model, drop=[(u, min(bit_positions(adj[u])))],
                      add=[(h.ground.index(edge.lesser), h.ground.index(edge.greater))])
    with pytest.raises(ScheduleFailedError) as info:
        explicit_schedule(5, 8, hat=h, ass=swapped, graph=graph)
    oracle = info.value
    with pytest.raises(ScheduleFailedError) as info:
        collapse_schedule(5, 8, hat=h, ass=swapped, graph=graph)
    err = info.value
    assert (str(err), err.face) == (str(oracle), oracle.face)
    extra, missing = model.mask_set - swapped.mask_set, swapped.mask_set - model.mask_set
    assert extra and missing
    first = min(extra | missing, key=lambda m: (m.bit_count(), m))
    assert err.face == face_text(h._face_of(first)) != ""
    assert str(err) == (
        f"terminal complex has {model.n_faces} faces, expected {swapped.n_faces}: "
        f"{len(extra)} extra, {len(missing)} missing, first at face {err.face}"
    )
    assert (err.r, err.q) == (None, None)


def test_exhaustive_freeness_check_fires():
    """Without downward closure, a stage can leave F' a second superface;
    the exhaustive replay catches it at that pair's turn.  The oracle reads
    only a ground set and a mask set, so the family is handed to it as
    such."""
    x, c, y = d(0, 2, 5), d(0, 3, 5), d(0, 4, 5)
    ground = (x, c, y)  # bits 1, 2 and 4
    family = SimpleNamespace(ground=ground, mask_set=closure([0b011]) | {0b111})
    cert = CollapseCertificate(3, 5, ground, (StageRecord(1, 1, c, frozenset([x]), 1),))
    report = explicit_verify(family, family, cert, exhaustive=True)
    assert not report.ok
    assert (report.failure_index, report.steps_applied) == (0, 0)
    assert report.reason == "subface has another proper superface"


def test_valid_swap_is_accepted_by_both_replays():
    cert = schedule(5, 8)
    stages = list(cert.stages)
    assert [(s.r, s.q) for s in stages[8:10]] == [(3, 1), (2, 1)]
    stages[8], stages[9] = stages[9], stages[8]
    swapped = CollapseCertificate(5, 8, cert.ground, tuple(stages))
    for verify in (verify_certificate, exhaustive_verify):
        assert verify(hat(5, 8), ass(5, 8), swapped).ok


def _relabel(stages, k, **changes):
    stages[k] = replace(stages[k], **changes)


def _shift_every_r(stages):
    stages[:] = [replace(s, r=s.r + 1) for s in stages]


def _swap_q_of_edge_8(stages):
    # (5,8) edge 8 has two batches: the crossing triple (q=1), then the edge
    assert [(s.r, s.q) for s in stages[1:3]] == [(8, 1), (8, 2)]
    _relabel(stages, 1, q=2)
    _relabel(stages, 2, q=1)


def _swap_r_of_edges_3_and_2(stages):
    assert [(s.r, s.q) for s in stages[8:10]] == [(3, 1), (2, 1)]
    _relabel(stages, 8, r=2)
    _relabel(stages, 9, r=3)


@pytest.mark.parametrize(
    "relabel,index,reason",
    [
        (lambda st: _relabel(st, 0, r=99, q=7), 0, "stage r is not an obstruction edge index"),
        (lambda st: _relabel(st, 0, r=0), 0, "stage r is not an obstruction edge index"),
        (_shift_every_r, 0, "stage r is not an obstruction edge index"),
        (_swap_r_of_edges_3_and_2, 8, "stage target lacks its obstruction edge"),
        (lambda st: _relabel(st, 2, q=3), 2, "stage q labels of an edge are not 1..m"),
        (_swap_q_of_edge_8, 1, "exactly the last batch of an edge targets the edge itself"),
    ],
    ids=["r99", "r0", "shift-r", "swap-r", "q-gap", "swap-q"],
)
def test_stage_labels_must_fit_the_obstruction_edges(relabel, index, reason):
    """Every stage still collapses as recorded, so the replay and the
    terminal comparison pass; the (r, q) labels alone are wrong."""
    cert = schedule(5, 8)
    stages = list(cert.stages)
    relabel(stages)
    relabeled = CollapseCertificate(5, 8, cert.ground, tuple(stages))
    for verify in (verify_certificate, exhaustive_verify):
        report = verify(hat(5, 8), ass(5, 8), relabeled)
        assert (report.ok, report.failure_index, report.reason) == (False, index, reason)
        assert report.target_matched and report.steps_applied == cert.n_steps


def test_stage_labels_are_checked_against_the_replays_own_edges():
    """The verifier's obstruction edges, read off the two skeletons, are the
    obstruction graph's edges in order: a schedule's labels pass, and the
    stage r = 0 built directly, which ``from_json`` would refuse, does not."""
    for a, b in coprime_pairs(max_b=9):
        cert = schedule(a, b)
        replay = StageReplay(hat(a, b), cert)
        assert replay.run(cert.stages) is None and replay.matches(ass(a, b))
        assert replay.check_labels(cert.stages) is None
        if cert.stages:
            zero = (replace(cert.stages[0], r=0),) + cert.stages[1:]
            assert replay.check_labels(zero) == (0, "stage r is not an obstruction edge index")


def test_dropping_every_batch_of_an_edge_is_rejected():
    cert = schedule(5, 8)
    stages = tuple(s for s in cert.stages if s.r != 8)
    dropped = CollapseCertificate(5, 8, cert.ground, stages)
    assert not verify_certificate(hat(5, 8), ass(5, 8), dropped).ok


MUTATION_PAIRS = [(3, 5), (3, 8), (4, 7), (5, 7), (5, 8)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dropped_or_swapped_stages(data):
    """A mutated certificate is rejected, or accepted by the exhaustive
    explicit replay as well; the replays agree on every report field."""
    a, b = data.draw(st.sampled_from(MUTATION_PAIRS), label="pair")
    cert = schedule(a, b)
    stages = list(cert.stages)
    i = data.draw(st.integers(0, len(stages) - 1), label="i")
    drop = data.draw(st.booleans(), label="drop")
    if drop:
        del stages[i]
    else:
        j = data.draw(st.integers(0, len(stages) - 1).filter(lambda j: j != i), label="j")
        stages[i], stages[j] = stages[j], stages[i]
    mutated = CollapseCertificate(a, b, cert.ground, tuple(stages))
    report = verify_certificate(hat(a, b), ass(a, b), mutated)
    assert report == exhaustive_verify(hat(a, b), ass(a, b), mutated)
    if drop:
        assert not report.ok


@pytest.mark.parametrize(
    "target,cone,pairs,reason",
    [
        (((0, 4), (1, 5)), (1, 3), 1, "stage target missing from current complex"),
        (((1, 5), (3, 5)), (3, 5), 1, "stage target contains its cone"),
        (((1, 5), (3, 5)), (1, 3), 2, "expanded pair count differs from the certificate"),
        # 0-2 crosses 1-5: no face containing the target extends by it
        (((1, 5), (3, 5)), (0, 2), 2, "cone extension missing from current complex"),
    ],
)
def test_stage_rejection_reasons(target, cone, pairs, reason):
    stage = StageRecord(2, 1, d(*cone, 5), face(5, *target), pairs)
    cert = CollapseCertificate(3, 5, hat(3, 5).ground, (stage,))
    for verify in (verify_certificate, exhaustive_verify):
        report = verify(hat(3, 5), ass(3, 5), cert)
        assert (report.ok, report.failure_index, report.steps_applied) == (False, 0, 0)
        assert report.reason == reason


def test_empty_stage_target_is_rejected_not_walked():
    """The star of the empty face is the whole complex; the replay refuses
    it by name instead of walking from common neighbours ~0 = -1."""
    start = hat(3, 5)
    stage = StageRecord(1, 1, start.ground[0], frozenset(), 1)
    cert = CollapseCertificate(3, 5, start.ground, (stage,))

    def hung(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        for verify in (verify_certificate, exhaustive_verify):
            try:
                report = verify(start, ass(3, 5), cert)
            except TimeoutError:
                # the interrupted frame's traceback cannot be rendered
                pytest.fail(f"{verify.__name__}: the replay ran past 5 s", pytrace=False)
            assert (report.ok, report.failure_index, report.steps_applied) == (False, 0, 0)
            assert report.reason == "stage target is empty"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# nine vertices, some of which may lie in no face at all
VERTICES = [Diagonal(0, k, 12) for k in range(2, 11)]


@settings(max_examples=300, deadline=None)
@given(graph_complexes(VERTICES, min_vertices=1), st.data())
def test_cone_lemma_on_both_sides(cpx, data):
    """On the clique complex of any graph, a cone batch for target T and
    vertex c goes through exactly when every face containing T and avoiding
    c extends by c; then it realizes the deletion of T, the generator's batch
    counts its pairs, and the replay of the same stage agrees with both
    explicit replays.  A failing generator batch fails as the explicit one
    does, and names T when c is not in the link of T, else T + v for the
    lowest v of the link that c misses."""
    faces = sorted((f for f in cpx.faces() if 0 < len(f) < len(VERTICES)),
                   key=lambda f: sorted(d.key() for d in f))
    target = data.draw(st.sampled_from(faces), label="target")
    cone = data.draw(st.sampled_from([v for v in VERTICES if v not in target]), label="cone")
    lower = [f for f in cpx.faces() if target <= f and cone not in f]
    is_cone = all(cpx._mask_of(f | {cone}) in cpx.mask_set for f in lower)
    t, c = cpx._mask_of(target), cpx._bit[cone]
    got, oracle = predicate_batch(cpx, t, c), explicit_batch(cpx, t, c)
    if is_cone:
        assert got == oracle == len(lower)
    else:
        assert got[:2] == oracle[:2] == (NotConeVertexError, NO_EXTENSION)
        adj, vertices = cpx._graph
        link = vertices & ~t
        for p in bit_positions(t):
            link &= adj[p]
        missed = link & ~c & ~adj[c.bit_length() - 1]
        assert got[2] == (t | missed & -missed if link & c else t)
        assert cpx._face_of(got[2]) in lower
    if is_cone:
        pairs, masks = cone_batch(cpx, target, cone)
        assert masks == without_star(cpx, target)
        sizes = [len(sub) for _, sub in pairs]
        assert sorted(sizes, reverse=True) == sizes
        assert {sub for _, sub in pairs} == set(lower)
        assert all(facet == sub | {cone} for facet, sub in pairs)
    else:
        with pytest.raises(NotConeVertexError):
            cone_batch(cpx, target, cone)
    stage = StageRecord(1, 1, cone, target, len(lower))
    cert = CollapseCertificate(None, 12, cpx.ground, (stage,))
    replays = [StageReplay(cpx, cert)] + [
        ExplicitReplay(cpx, cert, exhaustive=exhaustive) for exhaustive in (False, True)
    ]
    reasons = [replay.expand(stage) for replay in replays]
    assert reasons[0] == reasons[1] == reasons[2]
    assert replays[0].current_faces() == replays[1].masks == replays[2].masks
    assert replays[0].steps_applied == replays[1].steps_applied == replays[2].steps_applied
    if is_cone:
        assert reasons[0] is None and replays[0].current_faces() == masks
        assert replays[0].steps_applied == len(pairs)
    else:
        assert reasons[0] == "cone extension missing from current complex"


# -- the predicate engine against the explicit one ----------------------------


@pytest.mark.parametrize("a,b", coprime_pairs(max_b=11))
def test_schedule_equals_the_explicit_schedule(a, b):
    """The generator's certificate is the explicit engine's, byte for byte."""
    h, model, graph = hat(a, b), ass(a, b), obstruction_graph(a, b)
    explicit = explicit_schedule(a, b, hat=h, ass=model, graph=graph)
    assert schedule(a, b).dumps() == explicit.dumps()


def _drop_first(stages):
    del stages[0]


def _swap_first_two(stages):
    stages[0], stages[1] = stages[1], stages[0]


def _miscount_first(stages):
    stages[0] = replace(stages[0], n_steps=stages[0].n_steps + 1)


def _relabel_first(stages):
    stages[0] = replace(stages[0], r=stages[0].r - 1, q=stages[0].q + 1)


@pytest.mark.parametrize(
    "a,b", [(a, b) for a, b in coprime_pairs(max_b=9) if a > 1 and not is_fuss(a, b)]
)
def test_replay_reports_equal_the_explicit_replay(a, b):
    """The replay's full report equals the explicit replay's on the genuine
    certificate and four mutations of it."""
    cert = schedule(a, b)
    assert cert.stages
    mutations = [_drop_first, _miscount_first, _relabel_first]
    if len(cert.stages) > 1:
        mutations.append(_swap_first_two)
    certs = [cert]
    for mutate in mutations:
        stages = list(cert.stages)
        mutate(stages)
        certs.append(CollapseCertificate(a, b, cert.ground, tuple(stages)))
    reports = [explicit_verify(hat(a, b), ass(a, b), mutated) for mutated in certs]
    for mutated, report in zip(certs, reports):
        assert verify_certificate(hat(a, b), ass(a, b), mutated) == report, mutated.dumps()
    # dropped, miscounted and relabelled stages are refused; a swap may be valid
    assert [report.ok for report in reports[:4]] == [True, False, False, False]


@pytest.mark.parametrize("a,b", coprime_pairs(max_b=12))
def test_pairs_account_for_the_kirkman_faces(a, b):
    """|hat| - 2 pairs = the Kirkman sum, with |hat| counted by the clique
    walk: the certificate removes exactly the faces outside ass."""
    model = hat(a, b)
    n_faces = sum(complexes.clique_walk(*model._graph).counts)
    kirkman = sum(rational_kirkman(a, b, i) for i in range(1, a + 1))
    assert n_faces - 2 * schedule(a, b).n_steps == kirkman


def _walk_count(adj, free) -> int:
    return sum(complexes.clique_walk(adj, free).counts)


@pytest.mark.parametrize("a,b", coprime_pairs(max_b=11))
def test_the_generator_counts_each_stage_as_the_walk_does(a, b, monkeypatch):
    """At every stage of the schedule, the generator's own clique count of
    the link less its cone is the clique walk's."""
    count, checked = collapse._clique_count, []

    def compared(adj, free):
        n = count(adj, free)
        checked.append(n == _walk_count(adj, free))
        return n

    monkeypatch.setattr(collapse, "_clique_count", compared)
    cert = collapse_schedule(a, b, hat=hat(a, b), ass=ass(a, b), graph=obstruction_graph(a, b))
    assert len(checked) == len(cert.stages) and all(checked)


@pytest.mark.parametrize("name", SMALL_GRAPHS)
def test_the_generator_count_on_small_graphs(name):
    """On each small graph, within every subset of its vertices."""
    adj, vertices, _ = SMALL_GRAPHS[name]
    free = vertices
    while True:
        assert collapse._clique_count(adj, free) == _walk_count(adj, free), free
        if not free:
            break
        free = (free - 1) & vertices


@pytest.mark.parametrize("seed", range(12))
def test_the_generator_count_on_random_graphs(seed):
    """On a seeded random graph of up to 16 vertices, of a random density,
    within all of it and within random subsets."""
    rng = random.Random(seed)
    n = rng.randint(1, 16)
    density = rng.random()
    adj = rows_of(n, [e for e in combinations(range(n), 2) if rng.random() < density])
    for free in [(1 << n) - 1] + [rng.getrandbits(n) for _ in range(6)]:
        assert collapse._clique_count(adj, free) == _walk_count(adj, free), (n, free)


def _forbid_the_walk_and_the_face_set(monkeypatch) -> None:
    def forbidden(*args):
        raise AssertionError("the replay reached the clique walk or the face-set builder")

    monkeypatch.setattr(complexes, "clique_walk", forbidden)
    monkeypatch.setattr(complexes, "clique_complex", forbidden)


@pytest.mark.parametrize("a,b", coprime_pairs(max_b=12))
def test_verify_counts_the_kirkman_faces(a, b, monkeypatch):
    """The replay's own count of the start complex, less two per pair, is
    the Kirkman sum, as the clique walk's is in
    :func:`test_pairs_account_for_the_kirkman_faces`; the walk is not run."""
    start, model, cert = hat(a, b), ass(a, b), schedule(a, b)
    _forbid_the_walk_and_the_face_set(monkeypatch)
    report = verify_certificate(start, model, cert)
    kirkman = sum(rational_kirkman(a, b, i) for i in range(1, a + 1))
    assert report.ok and report.terminal_face_count == kirkman


def test_collapse_and_replay_build_no_face_set(monkeypatch):
    """On built models, neither side lists a face: the clique walk that
    would build a face set is never called, on success."""
    def forbidden(*args):
        raise AssertionError("a face set was built")

    monkeypatch.setattr(collapse, "clique_complex", forbidden)
    monkeypatch.setattr(complexes, "clique_complex", forbidden)
    a, b = 7, 10
    start, model = build_hat_ass(a, b), build_ass(a, b)
    cert = collapse_schedule(a, b, hat=start, ass=model, graph=obstruction_graph(a, b))
    report = verify_certificate(start, model, cert)
    assert report.ok and report.steps_applied == cert.n_steps
    # a rejected stage, after some pairs went, still gets its count without faces
    stages = (replace(cert.stages[1], n_steps=cert.stages[1].n_steps + 1),) + cert.stages[:1]
    rejected = verify_certificate(start, model, CollapseCertificate(a, b, cert.ground, stages))
    assert (rejected.ok, rejected.failure_index) == (False, 0)


LIVE = [Diagonal(0, k, 12) for k in range(2, 8)]


@settings(max_examples=300, deadline=None)
@given(graph_complexes(LIVE, min_vertices=1), st.data())
def test_replay_predicate_follows_the_explicit_replay(cpx, data):
    """On the clique complex of any graph and any run of stages, targets of
    one, two and three vertices included, the replay removes what the
    explicit replay removes and refuses what it refuses, stage by stage.
    Each stage's pair count is the explicit replay's star count, so that
    most stages pass and leave targets live for later ones."""
    faces = sorted((f for f in cpx.faces() if 0 < len(f) <= 3), key=lambda f: sorted(d.key() for d in f))
    cert = CollapseCertificate(None, 12, cpx.ground, ())
    replay, oracle = StageReplay(cpx, cert), ExplicitReplay(cpx, cert)
    for _ in range(data.draw(st.integers(1, 8), label="stages")):
        target = data.draw(st.sampled_from(faces), label="target")
        t = cpx._mask_of(target)
        star = [m for m in oracle.masks if m & t == t]
        cones = [v for v in LIVE if v not in target]
        coning = [v for v in cones if all(m | cpx._bit[v] in oracle.masks for m in star)]
        if coning and data.draw(st.booleans(), label="coning"):
            cones = coning
        cone = data.draw(st.sampled_from(cones), label="cone")
        c = cpx._bit[cone]
        pairs = sum(1 for m in star if not m & c)
        stage = StageRecord(1, 1, cone, frozenset(target), pairs)
        reason = oracle.expand(stage)
        assert replay.expand(stage) == reason
        assert replay.steps_applied == oracle.steps_applied
        assert replay.current_faces() == oracle.masks
        assert replay.n_faces == len(oracle.masks)
        if reason is not None:
            break
    else:
        assert replay.matches(cpx) == (oracle.masks == cpx.mask_set)
        assert replay.check_labels(cert.stages) == oracle.check_labels(cert.stages)


@pytest.mark.parametrize(
    "second", [((0, 1), 4), ((0,), 4)], ids=["one-vertex-outside", "two-vertices-outside"]
)
def test_replay_around_a_live_target_follows_the_explicit_replay(second):
    """On the full simplex on LIVE, the target {0, 1, 2} stays live after its
    stage.  A later target that holds all of it but one vertex bars that
    vertex from its walk; one that holds less checks each face against it.
    Either way the replay removes what the explicit replay removes."""
    cpx = graph_complex(LIVE, (1 << len(LIVE)) - 1, combinations(range(len(LIVE)), 2))
    cert = CollapseCertificate(None, 12, cpx.ground, ())
    replay, oracle = StageReplay(cpx, cert), ExplicitReplay(cpx, cert)
    for target, cone in [((0, 1, 2), 3), second]:
        t = sum(1 << p for p in target)
        pairs = sum(1 for m in oracle.masks if m & t == t and not m >> cone & 1)
        stage = StageRecord(1, 1, LIVE[cone], frozenset(LIVE[p] for p in target), pairs)
        assert oracle.expand(stage) is None and replay.expand(stage) is None
        assert replay.steps_applied == oracle.steps_applied
        assert replay.current_faces() == oracle.masks
        if len(target) == 3:
            assert replay._live == [t]


# -- the replay's link route against its listing of lower faces ---------------


def _twin(replay: StageReplay) -> StageReplay:
    """A second replay at the point ``replay`` has reached between stages."""
    twin = copy.copy(replay)
    twin._adj, twin._live, twin._gone = list(replay._adj), list(replay._live), set()
    return twin


@pytest.mark.parametrize("a,b", coprime_pairs(max_b=11))
def test_link_route_equals_the_star_walk(a, b):
    """At every stage, and with its cone moved to another vertex of the
    target's link, the link route's decision is the listing's: given the
    listing's count, ``expand`` passes by the link alone exactly when
    ``_walk``, listing the star's lower faces, passes too.  Both run on
    twins of the replay at the same point.  No stage of a generated
    certificate has a wide live target, so the listing's count is the
    link's clique count."""
    cert, start = schedule(a, b), hat(a, b)
    replay = StageReplay(start, cert)
    for k, stage in enumerate(cert.stages):
        target, cone = start._mask_of(stage.target), start._bit[stage.cone]
        link, wide = replay._link(target)
        assert wide == [], (a, b, k)
        others = link & ~cone
        for c in (cone, others & -others) if others else (cone,):
            count = len(replay._faces(link & ~c))
            assert count == replay._cliques(link & ~c), (a, b, k, c)
            moved = replace(stage, cone=start.ground[c.bit_length() - 1], n_steps=count)
            by_link, walks = _twin(replay), []
            by_link._walk = lambda *args: walks.append(args) or "listed"
            passed = by_link.expand(moved) is None
            assert passed != bool(walks), (a, b, k, c)
            reason = _twin(replay)._walk(count, target, c, link, wide)
            assert (reason is None) == passed, (a, b, k, c)
            if passed:
                assert by_link.steps_applied - replay.steps_applied == count
            else:
                assert reason == "cone extension missing from current complex"
        assert stage.n_steps == replay._cliques(others), (a, b, k)
        assert replay.expand(stage) is None and not replay._gone, (a, b, k)


def test_a_wide_live_target_sends_its_stage_to_the_star_walk(monkeypatch):
    """Swapping stages 1 and 4 of (7,10) leaves the crossing triple of edge
    33 live when the first crossing triple of edge 30 is cleared: two of
    its vertices lie outside that target, both in its link, and the cone
    is adjacent to the rest of the link.  The link alone cannot decide the
    stage, so its lower faces are listed, and the replay decides it as the
    exhaustive explicit replay does: it refuses the recorded count, and
    the count of the whole link, which ignores the live target; with the
    count of the star the stage passes, and the replay goes on to refuse
    stage 3, which also has a wide live target, by its listing's count."""
    cert = schedule(7, 10)
    stages = list(cert.stages)
    assert [(s.r, s.q) for s in (stages[1], stages[4])] == [(33, 2), (30, 1)]
    stages[1], stages[4] = stages[4], stages[1]
    walks = []
    walk = StageReplay._walk

    def recorded(self, n_steps, target, *args):
        walks.append(target)
        return walk(self, n_steps, target, *args)

    monkeypatch.setattr(StageReplay, "_walk", recorded)
    replay = StageReplay(hat(7, 10), cert)
    assert replay.run(stages[:1]) is None and not walks
    wide_stage = stages[1]
    target, cone = hat(7, 10)._mask_of(wide_stage.target), replay._bit[wide_stage.cone]
    link, wide = replay._link(target)
    (live,) = replay._live
    assert wide == [live] and (live & ~target).bit_count() == 2 and not live & ~target & ~link
    assert link & cone and not link & ~cone & ~replay._adj[cone.bit_length() - 1]
    whole_link = replay._cliques(link ^ cone)
    oracle = ExplicitReplay(hat(7, 10), cert, exhaustive=True)
    assert oracle.run(stages[:1]) is None
    own = sum(1 for m in oracle.masks if m & target == target and not m & cone)
    assert len({wide_stage.n_steps, whole_link, own}) == 3
    later = hat(7, 10)._mask_of(stages[3].target)
    for n_steps, index, walked in [
        (wide_stage.n_steps, 1, [target]),
        (whole_link, 1, [target]),
        (own, 3, [target, later]),
    ]:
        stages[1] = replace(wide_stage, n_steps=n_steps)
        mutated = CollapseCertificate(7, 10, cert.ground, tuple(stages))
        walks.clear()
        report = verify_certificate(hat(7, 10), ass(7, 10), mutated)
        assert walks == walked
        assert (report.ok, report.failure_index) == (False, index)
        assert report.reason == "expanded pair count differs from the certificate"
        assert report == exhaustive_verify(hat(7, 10), ass(7, 10), mutated)


def test_a_passing_stage_is_decided_by_its_link_alone(monkeypatch):
    """A valid certificate verifies with the generator's batch and clique
    count, the face-set builder, and the replay's listing of lower faces and
    its clique lister all out of reach: every stage passes by its link and
    leaves no pair set behind."""
    start, model, cert = hat(7, 10), ass(7, 10), schedule(7, 10)

    def forbidden(*args):
        raise AssertionError("the link route left its own code")

    for name in ("_cone_batch", "_clique_count", "clique_complex"):
        monkeypatch.setattr(collapse, name, forbidden)
    for name in ("_walk", "_faces"):
        monkeypatch.setattr(StageReplay, name, forbidden)
    replay = StageReplay(start, cert)
    for k, stage in enumerate(cert.stages):
        assert replay.expand(stage) is None and not replay._gone, k
    assert replay.steps_applied == cert.n_steps and replay.matches(model)
    assert verify_certificate(start, model, cert).ok


def test_a_wrong_count_is_refused_without_listing(monkeypatch):
    """One pair too many on the largest stage of (7,10) is refused by its
    link's clique count, with no face listed, and reported as the
    exhaustive explicit replay reports it."""
    start, model, cert = hat(7, 10), ass(7, 10), schedule(7, 10)
    k = max(range(len(cert.stages)), key=lambda i: cert.stages[i].n_steps)
    stages = list(cert.stages)
    stages[k] = replace(stages[k], n_steps=stages[k].n_steps + 1)
    mutated = CollapseCertificate(7, 10, cert.ground, tuple(stages))
    expected = exhaustive_verify(start, model, mutated)

    def forbidden(*args):
        raise AssertionError("a wrong count listed faces")

    monkeypatch.setattr(StageReplay, "_faces", forbidden)
    report = verify_certificate(start, model, mutated)
    assert report.failure_index == k
    assert report.reason == "expanded pair count differs from the certificate"
    assert report == expected


SEVEN = [Diagonal(0, k, 12) for k in range(2, 9)]


def _clique(*vertices):
    return list(combinations(vertices, 2))


# (edges on SEVEN, stages as (target, cone, pairs), pairs removed before the
# rejection)
REJECTIONS = [
    # T = {0}, V_T = {1}: the cone 2 lies outside the link
    pytest.param([(0, 1), (1, 2)], [((0,), 2, 2)], 0, id="cone-outside-the-link"),
    # T = {0}, c = 1: {2, 4} and {2} extend, then {3} misses a neighbour of 1
    pytest.param(_clique(0, 1, 2, 4) + [(0, 3)], [((0,), 1, 5)], 2,
                 id="a-face-misses-a-cone-neighbour"),
    # {0, 1, 2} stays live; then T = {0}, c = 1: {3, 4, 5, 6} and its four
    # triples extend, and {2, 3} + 1 would complete {0, 1, 2}
    pytest.param(_clique(0, 1, 2, 3) + _clique(0, 3, 4, 5, 6) + [(1, 4), (1, 5), (1, 6)],
                 [((0, 1, 2), 3, 1), ((0,), 1, 18)], 6, id="a-face-completes-a-wide-target"),
]


def _rejected(edges, stages) -> tuple[SimplicialComplex, CollapseCertificate]:
    """The clique complex of ``edges`` on SEVEN and a certificate of
    ``stages`` on it."""
    vertices = 0
    for u, v in edges:
        vertices |= 1 << u | 1 << v
    cpx = graph_complex(SEVEN, vertices, edges)
    staged = [StageRecord(1, 1, SEVEN[c], frozenset(SEVEN[p] for p in t), n) for t, c, n in stages]
    return cpx, CollapseCertificate(None, 12, cpx.ground, tuple(staged))


@pytest.mark.parametrize("edges,stages,steps", REJECTIONS)
def test_a_rejected_stage_follows_the_exhaustive_replay(edges, stages, steps):
    """Each way the listing of lower faces can reject a stage with the right
    count stops where the exhaustive explicit replay stops: the same reason
    at the same stage, the same pairs removed before it and the same faces
    left."""
    cpx, cert = _rejected(edges, stages)
    replay, oracle = StageReplay(cpx, cert), ExplicitReplay(cpx, cert, exhaustive=True)
    staged = cert.stages
    failure = (len(staged) - 1, "cone extension missing from current complex")
    assert replay.run(staged) == oracle.run(staged) == failure
    assert replay.steps_applied == oracle.steps_applied == steps
    assert replay.current_faces() == oracle.masks


def test_no_verify_path_reaches_the_walk_or_the_face_set_builder(monkeypatch):
    """With the clique walk and the face-set builder out of reach, models
    built beforehand verify as the explicit replay verifies them: a valid
    certificate of (7,10), and each rejection above against its own start
    complex and against the path on SEVEN, whose 14 faces are as many as
    the second rejection leaves, so that the terminal face sets are listed
    and compared.  The oracle reads copies, whose cached faces and counts
    could hide a call."""
    path = [(v, v + 1) for v in range(6)]

    def valid():
        return build_hat_ass(7, 10), build_ass(7, 10), schedule(7, 10)

    def rejected(edges, stages, target_edges):
        start, cert = _rejected(edges, stages)
        return start, _rejected(target_edges, [])[0], cert

    makers = [valid] + [
        partial(rejected, edges, stages, target_edges)
        for edges, stages, _ in (param.values for param in REJECTIONS)
        for target_edges in (edges, path)
    ]
    expected = [explicit_verify(*make()) for make in makers]
    assert [report.ok for report in expected] == [True] + [False] * 6
    assert expected[4].terminal_face_count == 14  # the second rejection against the path
    _forbid_the_walk_and_the_face_set(monkeypatch)
    for make, report in zip(makers, expected):
        assert verify_certificate(*make()) == report
