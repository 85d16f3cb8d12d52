from __future__ import annotations

import signal
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratassoc import (
    CollapseCertificate,
    Diagonal,
    InvariantViolationError,
    NotAFaceError,
    NotConeVertexError,
    NotPerfectMatchingError,
    ScheduleFailedError,
    SimplicialComplex,
    StageRecord,
    StageReplay,
    collapse_schedule,
    cone_vertex_collapse,
    extract_morse_matching,
    face_text,
    verify_certificate,
)
from ratassoc.collapse import _cone_batch

from helpers import ass, coprime_pairs, hat, is_fuss, obstruction_graph, schedule


def d(i, j, b):
    return Diagonal(i, j, b)


def face(b, *pairs):
    return frozenset(d(i, j, b) for i, j in pairs)


def test_cone_vertex_collapse_on_small_model():
    cpx = hat(3, 5)
    pairs, result = cone_vertex_collapse(cpx, face(5, (0, 4), (2, 4)), d(0, 2, 5))
    assert len(pairs) == 1
    assert pairs[0].facet == face(5, (0, 2), (0, 4), (2, 4))
    assert pairs[0].subface == face(5, (0, 4), (2, 4))
    assert result == cpx.deletion([face(5, (0, 4), (2, 4))])


def test_cone_vertex_collapse_on_full_simplex():
    verts = [d(0, 2, 5), d(0, 3, 5), d(0, 4, 5)]
    x, y, z = verts
    simplex = SimplicialComplex(verts, [verts])
    pairs, result = cone_vertex_collapse(simplex, [x], y)
    assert [(p.facet, p.subface) for p in pairs] == [
        (frozenset({x, y, z}), frozenset({x, z})),
        (frozenset({x, y}), frozenset({x})),
    ]
    assert result == simplex.deletion([[x]])


def test_cone_vertex_rejections():
    cpx = hat(3, 5)
    # 0-2 crosses 1-5, so it cannot cone the faces containing {1-5, 3-5}
    with pytest.raises(NotConeVertexError) as info:
        cone_vertex_collapse(cpx, face(5, (1, 5), (3, 5)), d(0, 2, 5))
    assert info.value.witness is not None
    # a facet has no extension at all, so nothing can cone it
    with pytest.raises(NotConeVertexError):
        cone_vertex_collapse(cpx, face(5, (0, 2), (0, 4), (2, 4)), d(1, 3, 5))
    with pytest.raises(NotAFaceError):
        cone_vertex_collapse(cpx, face(5, (0, 4), (1, 5)), d(0, 2, 5))


def test_cone_batch_errors_carry_the_face_not_hex():
    # vertices 0..3, target {0}, cone 1; {0,2,3} is not reached by the upward
    # search (its face {0,2} is missing), so {0,3} has a second cofacet
    masks = {0b0001, 0b0011, 0b1001, 0b1011, 0b1101}
    everything = [0b1111] * 4
    with pytest.raises(InvariantViolationError) as info:
        _cone_batch(set(masks), 0b0001, 0b0010, everything)
    assert info.value.witness == 0b1001
    assert "not free" in str(info.value) and "0x" not in str(info.value)
    with pytest.raises(NotAFaceError) as info:
        _cone_batch(set(masks), 0b0100, 0b0010, everything)
    assert info.value.witness == 0b0100
    assert "0x" not in str(info.value)


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
    # the pairs are re-derived by the verifier's expansion of the stages
    texts = [
        (tuple(sorted(x.text() for x in fac)), tuple(sorted(x.text() for x in sub)))
        for sub, fac in extract_morse_matching(cert, hat(3, 5), ass(3, 5))
    ]
    assert texts == [
        (("1-3", "1-5", "3-5"), ("1-5", "3-5")),
        (("0-2", "0-4", "2-4"), ("0-4", "2-4")),
    ]


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
    if is_fuss(a, b):
        assert cert.n_steps == 0


@pytest.mark.parametrize("a,b", [(3, 5), (5, 8), (4, 7)])
def test_exhaustive_verification_agrees(a, b):
    cert = schedule(a, b)
    assert verify_certificate(hat(a, b), ass(a, b), cert, exhaustive=True).ok


def test_reversed_certificate_fails_immediately():
    cert = schedule(5, 8)
    reversed_cert = CollapseCertificate(cert.a, cert.b, cert.ground, cert.stages[::-1])
    for exhaustive in (False, True):
        report = verify_certificate(hat(5, 8), ass(5, 8), reversed_cert, exhaustive=exhaustive)
        assert not report.ok
        assert report.failure_index == 0
        assert report.steps_applied == 0
        assert report.reason == "expanded pair count differs from the certificate"
        assert report.terminal_face_count == hat(5, 8).n_faces


def test_wrong_target_detected():
    cert = schedule(3, 5)
    report = verify_certificate(hat(3, 5), hat(3, 5), cert)
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
        before = len(replay.pairs)
        replay.expand(stage)
        assert len(replay.pairs) - before == stage.n_steps
        if stage.q == closing[stage.r]:
            expect = {
                m
                for m in hat(a, b).mask_set
                if not any(m & em == em for em in edge_masks[stage.r - 1 :])
            }
            assert replay.masks == expect
    assert sorted(closing) == list(range(1, len(graph.edges) + 1))
    assert len(replay.pairs) == cert.n_steps


def test_morse_matching_on_small_pairs():
    pairs = extract_morse_matching(schedule(3, 5), hat(3, 5), ass(3, 5))
    assert len(pairs) == 2
    diff = hat(3, 5).mask_set - ass(3, 5).mask_set
    assert len(diff) == 4
    for sub, fac in pairs:
        assert len(fac) == len(sub) + 1 and sub < fac


@pytest.mark.parametrize("a,b", [(2, 3), (3, 7), (4, 9)])
def test_morse_matching_empty_at_fuss_level(a, b):
    assert extract_morse_matching(schedule(a, b), hat(a, b), ass(a, b)) == []


def test_morse_matching_5_8_counts():
    h, s = hat(5, 8), ass(5, 8)
    diff = h.mask_set - s.mask_set
    assert len(diff) % 2 == 0
    pairs = extract_morse_matching(schedule(5, 8), h, s)
    assert len(pairs) == len(diff) // 2


def test_morse_matching_rejects_corrupted_certificate():
    cert = schedule(3, 5)
    truncated = CollapseCertificate(cert.a, cert.b, cert.ground, cert.stages[:1])
    with pytest.raises(NotPerfectMatchingError, match="left unmatched"):
        extract_morse_matching(truncated, hat(3, 5), ass(3, 5))
    stage = cert.stages[0]
    recounted = CollapseCertificate(
        cert.a, cert.b, cert.ground, (replace(stage, n_steps=2),) + cert.stages[1:]
    )
    with pytest.raises(NotPerfectMatchingError, match="does not expand"):
        extract_morse_matching(recounted, hat(3, 5), ass(3, 5))


@pytest.mark.parametrize("a,b", [(3, 5), (5, 8)])
def test_certificate_json_round_trip(a, b):
    cert = schedule(a, b)
    doc = cert.to_json()
    assert doc["schema"] == 2
    assert [st["pairs"] for st in doc["steps"]] == [s.n_steps for s in cert.stages]
    back = CollapseCertificate.loads(cert.dumps())
    assert back.stages == cert.stages
    assert back.n_steps == cert.n_steps
    assert back.dumps() == cert.dumps()
    report = verify_certificate(hat(a, b), ass(a, b), back)
    assert report.ok and report.steps_applied == cert.n_steps


def test_difference_is_even_for_all_small_pairs():
    for a, b in coprime_pairs(max_b=9):
        assert len(hat(a, b).mask_set - ass(a, b).mask_set) % 2 == 0


def test_stage_expansion_matches_cone_vertex_collapse():
    """The verifier's expansion of the first (5,8) stage removes the same
    pairs, in the same sizes order, as the generator's cone batch."""
    cert = schedule(5, 8)
    stage = cert.stages[0]
    pairs, result = cone_vertex_collapse(hat(5, 8), stage.target, stage.cone)
    replay = StageReplay(hat(5, 8), cert)
    replay.expand(stage)
    expanded = [(hat(5, 8)._face_of(f), hat(5, 8)._face_of(s)) for f, s in replay.pairs]
    assert sorted(expanded, key=str) == sorted(((p.facet, p.subface) for p in pairs), key=str)
    assert [len(s) for _, s in expanded] == [len(p.subface) for p in pairs]
    assert replay.masks == result.mask_set


def test_schedule_failure_carries_stage_and_face():
    h = hat(5, 8)
    stage = schedule(5, 8).stages[0]
    grown = h._mask_of(stage.target | {stage.cone})
    # drop one facet above the first stage's cone extension
    facet = next(m for m in h.mask_set if m & grown == grown and m in h._compute_facet_masks())
    broken = SimplicialComplex._trusted(h.ground, h._bit, h.mask_set - {facet}, 5, 8)
    with pytest.raises(ScheduleFailedError) as info:
        collapse_schedule(5, 8, hat=broken, ass=ass(5, 8), graph=obstruction_graph(5, 8))
    err = info.value
    assert (err.r, err.q) == (stage.r, stage.q)
    assert err.face == face_text(h._face_of(facet & ~h._bit[stage.cone]))
    assert f"(r={stage.r}, q={stage.q}, cone {stage.cone.text()})" in str(err)


def test_exhaustive_freeness_check_fires():
    """Without downward closure, a stage can leave F' a second superface;
    the exhaustive replay catches it at that pair's turn."""
    x, c, y = d(0, 2, 5), d(0, 3, 5), d(0, 4, 5)
    ground = (x, c, y)
    cpx = SimplicialComplex(ground, [[x, c]])
    bit = cpx._bit
    masks = cpx.copy_mask_set() | {bit[x] | bit[c] | bit[y]}
    family = SimplicialComplex._trusted(cpx.ground, bit, masks, None, 5)
    cert = CollapseCertificate(3, 5, cpx.ground, (StageRecord(1, 1, c, frozenset([x]), 1),))
    report = verify_certificate(family, family, cert, exhaustive=True)
    assert not report.ok
    assert (report.failure_index, report.steps_applied) == (0, 0)
    assert report.reason == "subface has another proper superface"


def test_valid_swap_is_accepted_by_both_replays():
    cert = schedule(5, 8)
    stages = list(cert.stages)
    assert [(s.r, s.q) for s in stages[8:10]] == [(3, 1), (2, 1)]
    stages[8], stages[9] = stages[9], stages[8]
    swapped = CollapseCertificate(5, 8, cert.ground, tuple(stages))
    for exhaustive in (False, True):
        assert verify_certificate(hat(5, 8), ass(5, 8), swapped, exhaustive=exhaustive).ok


MUTATION_PAIRS = [(3, 5), (3, 8), (4, 7), (5, 7), (5, 8)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dropped_or_swapped_stages(data):
    """A mutated certificate is rejected, or accepted by the exhaustive
    replay as well; the two replays agree on every report field."""
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
    assert report == verify_certificate(hat(a, b), ass(a, b), mutated, exhaustive=True)
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
    for exhaustive in (False, True):
        report = verify_certificate(hat(3, 5), ass(3, 5), cert, exhaustive=exhaustive)
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
        for exhaustive in (False, True):
            try:
                report = verify_certificate(start, ass(3, 5), cert, exhaustive=exhaustive)
            except TimeoutError:
                # the interrupted frame's traceback cannot be rendered
                pytest.fail(f"exhaustive={exhaustive}: the replay ran past 5 s", pytrace=False)
            assert (report.ok, report.failure_index, report.steps_applied) == (False, 0, 0)
            assert report.reason == "stage target is empty"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# nine vertices, some of which may lie in no face at all
VERTICES = [Diagonal(0, k, 12) for k in range(2, 11)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sets(st.sampled_from(VERTICES), min_size=1, max_size=5),
                min_size=1, max_size=8),
       st.data())
def test_cone_lemma_on_both_sides(facets, data):
    """On any downward-closed family, a cone batch for target T and vertex
    c goes through exactly when every face containing T and avoiding c
    extends by c; then it realizes the deletion of T, and the replay of the
    same stage agrees in both modes."""
    cpx = SimplicialComplex(VERTICES, facets)
    faces = sorted((f for f in cpx.faces() if f), key=lambda f: sorted(d.key() for d in f))
    target = data.draw(st.sampled_from(faces), label="target")
    cone = data.draw(st.sampled_from([v for v in VERTICES if v not in target]), label="cone")
    lower = [f for f in cpx.faces() if target <= f and cone not in f]
    is_cone = all(cpx.has_face(f | {cone}) for f in lower)
    if is_cone:
        pairs, result = cone_vertex_collapse(cpx, target, cone)
        assert result == cpx.deletion([target])
        assert sorted(map(len, (p.subface for p in pairs)), reverse=True) == [
            len(p.subface) for p in pairs
        ]
        assert {p.subface for p in pairs} == set(lower)
        assert all(p.facet == p.subface | {cone} for p in pairs)
    else:
        with pytest.raises(NotConeVertexError):
            cone_vertex_collapse(cpx, target, cone)
    stage = StageRecord(1, 1, cone, target, len(lower))
    cert = CollapseCertificate(None, 12, cpx.ground, (stage,))
    replays = [StageReplay(cpx, cert, exhaustive=exhaustive) for exhaustive in (False, True)]
    reasons = [replay.expand(stage) for replay in replays]
    assert reasons[0] == reasons[1]
    assert replays[0].masks == replays[1].masks
    if is_cone:
        assert reasons[0] is None and replays[0].masks == result.mask_set
    else:
        assert reasons[0] == "cone extension missing from current complex"
