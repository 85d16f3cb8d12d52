"""``cli.main(argv)`` contract: certificate round trips, tampered and
malformed certificates, homology, duality, f-vectors and built models
against the closed forms, the obstruction graph in every format, caps,
byte-stable output and one argument parser for every call."""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from math import comb, gcd
from pathlib import Path

import pytest

from ratassoc import cli, collapse, complexes

from helpers import coprime_pairs

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    """``cli.main(argv)`` and what it printed; an argparse exit gives its code."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def emit(tmp_path, capsys, a: int, b: int) -> Path:
    path = tmp_path / f"cert-{a}-{b}.json"
    code, out, _ = run(capsys, "collapse", "--a", str(a), "--b", str(b), "--emit", str(path))
    assert code == cli.EXIT_OK
    assert json.loads(out)["written"] == str(path)
    return path


def write(tmp_path, doc) -> Path:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("a,b", coprime_pairs(max_b=9))
def test_collapse_then_verify_round_trip(tmp_path, capsys, a, b):
    path = emit(tmp_path, capsys, a, b)
    steps = sum(stage["pairs"] for stage in json.loads(path.read_text())["steps"])
    code, out, _ = run(capsys, "verify", "--cert", str(path))
    doc = json.loads(out)
    assert code == cli.EXIT_OK
    assert doc["ok"] and doc["target_matched"] and doc["failure_index"] is None
    assert doc["steps_applied"] == steps


def test_golden_certificate_5_8(tmp_path, capsys):
    golden = (GOLDEN / "cert_5_8.json").read_text(encoding="utf-8")
    code, out, _ = run(capsys, "collapse", "--a", "5", "--b", "8", "--emit", "-")
    assert code == cli.EXIT_OK
    assert out == golden
    assert emit(tmp_path, capsys, 5, 8).read_text(encoding="utf-8") == golden


def test_certificate_11_13_digest(capsys):
    """The largest pair below the default cap: its certificate is pinned by
    digest, byte for byte."""
    code, out, err = run(capsys, "collapse", "--a", "11", "--b", "13", "--emit", "-")
    assert code == cli.EXIT_OK and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "bad7478fe13e2de613561139bdbd22940376045b7a04b6f4903d957f22be0f19"
    )


def test_verify_11_13_report(tmp_path, capsys):
    """The largest pair below the default cap verifies to the report pinned
    here byte for byte: every pair applied, the lattice-path model left."""
    path = emit(tmp_path, capsys, 11, 13)
    code, out, err = run(capsys, "verify", "--cert", str(path))
    assert (code, err) == (cli.EXIT_OK, "")
    assert out == (
        "{\n"
        '  "a": 11,\n'
        '  "b": 13,\n'
        '  "failure_index": null,\n'
        '  "ok": true,\n'
        '  "reason": null,\n'
        '  "schema": 1,\n'
        '  "steps_applied": 1933554,\n'
        '  "target_matched": true,\n'
        '  "terminal_face_count": 4073898\n'
        "}\n"
    )


def test_collapse_and_verify_output_is_byte_stable(tmp_path, capsys):
    path = emit(tmp_path, capsys, 4, 7)
    first = run(capsys, "verify", "--cert", str(path))
    assert first == run(capsys, "verify", "--cert", str(path))
    assert first[1] == (
        '{\n  "a": 4,\n  "b": 7,\n  "failure_index": null,\n  "ok": true,\n'
        '  "reason": null,\n  "schema": 1,\n  "steps_applied": 34,\n'
        '  "target_matched": true,\n  "terminal_face_count": 79\n}\n'
    )


def _drop_first(doc):
    del doc["steps"][0]


def _wrong_cone(doc):
    doc["steps"][0]["cone"] = [1, 3]


def _wrong_target(doc):
    doc["steps"][0]["target"] = [[1, 8], [3, 8]]


def _pairs_up(doc):
    doc["steps"][0]["pairs"] += 1


def _pairs_down(doc):
    doc["steps"][0]["pairs"] -= 1


def _relabeled(doc):
    # a valid collapse whose first stage claims an edge index out of range
    doc["steps"][0].update(r=99, q=7)


@pytest.mark.parametrize(
    "tamper", [_drop_first, _wrong_cone, _wrong_target, _pairs_up, _pairs_down, _relabeled]
)
def test_tampered_certificate_exits_1(tmp_path, capsys, tamper):
    doc = json.loads(emit(tmp_path, capsys, 5, 8).read_text())
    tamper(doc)
    code, out, err = run(capsys, "verify", "--cert", str(write(tmp_path, doc)))
    report = json.loads(out)
    assert code == cli.EXIT_VERIFY
    assert report["ok"] is False and report["failure_index"] == 0
    assert report["reason"] and not err


def _stage(**changes):
    stage = {"r": 2, "q": 1, "cone": [1, 3], "target": [[1, 5], [3, 5]], "pairs": 1}
    stage.update(changes)
    return stage


GOOD_3_5 = {"schema": 2, "a": 3, "b": 5, "steps": [_stage()]}

MALFORMED = {
    "missing-steps": {"schema": 2, "a": 3, "b": 5},
    "top-level-list": [GOOD_3_5],
    "inadmissible-diagonal": {**GOOD_3_5, "steps": [_stage(target=[[0, 3], [3, 5]])]},
    "schema-99": {**GOOD_3_5, "schema": 99},
    "schema-1": {**GOOD_3_5, "schema": 1},
    "float-schema": {**GOOD_3_5, "schema": 2.0},
    "non-integer-pairs": {**GOOD_3_5, "steps": [_stage(pairs="1")]},
    "float-pairs": {**GOOD_3_5, "steps": [_stage(pairs=1.0)]},
    "short-cone": {**GOOD_3_5, "steps": [_stage(cone=[1])]},
    "long-cone": {**GOOD_3_5, "steps": [_stage(cone=[1, 3, 5])]},
    "empty-target": {**GOOD_3_5, "steps": [_stage(target=[])]},
    "repeated-target": {**GOOD_3_5, "steps": [_stage(target=[[1, 5], [1, 5]])]},
    "stage-not-object": {**GOOD_3_5, "steps": [[2, 1]]},
    "extra-key": {**GOOD_3_5, "extra": 0},
    "steps-not-list": {**GOOD_3_5, "steps": {}},
    "not-coprime": {**GOOD_3_5, "a": 2, "b": 4},
    "string-a": {**GOOD_3_5, "a": "3"},
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_certificate_exits_2(tmp_path, capsys, name):
    code, out, err = run(capsys, "verify", "--cert", str(write(tmp_path, MALFORMED[name])))
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{", encoding="utf-8")
    code, _, err = run(capsys, "verify", "--cert", str(path))
    assert code == cli.EXIT_USAGE and err.startswith("error: ")


def test_deeply_nested_certificate_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    code, out, err = run(capsys, "verify", "--cert", str(path))
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_well_formed_3_5_document_verifies(tmp_path, capsys):
    doc = {**GOOD_3_5, "steps": [_stage(), _stage(r=1, cone=[0, 2], target=[[0, 4], [2, 4]])]}
    code, out, _ = run(capsys, "verify", "--cert", str(write(tmp_path, doc)))
    assert code == cli.EXIT_OK and json.loads(out)["steps_applied"] == 2


def test_verify_over_size_guard_exits_3(tmp_path, capsys, monkeypatch):
    path = emit(tmp_path, capsys, 5, 8)
    monkeypatch.setenv("RATASSOC_MAX_B", "7")
    code, out, err = run(capsys, "verify", "--cert", str(path))
    assert code == cli.EXIT_CAP and out == "" and err.startswith("cap exceeded: ")


@pytest.mark.parametrize(
    "argv,env",
    [
        (["collapse", "--a", "5", "--b", "7", "--emit", "-"], {"RATASSOC_MAX_B": "5"}),
        (["duality", "--b", "7"], {"RATASSOC_MAX_B": "5"}),
    ],
)
def test_collapse_and_duality_honour_caps(capsys, monkeypatch, argv, env):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_CAP and out == ""
    assert err.startswith("cap exceeded: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,env,module,name",
    [
        # the size guard, not a face count, bounds the Dyck walk
        (["fvector", "--a", "5", "--b", "8"], {"RATASSOC_MAX_B": "7"},
         complexes, "enumerate_dyck_paths"),
        # the size guard comes before the partition check, which is O(b^3)
        (["duality", "--b", "400"], {}, cli, "alexander_partition_check"),
        # build's exact clique count refuses the noncrossing model before
        # any face is listed, though --full-faces would list them all
        (["build", "--model", "hat", "--a", "5", "--b", "8", "--full-faces"],
         {"RATASSOC_FACE_CAP": "100"}, complexes, "clique_complex"),
        # the obstruction graph builds no model, so the size guard alone bounds it
        (["obstruction", "--a", "20", "--b", "41"], {}, cli, "build_obstruction_graph"),
        # membership builds no model either; its laser table grows as b^2
        (["membership", "--a", "299", "--b", "300", "--face", ""], {}, cli, "parse_face"),
        # the drawing grows with b
        (["render", "--a", "2", "--b", "100001", "--face", ""], {}, cli, "parse_face"),
        # Delta_13 = ass(12,13) has 13,648,869 faces, over the face cap, yet
        # homology reads no face: only the size guard refuses it
        (["homology", "--a", "12", "--b", "13"], {"RATASSOC_MAX_B": "12"},
         complexes, "enumerate_dyck_paths"),
        # so too duality, before its first pair, (1,13) against (12,13)
        (["duality", "--b", "13"], {"RATASSOC_MAX_B": "12"}, cli, "alexander_duality_check"),
    ],
)
def test_caps_refuse_before_the_work(capsys, monkeypatch, argv, env, module, name):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} ran before the cap check")

    monkeypatch.setattr(module, name, forbidden)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_CAP and out == ""
    assert err.startswith("cap exceeded: ") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["abc", "-1", "1e3"])
@pytest.mark.parametrize(
    "name,argv",
    [
        ("RATASSOC_FACE_CAP", ["build", "--a", "3", "--b", "5"]),
        ("RATASSOC_MAX_B", ["membership", "--a", "3", "--b", "5", "--face", ""]),
    ],
)
def test_a_cap_that_is_not_a_non_negative_integer_exits_2(capsys, monkeypatch, name, argv, value):
    monkeypatch.setenv(name, value)
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_USAGE and out == ""
    assert err == f"error: {name} must be a non-negative integer, not {value!r}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["collapse", "--a", "5", "--b", "8", "--emit", "-"],
        ["duality", "--b", "8"],
        ["fvector", "--a", "5", "--b", "8"],
    ],
)
def test_the_face_cap_binds_build_alone(capsys, monkeypatch, argv):
    """A command that lists no model prints byte for byte the same with the
    face cap far under its models' face counts as with no cap set."""
    monkeypatch.delenv("RATASSOC_FACE_CAP", raising=False)
    free = run(capsys, *argv)
    monkeypatch.setenv("RATASSOC_FACE_CAP", "100")
    assert run(capsys, *argv) == free
    assert free[0] == cli.EXIT_OK and free[2] == ""


@pytest.mark.parametrize("a,b", [(12, 13), (11, 14), (13, 14)])
def test_hat_homology_reaches_b_14(capsys, a, b):
    """hat(a, b) over the face cap is a wedge of C(b,a)/b (a-2)-spheres,
    read from its matching tree with no face listed."""
    code, out, err = run(capsys, "homology", "--a", str(a), "--b", str(b), "--model", "hat")
    assert code == cli.EXIT_OK and err == ""
    wedge = {str(a - 2): comb(b, a) // b}
    assert json.loads(out)["reduced_betti_nonzero"] == {"gf2": wedge, "q": wedge}


def test_collapse_then_verify_reaches_11_14(tmp_path, capsys):
    """hat(11,14) has over 10**7 faces; its certificate replays onto
    ass(11,14), whose face count is the Kirkman sum."""
    code, out, err = run(capsys, "verify", "--cert", str(emit(tmp_path, capsys, 11, 14)))
    assert code == cli.EXIT_OK and err == ""
    doc = json.loads(out)
    assert doc["ok"] and doc["target_matched"]
    assert doc["terminal_face_count"] == sum(kirkman(11, 14, i) for i in range(1, 12))


@pytest.mark.parametrize(
    "face,reason",
    [("0-3", "diagonal 0-3 is not (3,5)-admissible"), ("0-4,1-5", "diagonals 0-4 and 1-5 cross")],
)
@pytest.mark.parametrize("command", ["render", "membership"])
def test_face_outside_noncrossing_model_exits_2(capsys, command, face, reason):
    code, out, err = run(capsys, command, "--a", "3", "--b", "5", "--face", face)
    assert code == cli.EXIT_USAGE and out == ""
    assert err == f"error: {reason}\n"


@pytest.mark.parametrize("text", ["a-b", "5", "1-2-3"])
@pytest.mark.parametrize("command", ["render", "membership"])
def test_malformed_face_names_the_bad_diagonal(capsys, command, text):
    code, out, err = run(capsys, command, "--a", "3", "--b", "5", "--face", text)
    assert code == cli.EXIT_USAGE and out == ""
    assert err == f"error: malformed diagonal {text!r}: expected i-j with integers i and j\n"


def test_render_draws_a_valid_face(capsys):
    code, out, err = run(capsys, "render", "--a", "5", "--b", "8", "--face", "0-5,2-4")
    assert code == cli.EXIT_OK and err == ""
    assert out.startswith("<svg") and out.count("<line ") == 2


@pytest.mark.parametrize("field", ["both", "gf2", "q"])
@pytest.mark.parametrize("model", ["ass", "hat"])
@pytest.mark.parametrize("a,b", coprime_pairs(max_b=8))
def test_homology_is_a_wedge_of_spheres(capsys, a, b, model, field):
    code, out, err = run(
        capsys, "homology", "--a", str(a), "--b", str(b), "--model", model, "--field", field
    )
    assert code == cli.EXIT_OK and err == ""
    wedge = {str(a - 2): comb(b, a) // b}
    fields = ["gf2", "q"] if field == "both" else [field]
    doc = json.loads(out)
    assert (doc["a"], doc["b"], doc["model"]) == (a, b, model)
    assert doc["reduced_betti_nonzero"] == {f: wedge for f in fields}


@pytest.mark.parametrize("b", range(3, 10))
def test_duality_matches_closed_forms(capsys, b):
    code, out, err = run(capsys, "duality", "--b", str(b))
    assert code == cli.EXIT_OK and err == ""
    doc = json.loads(out)
    assert doc["ok"] and doc["partition_ok"]
    assert doc["total_diagonals"] == (b + 1) * (b - 2) // 2
    coprime = [a for a in range(1, b) if gcd(a, b) == 1]
    assert [row["a"] for row in doc["duality"]] == coprime
    for row in doc["duality"]:
        rank = comb(b, row["a"]) // b
        assert row == {"a": row["a"], "dual_a": b - row["a"], "expected_rank": rank,
                       "rank_left": rank, "rank_right": rank, "ok": True}


def kirkman(a: int, b: int, i: int) -> int:
    return comb(a, i) * comb(b + i - 1, i - 1) // a


def narayana(a: int, b: int, i: int) -> int:
    return comb(a, i) * comb(b - 1, i - 1) // a


@pytest.mark.parametrize("a,b", coprime_pairs(max_b=9))
def test_fvector_matches_kirkman_and_narayana(capsys, a, b):
    f = [kirkman(a, b, i) for i in range(1, a + 1)]
    h = [narayana(a, b, i) for i in range(1, a + 1)]
    code, out, err = run(capsys, "fvector", "--a", str(a), "--b", str(b))
    assert code == cli.EXIT_OK and err == ""
    assert json.loads(out) == {"schema": 1, "a": a, "b": b, "f": f, "h": h,
                               "kirkman": f, "narayana": h}
    code, out, err = run(capsys, "fvector", "--a", str(a), "--b", str(b), "--format", "text")
    assert code == cli.EXIT_OK and err == ""
    assert out == f"f = {tuple(f)}\nh = {tuple(h)}\n"


@pytest.mark.parametrize("a,b", coprime_pairs(max_b=9))
def test_build_lists_the_dyck_facets_and_every_face(capsys, a, b):
    code, out, err = run(capsys, "build", "--model", "ass", "--a", str(a), "--b", str(b),
                         "--full-faces")
    assert code == cli.EXIT_OK and err == ""
    doc = json.loads(out)
    assert len(doc["facets"]) == comb(a + b, a) // (a + b)
    assert all(len(facet) == a - 1 for facet in doc["facets"])
    assert len(doc["faces"]) == sum(kirkman(a, b, i) for i in range(1, a + 1))


def test_obstruction_formats_carry_the_golden_edges(capsys):
    pair = ["--a", "5", "--b", "8"]
    golden = (GOLDEN / "og_5_8.txt").read_text(encoding="utf-8")
    code, out, err = run(capsys, "obstruction", *pair, "--format", "text")
    assert code == cli.EXIT_OK and err == "" and out == golden
    edges = [tuple(line.split()) for line in golden.splitlines()]
    code, out, _ = run(capsys, "obstruction", *pair, "--format", "json")
    assert code == cli.EXIT_OK
    assert [tuple(f"{i}-{j}" for i, j in e) for e in json.loads(out)["edges"]] == edges
    code, out, _ = run(capsys, "obstruction", *pair, "--format", "dot")
    assert code == cli.EXIT_OK
    assert sorted(re.findall(r'"(\d+-\d+)" -- "(\d+-\d+)"', out)) == sorted(edges)


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["homology", "--a", "5", "--b", "8", "--model", "hat", "--field", "both"],
         "homology_5_8_hat.json"),
        (["duality", "--b", "9"], "duality_9.json"),
    ],
)
def test_homology_and_duality_golden_output(capsys, argv, golden):
    code, out, _ = run(capsys, *argv)
    assert code == cli.EXIT_OK
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_only_build_full_faces_lists_a_face_set(tmp_path, capsys, monkeypatch):
    """Every other command reads the models' graphs: with the lister of a
    graph's cliques patched to raise, homology of both models, fvector,
    duality, build, collapse and verify all exit 0, and ``build
    --full-faces`` is the one command that reaches it."""
    def forbidden(*args):
        raise AssertionError("a face set was built")

    monkeypatch.setattr(complexes, "clique_complex", forbidden)
    monkeypatch.setattr(collapse, "clique_complex", forbidden)
    pair, cert = ["--a", "4", "--b", "7"], str(tmp_path / "cert.json")
    for argv in (["homology", *pair, "--model", "ass"], ["homology", *pair, "--model", "hat"],
                 ["fvector", *pair], ["duality", "--b", "7"], ["build", "--model", "hat", *pair],
                 ["collapse", *pair, "--emit", cert], ["verify", "--cert", cert]):
        code, _, err = run(capsys, *argv)
        assert (code, err) == (cli.EXIT_OK, ""), argv
    with pytest.raises(AssertionError, match="a face set was built"):
        cli.main(["build", "--model", "ass", *pair, "--full-faces"])


def test_each_model_is_built_and_reduced_once(capsys, monkeypatch):
    """One build per model, and one clique walk, which gives its face counts
    and its critical cells to every field."""
    built, walked = Counter(), []
    build_ass, clique_walk = cli.build_ass, complexes.clique_walk

    def counting_build(a, b, **kwargs):
        built[a, b] += 1
        return build_ass(a, b, **kwargs)

    def counting_walk(adj, vertices):
        walked.append(vertices)
        return clique_walk(adj, vertices)

    monkeypatch.setattr(cli, "build_ass", counting_build)
    monkeypatch.setattr(complexes, "clique_walk", counting_walk)
    assert run(capsys, "duality", "--b", "9")[0] == cli.EXIT_OK
    assert built == {(a, 9): 1 for a in (1, 2, 4, 5, 7, 8)}
    assert len(walked) == 6
    walked.clear()
    argv = ["homology", "--a", "5", "--b", "8", "--model", "hat", "--field", "both"]
    assert run(capsys, *argv)[0] == cli.EXIT_OK
    assert len(walked) == 1


def test_one_parser_serves_every_call(capsys, monkeypatch):
    """The first call builds the parser and later calls reuse it: a usage
    error, ``--version`` and a command print what a freshly built parser
    prints, and a handler's collaborator rebound after the first call still
    takes effect."""
    calls = [["homology", "--a", "3"], ["--version"], ["homology", "--a", "3", "--b", "5"]]
    monkeypatch.setenv("COLUMNS", "80")
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(run(capsys, *argv))
    assert [code for code, _, _ in fresh] == [cli.EXIT_USAGE, cli.EXIT_OK, cli.EXIT_OK]

    built, build_parser = [], cli.build_parser

    def counting_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_parser)
    monkeypatch.setattr(cli, "_parser", None)
    assert [run(capsys, *argv) for argv in calls] == fresh
    assert len(built) == 1

    models, build_ass = [], cli.build_ass

    def counting_build(a, b, **kwargs):
        models.append((a, b))
        return build_ass(a, b, **kwargs)

    monkeypatch.setattr(cli, "build_ass", counting_build)
    assert run(capsys, *calls[-1]) == fresh[-1]
    assert models == [(3, 5)] and len(built) == 1
