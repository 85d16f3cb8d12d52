"""Byte manifest of the command-line interface.

Runs ``cli.main`` in process over a fixed set of invocations and records a
digest of (exit code, stdout, stderr) for each: every command for every
coprime pair with b <= 8, ``duality`` for b = 2..9, the cap errors,
argparse's own exits and a (5,8) certificate with a relabeled first stage.
``tests/test_manifest.py`` regenerates the digests and names every
invocation whose output changed.

Rewrite ``tests/golden/manifest.json`` only when an output is meant to
change::

    PYTHONPATH=src python tests/manifest.py
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from math import gcd
from pathlib import Path

from ratassoc import all_admissible_diagonals, cli, enumerate_dyck_paths
from ratassoc.complexes import bit_positions, face_text

MANIFEST = Path(__file__).parent / "golden" / "manifest.json"

# the cap errors; under RATASSOC_FACE_CAP, collapse, duality and fvector list
# no face and print what they print uncapped, while build refuses both models
CAP_ERRORS = [
    (["collapse", "--a", "5", "--b", "7", "--emit", "-"], {"RATASSOC_MAX_B": "5"}),
    (["duality", "--b", "7"], {"RATASSOC_MAX_B": "5"}),
    (["collapse", "--a", "5", "--b", "8", "--emit", "-"], {"RATASSOC_FACE_CAP": "100"}),
    (["duality", "--b", "8"], {"RATASSOC_FACE_CAP": "100"}),
    (["fvector", "--a", "5", "--b", "8"], {"RATASSOC_FACE_CAP": "100"}),
    (["build", "--model", "hat", "--a", "5", "--b", "8"], {"RATASSOC_FACE_CAP": "100"}),
    (["build", "--model", "ass", "--a", "5", "--b", "8"], {"RATASSOC_FACE_CAP": "100"}),
    (["build", "--model", "ass", "--a", "5", "--b", "8", "--full-faces"],
     {"RATASSOC_FACE_CAP": "100"}),
    (["duality", "--b", "400"], {}),
    (["obstruction", "--a", "20", "--b", "41"], {}),
    (["membership", "--a", "299", "--b", "300", "--face", ""], {}),
    (["render", "--a", "2", "--b", "100001", "--face", ""], {}),
]

# argparse exits before any command runs; COLUMNS fixes the usage wrapping
PARSER_EXITS = [
    ["--version"],
    [],
    ["frobnicate"],
    ["homology", "--a", "3"],
    ["build", "--model", "foo", "--a", "3", "--b", "5"],
    ["fvector", "--a", "x", "--b", "5"],
]


def _digest(argv: list[str], env: dict[str, str]) -> str:
    saved = {key: os.environ.get(key) for key in env}
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def digests() -> dict[str, str]:
    """Run every invocation in a fresh working directory; returns a digest
    per invocation, keyed by its environment and argv."""
    result: dict[str, str] = {}
    here = os.getcwd()

    def call(*argv: str, env: dict[str, str] | None = None) -> None:
        env = env or {}
        key = " ".join([f"{k}={v}" for k, v in sorted(env.items())] + list(argv))
        assert key not in result, f"invocation listed twice: {key}"
        result[key] = _digest(list(argv), env)

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for b in range(2, 9):
                for a in range(1, b):
                    if gcd(a, b) == 1:
                        _pair(call, str(a), str(b))
            for b in range(2, 10):
                call("duality", "--b", str(b))
            for argv, env in CAP_ERRORS:
                call(*argv, env=env)
            for argv in PARSER_EXITS:
                call(*argv, env={"COLUMNS": "80"})
            call("verify", "--cert", "cert-5-8.json", env={"RATASSOC_MAX_B": "7"})
            doc = json.loads(Path("cert-5-8.json").read_text(encoding="utf-8"))
            doc["steps"][0].update(r=99, q=7)  # the collapse stays valid, the label does not
            Path("relabeled-5-8.json").write_text(json.dumps(doc), encoding="utf-8")
            call("verify", "--cert", "relabeled-5-8.json")
        finally:
            os.chdir(here)
    return result


def _pair(call, a: str, b: str) -> None:
    pair = ("--a", a, "--b", b)
    for model in ("hat", "ass"):
        call("build", "--model", model, *pair)
        call("build", "--model", model, *pair, "--full-faces")
        for field in ("gf2", "q", "both"):
            call("homology", "--model", model, "--field", field, *pair)
    for fmt in ("json", "text"):
        call("fvector", *pair, "--format", fmt)
    for fmt in ("json", "dot", "text"):
        call("obstruction", *pair, "--format", fmt)
    call("collapse", *pair, "--emit", "-")
    cert, dropped = f"cert-{a}-{b}.json", f"dropped-{a}-{b}.json"
    call("collapse", *pair, "--emit", cert)
    call("verify", "--cert", cert)
    doc = json.loads(Path(cert).read_text(encoding="utf-8"))
    doc["steps"] = doc["steps"][1:]
    Path(dropped).write_text(json.dumps(doc), encoding="utf-8")
    call("verify", "--cert", dropped)
    ground = all_admissible_diagonals(int(a), int(b))
    last = enumerate_dyck_paths(int(a), int(b))[-1]  # the last Dyck facet in lex order
    face = face_text(ground[p] for p in bit_positions(last))
    call("membership", *pair, "--face", face)
    call("render", *pair, "--face", face)


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(digests(), indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {MANIFEST}\n")
