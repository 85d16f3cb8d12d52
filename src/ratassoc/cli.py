"""Command-line frontend.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 cap
exceeded.  All outputs are deterministic; JSON is emitted with sorted keys
and fixed indentation so identical invocations are byte-identical.

Caps can be overridden with the two environment variables RATASSOC_FACE_CAP
and RATASSOC_MAX_B, each a non-negative integer (anything else is a usage
error); every command that builds a model builds it under them, and
``obstruction``, ``duality``, ``membership`` and ``render``, whose first
work grows with b alone, refuse a b over RATASSOC_MAX_B before doing any.

The argument parser is built once per process, on the first ``main`` call,
and reused by every later call.  Each subcommand's handler looks up its
collaborators as module globals when it runs, so a rebinding of one of them
takes effect on the cached parser too.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .collapse import CollapseCertificate, collapse_schedule, verify_certificate
from .complexes import (
    DEFAULT_FACE_CAP,
    DEFAULT_MAX_B,
    FHVector,
    build_ass,
    build_hat_ass,
    guard_b,
    parse_face,
    rational_kirkman,
    rational_narayana,
)
from .errors import CapExceededError, MalformedCertificateError, RatAssocError
from .homology import alexander_duality_check, alexander_partition_check, betti_numbers
from .membership import valley_path
from .obstruction import build_obstruction_graph
from .polygon import check_hat_face, check_slope_pair
from .render import face_svg

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


_CAP_DEFAULTS = {"RATASSOC_FACE_CAP": DEFAULT_FACE_CAP, "RATASSOC_MAX_B": DEFAULT_MAX_B}


def _cap(name: str) -> int:
    """The cap the environment variable ``name`` sets, or its default.  A
    value that is not a non-negative integer is a usage error."""
    text = os.environ.get(name)
    if text is None:
        return _CAP_DEFAULTS[name]
    if not text.isdecimal():
        raise ValueError(f"{name} must be a non-negative integer, not {text!r}")
    return int(text)


def _build(model: str, a: int, b: int):
    build = build_hat_ass if model == "hat" else build_ass
    return build(a, b, max_faces=_cap("RATASSOC_FACE_CAP"), max_b=_cap("RATASSOC_MAX_B"))


def _add_pair_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=int, required=True, help="height of the slope pair")
    p.add_argument("--b", type=int, required=True, help="width of the slope pair (coprime, > a)")


def cmd_build(args) -> int:
    cpx = _build(args.model, args.a, args.b)
    sys.stdout.write(_dumps(cpx.to_json(include_faces=args.full_faces)))
    return EXIT_OK


def cmd_fvector(args) -> int:
    cpx = _build("ass", args.a, args.b)
    fh = FHVector.of(cpx)
    doc = {
        "schema": 1,
        "a": args.a,
        "b": args.b,
        "f": list(fh.f),
        "h": list(fh.h),
        "kirkman": [rational_kirkman(args.a, args.b, i) for i in range(1, args.a + 1)],
        "narayana": [rational_narayana(args.a, args.b, i) for i in range(1, args.a + 1)],
    }
    if args.format == "text":
        sys.stdout.write(f"f = {fh.f}\nh = {fh.h}\n")
    else:
        sys.stdout.write(_dumps(doc))
    return EXIT_OK


def cmd_membership(args) -> int:
    guard_b(args.b, _cap("RATASSOC_MAX_B"))  # the laser table grows as b^2
    face = parse_face(args.face, args.b)
    result = valley_path(face, args.a, args.b)
    doc: dict = {"schema": 1, "a": args.a, "b": args.b, "member": result.is_member}
    if result.is_member:
        doc["valley_path"] = result.valley_path.word
    else:
        doc["break_x"] = result.break_x
    sys.stdout.write(_dumps(doc))
    return EXIT_OK


def cmd_obstruction(args) -> int:
    guard_b(args.b, _cap("RATASSOC_MAX_B"))
    graph = build_obstruction_graph(args.a, args.b)
    if args.format == "dot":
        sys.stdout.write(graph.to_dot())
    elif args.format == "text":
        for e in graph.edges:
            sys.stdout.write(e.text() + "\n")
    else:
        sys.stdout.write(_dumps(graph.to_json()))
    return EXIT_OK


def cmd_collapse(args) -> int:
    cert = collapse_schedule(
        args.a, args.b, hat=_build("hat", args.a, args.b), ass=_build("ass", args.a, args.b),
        graph=build_obstruction_graph(args.a, args.b),
    )
    payload = cert.dumps()
    if args.emit == "-":
        sys.stdout.write(payload)
    else:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(payload)
        sys.stdout.write(
            _dumps(
                {
                    "schema": 1,
                    "a": args.a,
                    "b": args.b,
                    "steps": cert.n_steps,
                    "stages": len(cert.stages),
                    "written": args.emit,
                }
            )
        )
    return EXIT_OK


def cmd_verify(args) -> int:
    with open(args.cert, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise MalformedCertificateError("certificate nests too deeply to read") from None
    cert = CollapseCertificate.from_json(doc, max_b=_cap("RATASSOC_MAX_B"))
    hat = _build("hat", cert.a, cert.b)
    ass = _build("ass", cert.a, cert.b)
    report = verify_certificate(hat, ass, cert)
    doc = {
        "schema": 1,
        "a": cert.a,
        "b": cert.b,
        "ok": report.ok,
        "steps_applied": report.steps_applied,
        "failure_index": report.failure_index,
        "reason": report.reason,
        "terminal_face_count": report.terminal_face_count,
        "target_matched": report.target_matched,
    }
    sys.stdout.write(_dumps(doc))
    return EXIT_OK if report.ok else EXIT_VERIFY


def cmd_homology(args) -> int:
    cpx = _build(args.model, args.a, args.b)
    fields = ["gf2", "q"] if args.field == "both" else [args.field]
    betti = {}
    for field in fields:
        vec = betti_numbers(cpx, field)
        betti[field] = {str(k): v for k, v in vec.nonzero().items()}
    doc = {
        "schema": 1,
        "a": args.a,
        "b": args.b,
        "model": args.model,
        "dim": vec.dim,
        "reduced_betti_nonzero": betti,
    }
    sys.stdout.write(_dumps(doc))
    return EXIT_OK


def cmd_duality(args) -> int:
    b = args.b
    guard_b(b, _cap("RATASSOC_MAX_B"))  # before the partition check, which is O(b^3)
    partition = alexander_partition_check(b)
    rows: dict[int, dict] = {}
    for a, _, _ in partition.pairs:
        if b - a < a:
            # the pair was checked as (b - a, b): C(b, a) = C(b, b - a) and
            # the test is symmetric, so only the two ranks trade places
            seen = rows[b - a]
            rows[a] = {**seen, "a": a, "dual_a": b - a,
                       "rank_left": seen["rank_right"], "rank_right": seen["rank_left"]}
            continue
        report = alexander_duality_check(
            a, b, ass_left=_build("ass", a, b), ass_right=_build("ass", b - a, b)
        )
        rows[a] = {
            "a": a,
            "dual_a": b - a,
            "expected_rank": report.expected_rank,
            "rank_left": report.rank_left,
            "rank_right": report.rank_right,
            "ok": report.ok,
        }
    sweeps = list(rows.values())
    ok = partition.ok and all(row["ok"] for row in sweeps)
    doc = {
        "schema": 1,
        "b": b,
        "partition_ok": partition.ok,
        "total_diagonals": partition.total_diagonals,
        "duality": sweeps,
        "ok": ok,
        "notes": [
            "duality entries are homology-rank surrogates for the topological statement"
        ],
    }
    sys.stdout.write(_dumps(doc))
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_render(args) -> int:
    guard_b(args.b, _cap("RATASSOC_MAX_B"))  # the drawing grows with b
    face = parse_face(args.face, args.b)
    check_slope_pair(args.a, args.b)
    check_hat_face(face, args.a, args.b)
    svg = face_svg(face, args.b)
    if args.out == "-":
        sys.stdout.write(svg)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratassoc",
        description="Rational associahedra: build, collapse, verify.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="materialize one of the two models as JSON")
    _add_pair_args(p)
    p.add_argument("--model", choices=("hat", "ass"), default="hat")
    p.add_argument("--full-faces", action="store_true", help="include every face, not just facets")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("fvector", help="f- and h-vectors of the lattice-path model")
    _add_pair_args(p)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_fvector)

    p = sub.add_parser("membership", help="valley-path membership test for a face")
    _add_pair_args(p)
    p.add_argument("--face", required=True, help='comma-separated diagonals, e.g. "5-7,2-4,0-5,0-4"')
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser("obstruction", help="the obstruction graph")
    _add_pair_args(p)
    p.add_argument("--format", choices=("json", "dot", "text"), default="json")
    p.set_defaults(func=cmd_obstruction)

    p = sub.add_parser("collapse", help="generate a collapse certificate")
    _add_pair_args(p)
    p.add_argument("--emit", default="-", help="output path, or - for stdout")
    p.set_defaults(func=cmd_collapse)

    p = sub.add_parser("verify", help="re-verify a collapse certificate")
    p.add_argument("--cert", required=True, help="certificate JSON path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("homology", help="reduced Betti numbers")
    _add_pair_args(p)
    p.add_argument("--model", choices=("hat", "ass"), default="ass")
    p.add_argument("--field", choices=("gf2", "q", "both"), default="both")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("duality", help="partition and rank-duality sweep for one b")
    p.add_argument("--b", type=int, required=True)
    p.set_defaults(func=cmd_duality)

    p = sub.add_parser("render", help="draw a face as an SVG dissection")
    _add_pair_args(p)
    p.add_argument("--face", required=True)
    p.add_argument("-o", "--out", default="-")
    p.set_defaults(func=cmd_render)

    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first main call


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except RatAssocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
