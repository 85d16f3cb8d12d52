"""Benchmark of the ratassoc CLI, run end to end from a source checkout.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

One run is one process.  It imports ``ratassoc.cli`` from ``src/`` and
calls ``cli.main(argv)`` for each command of the workload's chain (see
``chains.py``), with stdout captured and files in a temporary directory
under ``.perfbench-out/``.  It repeats the chain until the next one would
end past ``--seconds`` and checks every command's output against the
paper's closed forms.  The seed fixes the order of the chain's commands.

Times are per command: each command line's median over the run's
chains, summed over the chain.  Other tenants of a shared host slow it by
tens of percent for tens of seconds at a time, so every command's time is
scaled to a reference host speed first: by ``CAL_REF_S`` over the time of
a fixed calibration kernel run just before and after it (``chains.py``).
The unscaled figure is in the report and the run record.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
``setup_s`` is the median launch-to-exit time of
``python3 -c 'import ratassoc.cli'``, ``wall_s`` the time of one chain,
``<kind>_s`` its part in each command kind, ``peak_rss_mb`` the
process's peak resident set and ``cert_bytes`` the bytes of
certificates one chain writes.

``--trace 1`` alternates untraced and traced chains and reports the
per-layer metrics: the self time of every span name and the counters,
as means per traced chain, and ``trace.overhead_s``, the traced chain
time less the untraced one.  Spans go to
``.perfbench-out/<workload>-seed<seed>.spans.jsonl``.

Every run writes its environment, per-chain samples and failures to
``.perfbench-out/<workload>-seed<seed>-trace<t>.json``; the last line of
stdout is the JSON result.  Linux only: it reads ``ru_maxrss`` in KiB and
``/proc/self/statm``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import uuid
from pathlib import Path
from time import perf_counter

from chains import WORKLOADS, Chain
from spans import Tracer, instrument

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
KINDS = ("collapse", "verify", "homology", "fvector", "duality")
SETUP_LAUNCHES = 9


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_program():
    """``ratassoc.cli.main`` from this checkout's ``src/``, never another copy."""
    if not (SRC / "ratassoc" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no ratassoc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ratassoc.cli

    if Path(ratassoc.cli.__file__).resolve().parent != SRC / "ratassoc":
        raise SystemExit(f"perfbench: imported ratassoc from {ratassoc.cli.__file__}, not {SRC}")
    return ratassoc.cli.main


def setup_seconds() -> float:
    """Median launch-to-exit time of an interpreter that imports the CLI.

    One launch first, untimed, so bytecode is compiled as in an install.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-c", "import ratassoc.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def source_identity() -> dict:
    """The commit, if the checkout is a git work tree, and a hash of src/."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text(encoding="ascii").strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text(encoding="ascii").strip() if ref_file.is_file() else None
        commit = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "ratassoc").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def measure(main, plan, seconds: float, tracer: Tracer | None, work: Path) -> tuple[list[Chain], list[Chain]]:
    """Run chains until the next would end past ``seconds``.

    Returns the untraced and traced chains.  With a tracer, chains
    alternate untraced and traced, and at least one of each runs.
    """
    untraced: list[Chain] = []
    traced: list[Chain] = []
    deadline = perf_counter() + seconds
    while True:
        use_tracer = tracer is not None and len(untraced) > len(traced)
        chain = Chain(main, work, tracer if use_tracer else None)
        start = perf_counter()
        if use_tracer:
            with instrument(tracer):
                for unit in plan:
                    unit(chain)
        else:
            for unit in plan:
                unit(chain)
        chain.close()
        (traced if use_tracer else untraced).append(chain)
        last = perf_counter() - start
        enough = traced or tracer is None
        if enough and perf_counter() + last > deadline:
            return untraced, traced


def per_command(rows) -> dict[str, tuple[str, float]]:
    """Each command line's kind and median seconds over the chains."""
    times: dict[str, list[float]] = {}
    kinds: dict[str, str] = {}
    for chain in rows:
        for kind, line, seconds in chain:
            kinds[line] = kind
            times.setdefault(line, []).append(seconds)
    return {line: (kinds[line], statistics.median(t)) for line, t in times.items()}


def chain_seconds(measured: list[Chain]) -> float:
    """One chain, each command at its median scaled time."""
    return sum(seconds for _, seconds in per_command(s.scaled() for s in measured).values())


def end_to_end(measured: list[Chain], setup_s: float) -> dict[str, float]:
    medians = per_command(s.scaled() for s in measured).values()
    values = {
        "setup_s": setup_s,
        "wall_s": sum(seconds for _, seconds in medians),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cert_bytes": statistics.median(s.cert_bytes for s in measured),
    }
    for kind in KINDS:
        values[f"{kind}_s"] = sum(seconds for k, seconds in medians if k == kind)
    return values


def per_layer(untraced: list[Chain], traced: list[Chain], tracer: Tracer) -> dict[str, float]:
    n = len(traced)
    values: dict[str, float] = {}
    for name, seconds in tracer.self_times().items():
        key = "cli.self.s" if name.startswith("cli.") else f"{name}.s"
        values[key] = values.get(key, 0.0) + seconds / n
    for name, count in tracer.counts.items():
        values[name] = count / n
    values.update(tracer.peaks)
    probes = values.get("obstruction.probes", 0)
    values["obstruction.edge_ratio"] = values.get("obstruction.edges", 0) / probes if probes else 0.0
    values["trace.overhead_s"] = chain_seconds(traced) - chain_seconds(untraced)
    return values


def run(workload: str, seed: int, seconds: float, trace: bool, main=None, plan=None) -> dict:
    """One benchmark run; returns the full record, with ``result`` the
    object the last stdout line prints.  ``plan`` overrides the
    workload's chain, for the self-test."""
    spec = load_spec()
    main = main or load_program()
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        **source_identity(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
    }
    setup_s = None if trace else setup_seconds()
    if plan is None:
        plan = WORKLOADS[workload](random.Random(seed))
    tracer = Tracer(f"{workload}-{seed}-{uuid.uuid4().hex}") if trace else None
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as work:
        untraced, traced = measure(main, plan, seconds, tracer, Path(work))
    record["loadavg_after"] = os.getloadavg()
    measured = untraced + traced
    failures = [f for s in measured for f in s.failures]
    if trace:
        values = per_layer(untraced, traced, tracer)
        names = spec["per_layer"]
        record["traced_wall_s"] = [s.wall for s in traced]
        tracer.write_jsonl(OUT / f"{workload}-seed{seed}.spans.jsonl")
    else:
        values = end_to_end(untraced, setup_s)
        names = spec["end_to_end"]
    record["chains"] = [{"traced": s in traced, "wall_s": s.wall, "commands": s.commands,
                         "calibrations": s.cals, "cert_bytes": s.cert_bytes} for s in measured]
    record["unscaled_wall_s"] = sum(t for _, t in per_command(
        [(k, line, t) for k, line, t, _ in s.commands] for s in untraced).values())
    record["failures"] = failures
    record["values"] = values
    record["result"] = {
        "correct": not failures,
        "attempted": sum(s.attempted for s in measured),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }
    return record


def print_report(record: dict) -> None:
    result = record["result"]
    print(f"perfbench {record['workload']} seed={record['seed']} seconds={record['seconds']} trace={record['trace']}")
    print(f"  commit={record['commit']} src_sha256={record['src_sha256'][:16]} python={record['python']} "
          f"nproc={record['nproc']} loadavg before={record['loadavg_before']} after={record['loadavg_after']}")
    walls = [c["wall_s"] for c in record["chains"]]
    print(f"  chains: {len(walls)}, commands: {result['attempted']}, "
          f"chain seconds median {statistics.median(walls):.6g} min {min(walls):.6g} max {max(walls):.6g}")
    print(f"  unscaled chain seconds (median per command) {record['unscaled_wall_s']:.6g}")
    print(f"  error_rate = {result['failed'] / result['attempted']:.6g} ({result['failed']} of {result['attempted']} commands failed)")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if record["trace"]:
        values = record["values"]
        spans = sum(v for k, v in values.items() if k.endswith(".s"))
        print(f"  traced wall_s = {statistics.mean(record['traced_wall_s']):.6g} s (mean); "
              f"layer spans + cli.self.s = {spans:.6g} s")
    for failure in record["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print_report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
