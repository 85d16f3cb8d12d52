"""Self-test of the benchmark harness on tiny pairs; takes a few seconds.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that traced spans account for the traced chain time, that the tamper
guard turns an accepted tampered certificate into a failed command, and
that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import dataclasses
import shutil
import statistics
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

import run
from chains import duality, pair_units

TINY = [u for a, b in ((2, 3), (3, 4), (3, 5)) for u in pair_units(a, b)] + [partial(duality, 5)]


def check_emitted(record: dict, kind: str) -> None:
    result = record["result"]
    assert result["correct"] and result["failed"] == 0, record["failures"]
    want = {m["name"]: m["unit"] for m in run.load_spec()[kind]}
    assert set(record["values"]) == set(want), set(record["values"]) ^ set(want)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want


def test_end_to_end_metrics(main) -> None:
    record = run.run("selftest", 0, 0.5, False, main=main, plan=TINY)
    check_emitted(record, "end_to_end")
    zero = [k for k, m in record["result"]["metrics"].items() if m["value"] <= 0]
    assert not zero, f"end-to-end metrics must never be 0: {zero}"


def test_per_layer_metrics(main) -> None:
    record = run.run("selftest", 0, 0.5, True, main=main, plan=TINY)
    check_emitted(record, "per_layer")
    spans = sum(v for k, v in record["values"].items() if k.endswith(".s"))
    wall = statistics.mean(record["traced_wall_s"])
    assert abs(spans - wall) < 1e-6 * max(wall, 1.0), (spans, wall)


def test_tamper_guard_fires(main) -> None:
    import ratassoc.cli as cli

    real = cli.verify_certificate

    def lenient(start, target, cert, **kwargs):
        report = real(start, target, cert, **kwargs)
        return report if report.ok else dataclasses.replace(
            report, ok=True, failure_index=None, reason=None, target_matched=True)

    cli.verify_certificate = lenient
    try:
        record = run.run("selftest", 0, 0.0, False, main=main, plan=TINY)
    finally:
        cli.verify_certificate = real
    failures = record["failures"]
    assert len(failures) == 1 and "tampered-3-5" in failures[0], failures
    assert record["result"]["failed"] == 1 and not record["result"]["correct"]


def test_refuses_without_sources(main) -> None:
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT, prefix="bare-") as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)


def main() -> int:
    cli_main = run.load_program()
    tests = [test_end_to_end_metrics, test_per_layer_metrics, test_tamper_guard_fires, test_refuses_without_sources]
    for test in tests:
        test(cli_main)
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
