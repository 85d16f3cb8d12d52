"""The benchmark's per-layer hooks wrap public ratassoc functions by name;
a hooked function that no command calls any more breaks the traced run.
This runs one traced benchmark chain on tiny pairs and checks that every
per-layer metric BENCHMARK.json names is reported, then the benchmark's own
self-test: its end-to-end metrics, its guard against a verifier that
accepts a tampered certificate, and its refusal to run without sources."""

from __future__ import annotations

import importlib
import json
from pathlib import Path

from ratassoc import cli

ROOT = Path(__file__).resolve().parent.parent


def test_traced_chain_reports_every_per_layer_metric(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    run = importlib.import_module("run")
    selftest = importlib.import_module("selftest")
    record = run.run("selftest", 0, 0.0, True, main=cli.main, plan=selftest.TINY)
    assert record["result"]["failed"] == 0, record["failures"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(record["values"]) == {m["name"] for m in spec["per_layer"]}


def test_benchmark_self_test(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    selftest = importlib.import_module("selftest")
    for check in (selftest.test_end_to_end_metrics, selftest.test_tamper_guard_fires,
                  selftest.test_refuses_without_sources):
        check(cli.main)
