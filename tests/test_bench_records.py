"""Every committed BENCH_*.json record backs its speed claim on the
reference pairs: before and after rows for (7,12), (8,13) and (9,14),
each with seconds and peak RSS.  A record also names itself: its tag is
its file name's suffix and its parent a commit id, so a record copied from
another and left unedited fails."""

from __future__ import annotations

import json
import re
from numbers import Real
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
REFERENCE_PAIRS = [(7, 12), (8, 13), (9, 14)]


def _positive(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool) and value > 0


def test_there_is_a_record():
    assert RECORDS, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_has_reference_rows(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    rows = {(row["a"], row["b"]): row for row in doc["reference_pairs"]}
    for pair in REFERENCE_PAIRS:
        assert pair in rows, f"{path.name} has no row for {pair}"
        for side in ("before", "after"):
            entry = rows[pair][side]
            assert entry["seconds"], f"{path.name} {pair} {side}: no timings"
            assert all(_positive(s) for s in entry["seconds"].values()), (path.name, pair, side)
            assert _positive(entry["peak_rss_mb"]), (path.name, pair, side)


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_names_itself(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["tag"] == path.stem.removeprefix("BENCH_"), (path.name, doc["tag"])
    parent = doc["parent"]
    assert isinstance(parent, str) and re.fullmatch(r"[0-9a-f]{7,40}", parent), (path.name, parent)
