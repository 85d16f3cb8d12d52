"""Every command's output stays byte for byte what ``tests/golden/manifest.json``
records (see ``tests/manifest.py``)."""

from __future__ import annotations

import json

from manifest import MANIFEST, digests


def test_every_command_matches_the_byte_manifest():
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    actual = digests()
    assert sorted(actual) == sorted(expected), "the set of invocations changed"
    changed = [key for key in expected if actual[key] != expected[key]]
    assert not changed, "output changed for: " + "; ".join(changed)
