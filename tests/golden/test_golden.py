"""The CLI prints the same bytes as when ``hashes.json`` was written.

A change meant to alter CLI output regenerates the file with
``python tests/golden/regen.py`` and names what moved in CHANGES.md.
"""
from __future__ import annotations

import json

from golden_cases import HASHES, replay


def test_every_invocation_prints_the_golden_bytes(tmp_path):
    expected = json.loads(HASHES.read_text())
    actual = replay(tmp_path)
    assert list(actual) == list(expected), "the invocation list changed; regenerate hashes.json"
    moved = [name for name, digest in actual.items() if digest != expected[name]]
    assert not moved, f"{len(moved)} invocations print other bytes:\n" + "\n".join(moved[:20])
