"""Rewrite ``hashes.json`` from the CLI as it is now, and list what moved.

Usage: ``python tests/golden/regen.py``.  Run it only for a declared change
of CLI output, and name the invocations it prints (moved, added or removed)
in that change's CHANGES.md entry.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]  # velo, and tests/helpers.py

from golden_cases import HASHES, replay  # noqa: E402


def main() -> int:
    old = json.loads(HASHES.read_text()) if HASHES.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = replay(Path(tmp))
    for name, digest in new.items():
        if old.get(name) != digest:
            print(("moved " if name in old else "added ") + name)
    for name in old.keys() - new.keys():
        print("removed " + name)
    HASHES.write_text(json.dumps(new, indent=0) + "\n")
    print(f"{len(new)} invocations written to {HASHES.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
