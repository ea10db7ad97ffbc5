"""Rewrite tests/artifact_digests.json from the current tree.

    python tests/update_artifact_digests.py

Runs the configs of `test_artifact_digests.CONFIGS` at each of its seeds
in a temporary directory and records the sha256 of every artifact, with
the environment that wrote them. Run it after a change that moves
artifacts by design, and name each artifact whose digest moved in
CHANGES.md: it prints the keys that moved, were added or were removed
against the file it replaces.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from test_artifact_digests import DIGESTS, artifact_digests, environment  # noqa: E402


def main() -> None:
    old = json.loads(DIGESTS.read_text())["digests"] if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as workdir:
        digests = artifact_digests(Path(workdir))
    doc = {"environment": environment(), "digests": digests}
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
    changes = {
        "moved": [k for k in digests if k in old and old[k] != digests[k]],
        "added": [k for k in digests if k not in old],
        "removed": [k for k in old if k not in digests],
    }
    for change, keys in changes.items():
        for key in sorted(keys):
            print(f"{change}: {key}")


if __name__ == "__main__":
    main()
