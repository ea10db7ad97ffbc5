"""Rewrite tests/artifact_digests.json from the current tree.

    python tests/update_artifact_digests.py

Runs the configs of `test_artifact_digests.CONFIGS` at each of its seeds
in a temporary directory and records the sha256 of every artifact, with
the environment that wrote them. Run it after a change that moves
artifacts by design, and name each artifact whose digest moved in
CHANGES.md.
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
    with tempfile.TemporaryDirectory() as workdir:
        digests = artifact_digests(Path(workdir))
    doc = {"environment": environment(), "digests": digests}
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")


if __name__ == "__main__":
    main()
