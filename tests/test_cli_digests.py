"""Every call of the seeded CLI call list matches its committed digest.

A change that is meant to move a call's output regenerates the golden file
with

    python3 tools/cli_digests.py > tests/data/cli_digests.txt

and lists the moved lines in its change note.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "cli_digests.txt"

_spec = importlib.util.spec_from_file_location(
    "cli_digests", ROOT / "tools" / "cli_digests.py")
cli_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digests)


def test_cli_calls_match_the_golden_digests():
    got = [f"{name} {digest}" for name, digest in cli_digests.digests()]
    assert got == GOLDEN.read_text().splitlines()
