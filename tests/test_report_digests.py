"""Every seed-0 verification report matches its committed digest.

A change that is meant to move a report regenerates the golden file with

    python3 tools/report_digests.py | awk '$3 == 0' > tests/data/report_digests_seed0.txt

and lists the moved lines in its change note.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "report_digests_seed0.txt"

_spec = importlib.util.spec_from_file_location(
    "report_digests", ROOT / "tools" / "report_digests.py")
report_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_digests)


def test_seed0_reports_match_the_golden_digests():
    got = [f"{theorem} {cost} 0 {report_digests.digest(theorem, cost, 0)}"
           for theorem in report_digests.THEOREMS
           for cost in report_digests.COSTS]
    assert got == GOLDEN.read_text().splitlines()
