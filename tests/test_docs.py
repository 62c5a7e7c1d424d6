"""The README's tolerance table against the constants it names."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
NAMED = {"_RC_TOL", "_FORBIDDEN_FLOW_TOL", "_BOUND_TOL", "_FEAS_TOL",
         "WEIGHT_SUM_TOL", "PLAN_MARGIN_TOL", "DURATION_TOL", "_EQ_TOL",
         "STRICT_MARGIN"}


def _table_rows() -> list:
    """(name, module, value) of each row of the table under "Every
    tolerance", as written."""
    text = README.read_text().split("Every tolerance", 1)[1]
    rows = []
    for line in text.splitlines()[1:]:
        if line.startswith("|"):
            rows.append([c.strip() for c in line.strip("|").split("|")][:3])
        elif rows:
            break
    return rows[2:]  # below the header and its rule


def test_the_tolerance_table_states_each_constants_value():
    """Each row naming a module constant gives its value, so a changed
    tolerance cannot leave the table stale; every named constant has a
    row."""
    seen = set()
    for name, module, value in _table_rows():
        name, module = name.strip("`"), module.strip("`")
        if name not in NAMED:
            continue
        got = getattr(importlib.import_module(f"lagot.{module}"), name)
        assert re.fullmatch(r"\d+(\.\d+)?e-\d+", value), (name, value)
        assert float(value) == got, (name, module, value, got)
        seen.add(name)
    assert seen == NAMED
