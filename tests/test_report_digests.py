"""Every seed-0 verification report matches its committed digest.

A change that is meant to move a report regenerates the golden file with

    python3 tools/report_digests.py | awk '$3 == 0' > tests/data/report_digests_seed0.txt

and lists the moved lines in its change note.  Every sum over a path's
pieces or an ensemble's members runs first to last, so the digests hold
bit for bit under each of OpenBLAS's kernels; they still depend on numpy's
``exp`` loops, so the refusals and pass flags are also checked under an
imitated AVX2-only CPU, whose values may move by rounding only.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# loads tools/report_digests.py, given as argv[1], as ``tool``
LOAD_TOOL = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("report_digests", sys.argv[1])
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
"""
SEED0_DIGESTS = LOAD_TOOL + """
for t in tool.THEOREMS:
    for c in tool.COSTS:
        print(t, c, 0, tool.digest(t, c, 0))
"""


@pytest.mark.parametrize("coretype", ["Haswell", "Sandybridge", "Nehalem"])
def test_seed0_digests_hold_under_other_blas_kernels(coretype, tmp_path):
    """The 50 seed-0 digests, recomputed in a subprocess under one of
    OpenBLAS's AVX2, AVX and SSE kernels, are the golden ones bit for bit.
    Only the BLAS kernel changes: numpy's loops are left at the CPU's own,
    as the digests still depend on their ``exp``."""
    env = {k: v for k, v in os.environ.items()
           if k != "NPY_DISABLE_CPU_FEATURES"}
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SEED0_DIGESTS,
         str(ROOT / "tools" / "report_digests.py")],
        cwd=tmp_path, env={**env, "OPENBLAS_CORETYPE": coretype},
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == GOLDEN.read_text().splitlines()


# OpenBLAS's kernels and numpy's loops of a CPU without AVX512
AVX2_ONLY = {"OPENBLAS_CORETYPE": "Haswell",
             "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}
SEED0_REPORTS = LOAD_TOOL + """
print(json.dumps([tool.report(t, c, 0) for t in tool.THEOREMS
                  for c in tool.COSTS], default=bool))
"""


def _moves(native, other, where="reports"):
    """Where two JSON trees differ in shape, in a string or flag, or in a
    number by more than 1e-14 * max(1, |native|)."""
    if isinstance(native, dict):
        if not isinstance(other, dict) or native.keys() != other.keys():
            return [where]
        keys = list(native)
    elif isinstance(native, list):
        if not isinstance(other, list) or len(native) != len(other):
            return [where]
        keys = range(len(native))
    elif type(native) in (int, float) and type(other) in (int, float):
        tol = 1e-14 * max(1.0, abs(native))
        same = math.isclose(native, other, rel_tol=0.0, abs_tol=tol) or \
            (math.isnan(native) and math.isnan(other))
        return [] if same else [where]
    else:
        return [] if (type(native), native) == (type(other), other) else \
            [where]
    return [m for k in keys
            for m in _moves(native[k], other[k], f"{where}[{k!r}]")]


def _seed0_moves(env, tmp_path) -> list:
    """Where the 50 seed-0 reports, recomputed in a subprocess under
    ``env``, move from this run's (see _moves)."""
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SEED0_REPORTS,
         str(ROOT / "tools" / "report_digests.py")],
        cwd=tmp_path, env={**os.environ, **env}, capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    native = json.loads(json.dumps(
        [report_digests.report(theorem, cost, 0)
         for theorem in report_digests.THEOREMS
         for cost in report_digests.COSTS], default=bool))
    return _moves(native, json.loads(proc.stdout))


def test_seed0_verdicts_do_not_depend_on_the_cpu(tmp_path):
    """The 50 seed-0 reports, recomputed in a subprocess under the kernels
    of an AVX2-only CPU, refuse and pass as they do here, with every value
    and margin within 1e-14 relative of this run's."""
    assert _seed0_moves(AVX2_ONLY, tmp_path) == []


# numpy's X86_V2 baseline loops (SSE4.2, no AVX), no dispatched target
X86_V2_ONLY = {"OPENBLAS_CORETYPE": "Nehalem",
               "NPY_DISABLE_CPU_FEATURES":
               "AVX512_SPR AVX512_ICL X86_V4 X86_V3"}


def test_seed0_verdicts_hold_on_numpys_baseline_loops(tmp_path):
    """The same with numpy's dispatched AVX2 and AVX512 loops both off,
    which leaves it on its X86_V2 baseline."""
    assert _seed0_moves(X86_V2_ONLY, tmp_path) == []
