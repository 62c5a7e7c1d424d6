"""tools/suite_times.py, ladder_times.py and cli_times.py: one round on
this tree, and a round count below one."""

import subprocess
import sys
from pathlib import Path

import pytest

from lagot.harness import THEOREMS

ROOT = Path(__file__).resolve().parents[1]
# tool -> the first cell of each row of its table, in order
ROWS = {
    "suite_times.py": [*THEOREMS, "all ten"],
    "ladder_times.py": ["n10", "n20", "n40", "n20_equal", "pass"],
    "cli_times.py": ["build-optimal", "eval", "solve-mk", "raw eval", "pass"],
}


def _run(tool: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "tools" / tool),
                           str(ROOT), *argv],
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("tool", sorted(ROWS))
def test_one_round_on_this_tree_prints_every_row(tool):
    got = _run(tool, "--rounds", "1")
    assert got.returncode == 0, got.stderr
    lines = got.stdout.splitlines()
    assert lines[0].startswith("| ") and lines[1].startswith("|---")
    assert [line.split(" | ")[0][2:] for line in lines[2:]] == ROWS[tool]


@pytest.mark.parametrize("tool", sorted(ROWS))
def test_two_trees_add_the_paired_ratio_and_faster_count(tool):
    """Two rounds of this tree against itself: each row ends in the median
    ratio and the count k/2 of rounds the second tree won, whose majority
    sides with the ratio; one line under the table says what is paired."""
    got = _run(tool, str(ROOT), "--rounds", "2")
    assert got.returncode == 0, got.stderr
    lines = got.stdout.splitlines()
    assert lines[0].endswith(" ms | ratio | faster |")
    assert lines[1] == "|---" * 5 + "|"
    table, note = lines[2:-2], lines[-2:]
    assert [line.split(" | ")[0][2:] for line in table] == ROWS[tool]
    for line in table:
        ratio, won = line.removesuffix(" |").split(" | ")[-2:]
        ratio, won = float(ratio.removesuffix("x")), won.removesuffix("/2")
        assert won in ("0", "1", "2")
        # two rounds won (lost) put the median ratio at or above (below) 1
        assert {"2": ratio >= 1.0, "0": ratio <= 1.0}.get(won, True)
    assert note == ["", "The ms columns are each tree's median over the "
                    "rounds, unpaired; ratio (the median of the per-round "
                    "ratios) and faster (the rounds in which the second "
                    "tree was faster) are paired round by round."]


@pytest.mark.parametrize("rounds", ["0", "-3"])
@pytest.mark.parametrize("tool", sorted(ROWS))
def test_a_round_count_below_one_is_a_usage_error(tool, rounds):
    """It used to end in an IndexError traceback from print_table."""
    got = _run(tool, "--rounds", rounds)
    assert got.returncode == 2 and got.stdout == ""
    assert got.stderr.startswith("usage: ")
    assert got.stderr.splitlines()[-1].endswith(
        f"error: --rounds must be at least 1, got {rounds}")


def test_ladder_sizes_add_a_dirichlet_and_an_equal_row_per_size():
    """--sizes 3 adds the rows n3 and n3_equal after mk-ladder's rows, and
    the pass row sums them too; a size below one is a usage error."""
    got = _run("ladder_times.py", "--rounds", "1", "--sizes", "3")
    assert got.returncode == 0, got.stderr
    rows = [line.split(" | ") for line in got.stdout.splitlines()[2:]]
    assert [row[0][2:] for row in rows] == ROWS["ladder_times.py"][:-1] + [
        "n3", "n3_equal", "pass"]
    ms = [float(row[1].removesuffix(" |")) for row in rows]
    assert ms[-1] == pytest.approx(sum(ms[:-1]), abs=0.01 * len(ms))
    bad = _run("ladder_times.py", "--rounds", "1", "--sizes", "3,0")
    assert bad.returncode == 2 and bad.stdout == ""
    assert bad.stderr.splitlines()[-1].endswith(
        "sizes must be positive integers, got '3,0'")
