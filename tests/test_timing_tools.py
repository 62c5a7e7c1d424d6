"""tools/suite_times.py, ladder_times.py and cli_times.py: one round on
this tree, and a round count below one."""

import shutil
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


def _blocks(out: str) -> list:
    """The output's blank-line-separated blocks, each as its lines."""
    return [block.splitlines() for block in out.rstrip("\n").split("\n\n")]


@pytest.mark.parametrize("tool", sorted(ROWS))
def test_one_round_on_this_tree_prints_every_row(tool):
    got = _run(tool, "--rounds", "1")
    assert got.returncode == 0, got.stderr
    lines = _blocks(got.stdout)[0]
    assert lines[0].startswith("| ") and lines[1].startswith("|---")
    assert [line.split(" | ")[0][2:] for line in lines[2:]] == ROWS[tool]


@pytest.mark.parametrize("tool", sorted(ROWS))
def test_two_trees_add_the_paired_ratio_and_faster_count(tool):
    """Two rounds of this tree against itself: each row ends in the median
    ratio and the count k/2 of rounds the second tree won, whose majority
    sides with the ratio; one line under the table says what is paired."""
    got = _run(tool, str(ROOT), "--rounds", "2")
    assert got.returncode == 0, got.stderr
    lines, note = _blocks(got.stdout)[:2]
    assert lines[0].endswith(" ms | ratio | faster |")
    assert lines[1] == "|---" * 5 + "|"
    table = lines[2:]
    assert [line.split(" | ")[0][2:] for line in table] == ROWS[tool]
    for line in table:
        ratio, won = line.removesuffix(" |").split(" | ")[-2:]
        ratio, won = float(ratio.removesuffix("x")), won.removesuffix("/2")
        assert won in ("0", "1", "2")
        # two rounds won (lost) put the median ratio at or above (below) 1
        assert {"2": ratio >= 1.0, "0": ratio <= 1.0}.get(won, True)
    assert note == ["The ms columns are each tree's median over the "
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
    rows = [line.split(" | ") for line in _blocks(got.stdout)[0][2:]]
    assert [row[0][2:] for row in rows] == ROWS["ladder_times.py"][:-1] + [
        "n3", "n3_equal", "pass"]
    ms = [float(row[1].removesuffix(" |")) for row in rows]
    assert ms[-1] == pytest.approx(sum(ms[:-1]), abs=0.01 * len(ms))
    bad = _run("ladder_times.py", "--rounds", "1", "--sizes", "3,0")
    assert bad.returncode == 2 and bad.stdout == ""
    assert bad.stderr.splitlines()[-1].endswith(
        "sizes must be positive integers, got '3,0'")


def _pivot_rows(block: list) -> list:
    """The cells of each row of a pivot table."""
    return [line.removesuffix(" |").split(" | ") for line in block[2:]]


def test_ladder_prints_each_trees_pivots_and_whether_they_agree(tmp_path):
    """After its times, ladder_times.py prints each rung's median pivot
    count per tree, and with two trees whether they returned bit-identical
    values and plans in every round: this tree against itself agrees, and
    a tree whose solutions carry no pivot count and whose values move by
    1e-9 reads "-" and differs in every round."""
    got = _run("ladder_times.py", str(ROOT), "--rounds", "2")
    assert got.returncode == 0, got.stderr
    pivots, agree = _blocks(got.stdout)[2:]
    assert pivots[0] == f"| rung | {ROOT} pivots | {ROOT} pivots |"
    rows = _pivot_rows(pivots)
    assert [row[0][2:] for row in rows] == ROWS["ladder_times.py"][:-1]
    assert all(a == b and float(a) > 0 for _, a, b in rows)
    assert agree == ["Values and plans: bit-identical in all 2 rounds."]

    other = tmp_path / "other"
    shutil.copytree(ROOT / "src" / "lagot", other / "src" / "lagot")
    solver = other / "src" / "lagot" / "mk_solver.py"
    solver.write_text(solver.read_text() + (
        "\n\nfrom types import SimpleNamespace  # noqa: E402\n\n"
        "exact = solve_mk\n\n\n"
        "def solve_mk(*args):\n"
        "    sol = exact(*args)\n"
        "    return SimpleNamespace(value=sol.value + 1e-9, plan=sol.plan)\n"))
    got = _run("ladder_times.py", str(other), "--rounds", "2")
    assert got.returncode == 0, got.stderr
    pivots, agree = _blocks(got.stdout)[2:]
    assert all(row[2] == "-" and float(row[1]) > 0
               for row in _pivot_rows(pivots))
    assert agree == ["Values and plans: differ in 2 of 2 rounds."]
