"""tools/suite_times.py, ladder_times.py and cli_times.py: one round on
this tree, and a round count below one."""

import re
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


REFERENCE = re.compile(
    r"Reference work \(perfbench/reference\.py, once beside each round\): "
    r"median (\d+\.\d\d) ms, quartiles (\d+\.\d\d)-(\d+\.\d\d) ms; a wide "
    r"spread, or a median above other runs' on this machine, marks a loaded "
    r"machine\.")


def _reference_times(block: list) -> tuple:
    """The reference line, one block of its own: its median and quartiles
    in ms, each positive and in order."""
    assert len(block) == 1
    line = REFERENCE.fullmatch(block[0])
    assert line, block[0]
    median, q1, q3 = map(float, line.groups())
    assert 0.0 < q1 <= median <= q3
    return median, q1, q3


@pytest.mark.parametrize("tool", sorted(ROWS))
def test_one_round_on_this_tree_prints_every_row(tool):
    """One round prints the table, every row, and under it the line of the
    reference timed beside the round: its one time is its own median and
    quartiles."""
    got = _run(tool, "--rounds", "1")
    assert got.returncode == 0, got.stderr
    lines, reference = _blocks(got.stdout)[:2]
    assert lines[0].startswith("| ") and lines[1].startswith("|---")
    assert [line.split(" | ")[0][2:] for line in lines[2:]] == ROWS[tool]
    median, q1, q3 = _reference_times(reference)
    assert q1 == median == q3


@pytest.mark.parametrize("tool", sorted(ROWS))
def test_two_trees_add_the_paired_ratio_and_faster_count(tool):
    """Two rounds of this tree against itself: each row ends in the median
    ratio, the first and third quartiles of the per-round ratios, which
    enclose it, and the count k/2 of rounds the second tree won, whose
    majority sides with the ratio; one line under the table says what is
    paired, and the next gives the reference's median and quartiles."""
    got = _run(tool, str(ROOT), "--rounds", "2")
    assert got.returncode == 0, got.stderr
    lines, note, reference = _blocks(got.stdout)[:3]
    _reference_times(reference)
    assert lines[0].endswith(" ms | ratio | quartiles | faster |")
    assert lines[1] == "|---" * 6 + "|"
    table = lines[2:]
    assert [line.split(" | ")[0][2:] for line in table] == ROWS[tool]
    for line in table:
        ratio, spread, won = line.removesuffix(" |").split(" | ")[-3:]
        ratio, won = float(ratio.removesuffix("x")), won.removesuffix("/2")
        q1, q3 = map(float, spread.split("-"))
        assert q1 <= ratio <= q3  # rounding keeps the order
        assert won in ("0", "1", "2")
        # two rounds won (lost) put the median ratio at or above (below) 1
        assert {"2": ratio >= 1.0, "0": ratio <= 1.0}.get(won, True)
    assert note == ["The ms columns are each tree's median over the "
                    "rounds, unpaired; ratio (the median of the per-round "
                    "ratios), quartiles (their first and third quartiles: a "
                    "wide spread marks a loaded machine) and faster (the "
                    "rounds in which the second tree was faster) are paired "
                    "round by round."]


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


def _tree_whose_solve_mk_returns(tmp_path, name: str, body: str) -> Path:
    """A copy of this tree's ``src/lagot`` whose ``solve_mk`` returns
    ``body``, an expression of ``sol``, the exact solution."""
    other = tmp_path / name
    shutil.copytree(ROOT / "src" / "lagot", other / "src" / "lagot")
    solver = other / "src" / "lagot" / "mk_solver.py"
    solver.write_text(solver.read_text() + (
        "\n\nimport dataclasses  # noqa: E402\n"
        "from types import SimpleNamespace  # noqa: E402\n\n"
        "exact = solve_mk\n\n\n"
        "def solve_mk(*args):\n"
        "    sol = exact(*args)\n"
        f"    return {body}\n"))
    return other


AGREE = "Values, plans, bases and potentials: "


def test_ladder_prints_each_trees_pivots_and_whether_they_agree(tmp_path):
    """After its times, ladder_times.py prints each rung's median pivot
    count per tree, and with two trees whether they returned bit-identical
    values, plans, sorted bases and potentials in every round: this tree
    against itself agrees, and a tree whose solutions carry no pivot
    count, basis or potentials and whose values move by 1e-9 reads "-" and
    differs in every round."""
    got = _run("ladder_times.py", str(ROOT), "--rounds", "2")
    assert got.returncode == 0, got.stderr
    pivots, agree = _blocks(got.stdout)[3:]
    assert pivots[0] == f"| rung | {ROOT} pivots | {ROOT} pivots |"
    rows = _pivot_rows(pivots)
    assert [row[0][2:] for row in rows] == ROWS["ladder_times.py"][:-1]
    assert all(a == b and float(a) > 0 for _, a, b in rows)
    assert agree == [AGREE + "bit-identical in all 2 rounds."]

    other = _tree_whose_solve_mk_returns(
        tmp_path, "other",
        "SimpleNamespace(value=sol.value + 1e-9, plan=sol.plan)")
    got = _run("ladder_times.py", str(other), "--rounds", "2")
    assert got.returncode == 0, got.stderr
    pivots, agree = _blocks(got.stdout)[3:]
    assert all(row[2] == "-" and float(row[1]) > 0
               for row in _pivot_rows(pivots))
    assert agree == [AGREE + "differ in 2 of 2 rounds."]


@pytest.mark.parametrize("body, verdict", [
    ("dataclasses.replace(sol, basis=sol.basis[::-1])",
     "bit-identical in all 2 rounds."),
    ("dataclasses.replace(sol, pot=sol.pot[:-1] + [sol.pot[-1] + 1e-9])",
     "differ in 2 of 2 rounds."),
    ("dataclasses.replace(sol, basis=sol.basis[1:] + sol.basis[-1:])",
     "differ in 2 of 2 rounds.")])
def test_ladder_compares_the_sorted_basis_and_the_potentials(tmp_path, body,
                                                             verdict):
    """Against this tree, a tree whose solutions list the same basis cells
    in another order agrees, and one whose last potential moves by 1e-9 or
    whose basis drops its first cell for a second copy of its last differs
    in every round, values and plans unchanged."""
    got = _run("ladder_times.py",
               str(_tree_whose_solve_mk_returns(tmp_path, "other", body)),
               "--rounds", "2")
    assert got.returncode == 0, got.stderr
    assert _blocks(got.stdout)[-1] == [AGREE + verdict]
