"""Per-subcommand times of capped-cli's calls, to compare two trees.

    python3 tools/cli_times.py TREE [TREE] [--rounds 30] [--seed 0]

Each TREE is a checkout holding ``src/lagot``; both are imported into this
one process, side by side, with ``tools/suite_times.py``'s loader.  Round
k writes pass k's instance of capped-cli (with the caps, atom counts and
instance generator of this checkout's perfbench/workloads.py) and runs
its calls through each tree's ``lagot.cli.main``, the trees' order
alternating from round to round: per cap, build-optimal --theorem 2.6,
eval --objective plain on the ``ensemble`` of its output (when the build
succeeds) and solve-mk --max-arc-length, then one eval handed the last
cap's build-optimal output unchanged (``raw eval``, which is refused).
Before the first round each tree runs the warm-up instance at the last
cap, as the benchmark does.  Prints the median over the rounds of each
tree's milliseconds per subcommand and for the whole pass and, with two
trees, the median of the per-round ratios first / second (above 1 means
the second tree is faster) and the count k/N of the rounds in which the
second tree was faster, as ``tools/suite_times.py`` prints them.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from time import perf_counter

# suite_times pins BLAS to one thread before numpy is first imported
from suite_times import load, parse_trees, print_table, timed_rounds, workloads

W = workloads()  # the caps, seeds and instances that perfbench times


def make_pass(seed: int, k: int, d: Path) -> list:
    """Write pass k's two measure files into ``d``; its caps."""
    return W.CappedCli(seed, d).make_pass(k)[2]


def run_pass(cli, d: Path, caps) -> dict:
    """Summed seconds per subcommand of one pass over ``caps`` in ``d``;
    the ensemble is copied out of build-optimal's output untimed."""
    times = dict.fromkeys(("build-optimal", "eval", "solve-mk", "raw eval"),
                          0.0)

    def timed(name, *argv) -> int:
        t0 = perf_counter()
        with contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main([*argv, "--cost", W.CLI_COST])
        times[name] += perf_counter() - t0
        return rc

    pair = ["--p0", str(d / "p0.json"), "--p1", str(d / "p1.json")]
    for factor, r in caps:
        built = d / f"build-{factor}.json"
        built_rc = timed("build-optimal", "build-optimal", "--theorem", "2.6",
                         *pair, "--bound", repr(r), "--out", str(built))
        if built_rc == 0:
            (d / "ens.json").write_text(json.dumps(
                json.loads(built.read_text())["ensemble"]))
            timed("eval", "eval", "--objective", "plain", "--ensemble",
                  str(d / "ens.json"), "--out", str(d / "eval.json"))
        timed("solve-mk", "solve-mk", *pair, "--max-arc-length", repr(r),
              "--out", str(d / "solve.json"))
    if built_rc == 0:
        timed("raw eval", "eval", "--objective", "plain", "--ensemble",
              str(built), "--out", str(d / "eval.json"))
    return times


def main(argv=None) -> None:
    args = parse_trees(__doc__, argv, rounds=30)
    clis = [load(tree.resolve(), "cli")[0] for tree in args.trees]
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        caps = make_pass(W.WARM_UP_SEED, 0, d)
        for cli in clis:
            run_pass(cli, d, caps[-1:])
        rounds = timed_rounds(clis, args.rounds, lambda cli, k: run_pass(
            cli, d, make_pass(args.seed, k, d)))
    print_table("subcommand", "pass", args.trees, rounds, digits=2)


if __name__ == "__main__":
    main()
