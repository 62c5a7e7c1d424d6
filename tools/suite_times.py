"""Per-suite times of suite-sweep's (suite, cost) pairs, to compare two trees.

    python3 tools/suite_times.py TREE [TREE] [--rounds 12] [--seed 0]

Each TREE is a checkout holding ``src/lagot``.  Both trees are imported
into this one process, side by side, and each round runs every pair of
one suite-sweep pass (``harness.verify`` then ``Report.dumps()``, the
pass's verify seeds and trial count; see perfbench/workloads.py) in
both trees, the trees' order alternating from round to round.  Before the
first round each tree runs one pass at one trial, as the benchmark's
warm-up does.  Prints, per suite and for all ten, the median over the
rounds of each tree's summed milliseconds and, with two trees, the median
of the per-round ratios first / second (above 1 means the second tree is
faster) and the count k/N of the rounds in which the second tree was
faster.  Each round runs another pass, so the ms columns are unpaired; the
ratio and the count are paired.  Runs on one thread, like the benchmark.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def _purge() -> None:
    for name in [k for k in sys.modules
                 if k == "lagot" or k.startswith("lagot.")]:
        del sys.modules[name]


def load(tree: Path, *names: str) -> list:
    """The modules ``lagot.<name>`` of ``tree``, one per name; they stay
    alive through these references once they leave ``sys.modules``."""
    _purge()
    sys.path.insert(0, str(tree / "src"))
    try:
        mods = [importlib.import_module(f"lagot.{name}") for name in names]
        if not Path(mods[0].__file__).resolve().is_relative_to(tree):
            raise SystemExit(f"{tree} holds no src/lagot")
        return mods
    finally:
        sys.path.remove(str(tree / "src"))
        _purge()


def workloads():
    """This checkout's perfbench/workloads.py, whose generators the tools
    time; the lagot it imports leaves ``sys.modules`` again."""
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        return importlib.import_module("perfbench.workloads")
    finally:
        del sys.path[:2]
        _purge()


def run_pass(harness, costs, refused, pairs, seed: int, k: int,
             trials: int) -> dict:
    """Summed seconds per suite of pass k, with the verify seeds and the
    trial count suite-sweep gives it; a refusal counts its time."""
    times: dict = {}
    for i, (suite, cost) in enumerate(pairs):
        cfg = harness.VerifyConfig(
            theorem=suite, seed=seed * 1_000_000 + k * 100 + i,
            trials=trials, cost_spec=costs.parse_cost(cost).to_spec())
        t0 = perf_counter()
        try:
            harness.verify(cfg).dumps()
        except refused:  # timed, as suite-sweep times them
            pass
        times[suite] = times.get(suite, 0.0) + perf_counter() - t0
    return times


def parse_trees(doc: str, argv, rounds: int, **options):
    """The command line TREE [TREE] [--rounds N] [--seed S], and one
    ``--NAME`` per keyword NAME, whose value holds add_argument's keywords."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("trees", nargs="+", type=Path)
    ap.add_argument("--rounds", type=int, default=rounds)
    ap.add_argument("--seed", type=int, default=0)
    for name, kwargs in options.items():
        ap.add_argument(f"--{name}", **kwargs)
    args = ap.parse_args(argv)
    if len(args.trees) > 2:
        ap.error("give one or two trees")
    if args.rounds < 1:
        ap.error(f"--rounds must be at least 1, got {args.rounds}")
    return args


def timed_rounds(progs: list, n_rounds: int, run) -> list:
    """``run(prog, k)`` of every tree in round k, the trees' order
    alternating from round to round; per round, per tree, its result."""
    rounds = []
    for k in range(n_rounds):
        order = list(range(len(progs)))[::1 if k % 2 == 0 else -1]
        got = {t: run(progs[t], k) for t in order}
        rounds.append([got[t] for t in range(len(progs))])
    return rounds


def print_table(kind: str, total: str, trees, rounds, digits: int = 1):
    """One row per name of the rounds' {name: seconds} and one, ``total``,
    for their sum: the median over the rounds of each tree's milliseconds
    and, with two trees, the median of the per-round ratios and the count
    k/N of the rounds in which the second tree was faster, then a line
    saying which columns are paired."""
    two = len(trees) == 2
    print(f"| {kind} | " + " | ".join(f"{t} ms" for t in trees)
          + (" | ratio | faster |" if two else " |"))
    print("|---" * (len(trees) + 1 + 2 * two) + "|")
    for name in list(rounds[0][0]) + [total]:
        def ms(t, r):
            got = r[t]
            return 1e3 * (sum(got.values()) if name == total else got[name])
        cells = [f"{statistics.median(ms(t, r) for r in rounds):.{digits}f}"
                 for t in range(len(trees))]
        if two:
            ratios = [ms(0, r) / ms(1, r) for r in rounds]
            cells.append(f"{statistics.median(ratios):.2f}x")
            cells.append(f"{sum(q > 1.0 for q in ratios)}/{len(ratios)}")
        print(f"| {name} | " + " | ".join(cells) + " |")
    if two:
        print("\nThe ms columns are each tree's median over the rounds, "
              "unpaired; ratio (the median of the per-round ratios) and "
              "faster (the rounds in which the second tree was faster) are "
              "paired round by round.")


def main(argv=None) -> None:
    args = parse_trees(__doc__, argv, rounds=12)
    W = workloads()
    pairs = [(s, c) for s in W.SUITES for c in W.SWEEP_COSTS]
    progs = []
    for tree in args.trees:
        harness, costs, errors = load(tree.resolve(), "harness", "costs",
                                      "errors")
        progs.append((harness, costs, errors.AssumptionRefused))
    for prog in progs:
        run_pass(*prog, pairs, 0, 0, trials=1)
    rounds = timed_rounds(progs, args.rounds, lambda prog, k: run_pass(
        *prog, pairs, args.seed, k, 20))
    print_table("suite", "all ten", args.trees, rounds)


if __name__ == "__main__":
    main()
