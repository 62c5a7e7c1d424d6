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
faster), their first and third quartiles, and the count k/N of the rounds
in which the second tree was faster.  Each round runs another pass, so
the ms columns are unpaired; the ratio, its quartiles and the count are
paired.  Under the table a last line gives the median and quartiles of
perfbench/reference.py's ``reference_work``, timed once beside each round,
so that a loaded machine shows.  Runs on one thread, like the benchmark.
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


def reference():
    """This checkout's perfbench/reference.py, a fixed computation that
    never calls lagot."""
    sys.path.insert(0, str(ROOT))
    try:
        return importlib.import_module("perfbench.reference")
    finally:
        sys.path.remove(str(ROOT))


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


def timed_rounds(progs: list, n_rounds: int, run) -> tuple:
    """``run(prog, k)`` of every tree in round k, the trees' order
    alternating from round to round, with the reference timed once before
    each round: per round, per tree, its result, then the reference's
    seconds in each round."""
    work, rounds, refs = reference().reference_work, [], []
    for k in range(n_rounds):
        t0 = perf_counter()
        work()
        refs.append(perf_counter() - t0)
        order = list(range(len(progs)))[::1 if k % 2 == 0 else -1]
        got = {t: run(progs[t], k) for t in order}
        rounds.append([got[t] for t in range(len(progs))])
    return rounds, refs


def quartiles(values: list) -> tuple:
    """The first and third quartiles of ``values``, inclusive of their
    range; one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def print_table(kind: str, total: str, trees, timed, digits: int = 1):
    """From timed_rounds' ``timed``, one row per name of the rounds'
    {name: seconds} and one, ``total``, for their sum: the median over the
    rounds of each tree's milliseconds and, with two trees, the median of
    the per-round ratios, their first and third quartiles and the count k/N
    of the rounds in which the second tree was faster, then a line saying
    which columns are paired; last, the reference's line."""
    rounds, refs = timed
    two = len(trees) == 2
    print(f"| {kind} | " + " | ".join(f"{t} ms" for t in trees)
          + (" | ratio | quartiles | faster |" if two else " |"))
    print("|---" * (len(trees) + 1 + 3 * two) + "|")
    for name in list(rounds[0][0]) + [total]:
        def ms(t, r):
            got = r[t]
            return 1e3 * (sum(got.values()) if name == total else got[name])
        cells = [f"{statistics.median(ms(t, r) for r in rounds):.{digits}f}"
                 for t in range(len(trees))]
        if two:
            ratios = [ms(0, r) / ms(1, r) for r in rounds]
            cells.append(f"{statistics.median(ratios):.2f}x")
            cells.append("%.2f-%.2f" % quartiles(ratios))
            cells.append(f"{sum(q > 1.0 for q in ratios)}/{len(ratios)}")
        print(f"| {name} | " + " | ".join(cells) + " |")
    if two:
        print("\nThe ms columns are each tree's median over the rounds, "
              "unpaired; ratio (the median of the per-round ratios), "
              "quartiles (their first and third quartiles: a wide spread "
              "marks a loaded machine) and faster (the rounds in which the "
              "second tree was faster) are paired round by round.")
    ref_ms = [1e3 * t for t in refs]
    print("\nReference work (perfbench/reference.py, once beside each "
          f"round): median {statistics.median(ref_ms):.2f} ms, quartiles "
          "%.2f-%.2f ms; a wide spread, or a median above other runs' on "
          "this machine, marks a loaded machine." % quartiles(ref_ms))


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
    timed = timed_rounds(progs, args.rounds, lambda prog, k: run_pass(
        *prog, pairs, args.seed, k, 20))
    print_table("suite", "all ten", args.trees, timed)


if __name__ == "__main__":
    main()
