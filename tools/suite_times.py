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
of the per-round ratios first / second: above 1 means the second tree is
faster.  Runs on one thread, like the benchmark.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def _purge() -> None:
    for name in [k for k in sys.modules
                 if k == "lagot" or k.startswith("lagot.")]:
        del sys.modules[name]


def load(tree: Path):
    """lagot.harness, lagot.costs and the refusal class of ``tree``; the
    modules stay alive through these references once they leave
    ``sys.modules``."""
    _purge()
    sys.path.insert(0, str(tree / "src"))
    try:
        from lagot import costs, errors, harness
        if not Path(harness.__file__).resolve().is_relative_to(tree):
            raise SystemExit(f"{tree} holds no src/lagot")
        return harness, costs, errors.AssumptionRefused
    finally:
        sys.path.remove(str(tree / "src"))
        _purge()


def sweep_pairs():
    """suite-sweep's (suite, cost) pairs, in its order."""
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        from perfbench.workloads import SUITES, SWEEP_COSTS
    finally:
        del sys.path[:2]
        _purge()
    return [(s, c) for s in SUITES for c in SWEEP_COSTS]


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


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="+", type=Path)
    ap.add_argument("--rounds", type=int, default=12)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if len(args.trees) > 2:
        ap.error("give one or two trees")
    pairs = sweep_pairs()
    progs = [load(t.resolve()) for t in args.trees]
    for prog in progs:
        run_pass(*prog, pairs, 0, 0, trials=1)
    rounds = []  # per round, per tree: {suite: seconds}
    for k in range(args.rounds):
        order = list(range(len(progs)))[::1 if k % 2 == 0 else -1]
        got = {t: run_pass(*progs[t], pairs, args.seed, k, 20)
               for t in order}
        rounds.append([got[t] for t in range(len(progs))])
    two = len(progs) == 2
    print("| suite | " + " | ".join(f"{t} ms" for t in args.trees)
          + (" | ratio |" if two else " |"))
    print("|---" * (len(progs) + 1 + two) + "|")
    for suite in list(rounds[0][0]) + ["all ten"]:
        def ms(t, r):
            got = r[t]
            return 1e3 * (sum(got.values()) if suite == "all ten"
                          else got[suite])
        cells = [f"{statistics.median(ms(t, r) for r in rounds):.1f}"
                 for t in range(len(progs))]
        if two:
            ratio = statistics.median(ms(0, r) / ms(1, r) for r in rounds)
            cells.append(f"{ratio:.2f}x")
        print(f"| {suite} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
