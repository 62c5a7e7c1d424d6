"""Per-rung solve times of mk-ladder's instances, to compare two trees.

    python3 tools/ladder_times.py TREE [TREE] [--rounds 20] [--seed 0]
                                  [--sizes N[,N...]]

Each TREE is a checkout holding ``src/lagot``; both are imported into this
one process, side by side, with ``tools/suite_times.py``'s loader.  Round
k solves pass k's instance of every mk-ladder rung (``solve_mk`` under
power:0.5; the rungs, seeds and instance generator are this checkout's
perfbench/workloads.py's) in both trees, the trees' order alternating from
round to round.  Before the first round each tree solves the warm-up
instance, as the benchmark does.  Prints the median over the rounds of
each tree's milliseconds per rung and for the whole pass and, with two
trees, the median of the per-round ratios first / second (above 1 means
the second tree is faster) and the count k/N of the rounds in which the
second tree was faster, as ``tools/suite_times.py`` prints them.  Unlike
perfbench it keeps no outputs, only a digest of each, so its times do not
move with its memory.

A second table gives each rung's median pivot count per solve in each
tree, read from ``MKSolution.pivots`` ("-" for a tree whose solutions do
not carry it), and, with two trees, a last line says whether the trees
returned bit-identical values and plans in every round, so that a claim
of the same pivots is checked as it is timed.

``--sizes 30,80`` adds, after the mk-ladder rows, the rows ``n30`` and
``n30_equal``, then ``n80`` and ``n80_equal``: seeded power:0.5 instances of
that many atoms on each side, drawn as the rungs' are, with Dirichlet and
with equal weights, so that other sizes are timed in the same alternating
pairs.  The ``pass`` row then sums every row.
"""

import argparse
import hashlib
import statistics
from time import perf_counter

# suite_times pins BLAS to one thread before numpy is first imported
from suite_times import load, parse_trees, print_table, timed_rounds, workloads

W = workloads()  # the rungs, seeds and instances that perfbench times


def solve_pass(mk_solver, measures, cost, seed: int, k: int,
               rungs=W.LADDER, sols=None) -> dict:
    """Seconds per rung of pass k's solves; measures are built untimed.
    A dict given as ``sols`` gets each rung's solution."""
    times = {}
    for rung in rungs:
        name, (p0, w0, p1, w1) = W.ladder_instance(seed, k, rung)
        m0 = measures.validate_measure(zip(p0, w0), 2)
        m1 = measures.validate_measure(zip(p1, w1), 2)
        t0 = perf_counter()
        sol = mk_solver.solve_mk(m0, m1, cost)
        times[name] = perf_counter() - t0
        if sols is not None:
            sols[name] = sol
    return times


def print_pivots(trees, outs) -> None:
    """The pivot table and, with two trees, the agreement line, from
    ``outs[t][k]``: tree t's {rung: (pivots or None, digest of the value
    and plan bits)} in round k."""
    print("\n| rung | " + " | ".join(f"{t} pivots" for t in trees) + " |")
    print("|---" * (len(trees) + 1) + "|")
    for name in outs[0][0]:
        cells = []
        for rounds in outs:
            counts = [r[name][0] for r in rounds]
            cells.append("-" if None in counts
                         else f"{statistics.median(counts):g}")
        print(f"| {name} | " + " | ".join(cells) + " |")
    if len(trees) == 2:
        bits = [[{name: out[1] for name, out in r.items()} for r in rounds]
                for rounds in outs]
        differ, n = sum(a != b for a, b in zip(*bits)), len(bits[0])
        print("\nValues and plans: " + (
            f"differ in {differ} of {n} rounds." if differ
            else f"bit-identical in all {n} rounds."))


def sized_rungs(text: str) -> tuple:
    """``--sizes``: per size N, a Dirichlet and an equal-weight rung."""
    sizes = text.split(",")
    if not all(n.isdigit() and int(n) > 0 for n in sizes):
        raise argparse.ArgumentTypeError(
            f"sizes must be positive integers, got {text!r}")
    return tuple((f"n{n}{'_equal' * equal}", int(n), equal)
                 for n in sizes for equal in (False, True))


def main(argv=None) -> None:
    args = parse_trees(__doc__, argv, rounds=20, sizes=dict(
        type=sized_rungs, default=(), metavar="N[,N...]"))
    rungs = W.LADDER + tuple(r for r in args.sizes if r not in W.LADDER)
    progs = []
    for tree in args.trees:
        mk_solver, measures, costs = load(tree.resolve(), "mk_solver",
                                          "measures", "costs")
        progs.append((mk_solver, measures, costs.parse_cost(W.LADDER_COST)))
    for prog in progs:
        solve_pass(*prog, W.WARM_UP_SEED, 0, rungs=W.LADDER[:1])
    outs = [[] for _ in progs]

    def run(t, k):
        sols = {}
        times = solve_pass(*progs[t], args.seed, k, rungs, sols)
        outs[t].append({name: (getattr(sol, "pivots", None), hashlib.sha256(
            sol.value.hex().encode() + sol.plan.plan.tobytes()).digest())
            for name, sol in sols.items()})
        return times

    print_table("rung", "pass", args.trees, timed_rounds(
        list(range(len(progs))), args.rounds, run), digits=2)
    print_pivots(args.trees, outs)


if __name__ == "__main__":
    main()
