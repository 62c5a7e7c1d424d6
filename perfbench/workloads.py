"""The three workloads: seeded inputs, the timed pass, and the warm-up.

Every workload has the same shape.  ``make_pass(k)`` builds (and, for the
CLI workload, writes) the inputs of pass ``k`` from ``(seed, k)`` alone,
outside the timed region.  ``run_pass(inputs)`` times the calls into lagot
and returns a :class:`PassResult`: the summed call time of the pass, the
latency of each operation, and the raw outputs that ``oracle.check_*``
compares with independent references after the run.  ``warm_up()`` makes
the first calls whose cost belongs to set-up, not to the measurement.

All calls go through module attributes (``harness.verify``,
``mk_solver.solve_mk``, ``cli.main``) so that the wrappers of the traced
run see them.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from lagot import cli, harness, mk_solver
from lagot.costs import parse_cost
from lagot.errors import AssumptionRefused
from lagot.measures import validate_measure

# The ten suites of lagot.harness.THEOREMS, fixed here so that a change to
# the program cannot change the workload.
SUITES = ("thm2_1", "thm2_2", "prop2_3", "cor2_4", "thm2_6", "cor2_7",
          "cor2_8", "eq1_6", "eq1_9_0416", "eq1_11_0508")
SWEEP_COSTS = ("power:0.5", "remark_iii", "affine_exp:0.25", "linear",
               "quadratic")
SWEEP_TRIALS = 20
# suites whose trial count does not follow the config
FIXED_TRIALS = {"prop2_3": 1, "eq1_6": 1, "eq1_9_0416": 3}

LADDER_COST = "power:0.5"
# (rung name, atoms per measure, equal weights); one solve per rung per pass
LADDER = (("n10", 10, False), ("n20", 20, False), ("n40", 40, False),
          ("n20_equal", 20, True))
# rungs too slow, or too variable per instance, to be steady in a run; the
# traced run solves one instance of each and reports it per layer
TRACE_RUNGS = (("n40_equal", 40, True), ("n80", 80, False))

CLI_COST = "power:0.5"
CAP_FACTORS = (0.6, 0.8, 1.0, 1.5)
CLI_ATOMS = (10, 14)  # atoms per measure, drawn uniformly in this range
BOX = 2.0             # points are uniform in [-BOX, BOX]^2
# The warm-up makes first calls, whose cost belongs to set-up; it uses the
# inputs of this seed whatever the run's seed, so that set-up time does not
# depend on the run's seed.
WARM_UP_SEED = 0


@dataclass
class PassResult:
    seconds: float          # summed time of every timed call in the pass
    op_seconds: list        # latency of each operation of the pass
    records: list           # raw outputs for the oracle
    detail: dict = field(default_factory=dict)
    scale: float = 1.0      # raw seconds to seconds at reference speed


def expected_trials(suite: str) -> int:
    return FIXED_TRIALS.get(suite, SWEEP_TRIALS)


def random_pair(rng, n0: int, n1: int, equal: bool = False):
    """Points uniform in the box; Dirichlet weights, or 1/n each."""
    out = []
    for n in (n0, n1):
        points = rng.uniform(-BOX, BOX, size=(n, 2))
        weights = np.full(n, 1.0 / n) if equal else rng.dirichlet(np.ones(n))
        out.extend((points, weights))
    return tuple(out)


def distances(p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    """|x_i - y_j| for every pair of support points."""
    return np.linalg.norm(p0[:, None, :] - p1[None, :, :], axis=2)


def _measure(points, weights):
    return validate_measure(zip(points, weights), points.shape[1])


# ---------------------------------------------------------------------------
# suite-sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepRecord:
    suite: str
    cost: str
    verify_seed: int
    status: str             # ok | refused | raised | unserializable
    passed: list            # per-trial ``passed`` flags, when a report exists
    consistent: bool        # summary agrees with the trials
    detail: str = ""


def _sweep_record(suite, cost, cfg, report, error, dumps_error):
    if report is None:
        status = "refused" if isinstance(error, AssumptionRefused) else "raised"
        return SweepRecord(suite, cost, cfg.seed, status, [], True,
                           f"{type(error).__name__}: {error}")
    passed = [bool(t["passed"]) for t in report.trials]
    summary = report.summary
    consistent = (summary["n_trials"] == len(passed)
                  and summary["pass_count"] == sum(passed)
                  and bool(summary["passed"]) == all(passed))
    if dumps_error is not None:
        return SweepRecord(suite, cost, cfg.seed, "unserializable", passed,
                           consistent,
                           f"{type(dumps_error).__name__}: {dumps_error}")
    return SweepRecord(suite, cost, cfg.seed, "ok", passed, consistent)


class SuiteSweep:
    """``harness.verify`` then ``Report.dumps()`` on every (suite, cost)
    pair at the default config.  Pair i of pass k uses verify seed
    seed*1000000 + k*100 + i: one seed per pair, because the calls that the
    float tie aborts early (cor2_7, cor2_8) abort for every cost at once
    when the costs share a seed, which makes pass times swing."""

    name = "suite-sweep"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def make_pass(self, k: int, trials: int = SWEEP_TRIALS):
        pairs = [(suite, cost) for suite in SUITES for cost in SWEEP_COSTS]
        return [(suite, cost,
                 harness.VerifyConfig(
                     theorem=suite, seed=self.seed * 1_000_000 + k * 100 + i,
                     trials=trials, cost_spec=parse_cost(cost).to_spec()))
                for i, (suite, cost) in enumerate(pairs)]

    def run_pass(self, configs) -> PassResult:
        total, ops, records = 0.0, [], []
        for suite, cost, cfg in configs:
            report = error = dumps_error = None
            t0 = perf_counter()
            try:
                report = harness.verify(cfg)
                try:
                    report.dumps()
                except Exception as exc:  # a report the CLI cannot print
                    dumps_error = exc
            except Exception as exc:  # refusals and defects alike
                error = exc
            dt = perf_counter() - t0
            total += dt
            if not isinstance(error, AssumptionRefused):
                ops.append(dt)
            records.append(_sweep_record(suite, cost, cfg, report, error,
                                         dumps_error))
        return PassResult(total, ops, records)

    def warm_up(self) -> None:
        self.run_pass(SuiteSweep(WARM_UP_SEED, None).make_pass(0, trials=1))


# ---------------------------------------------------------------------------
# mk-ladder
# ---------------------------------------------------------------------------

@dataclass
class SolveRecord:
    rung: str
    p0: np.ndarray
    w0: np.ndarray
    p1: np.ndarray
    w1: np.ndarray
    value: float = float("nan")
    plan: np.ndarray = None
    error: str = ""


def ladder_instance(seed: int, k: int, rung: tuple):
    name, n, equal = rung
    rng = np.random.default_rng([seed, k, n, int(equal)])
    return name, random_pair(rng, n, n, equal)


class MkLadder:
    """``mk_solver.solve_mk`` on seeded power:0.5 instances, one per rung
    per pass.  The operation is the whole pass: a solve's latency is set by
    its rung, so single solves of mixed sizes make no useful percentile."""

    name = "mk-ladder"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.cost = parse_cost(LADDER_COST)

    def make_pass(self, k: int, rungs=LADDER):
        out = []
        for rung in rungs:
            name, arrays = ladder_instance(self.seed, k, rung)
            m0, m1 = _measure(*arrays[:2]), _measure(*arrays[2:])
            out.append((name, arrays, m0, m1))
        return out

    def run_pass(self, instances) -> PassResult:
        total, records, per_rung = 0.0, [], {}
        for name, arrays, m0, m1 in instances:
            sol = error = None
            t0 = perf_counter()
            try:
                sol = mk_solver.solve_mk(m0, m1, self.cost)
            except Exception as exc:
                error = exc
            dt = perf_counter() - t0
            total += dt
            per_rung[name] = dt
            rec = SolveRecord(name, *arrays)
            if sol is None:
                rec.error = f"{type(error).__name__}: {error}"
            else:
                rec.value = sol.value
                rec.plan = np.array(sol.plan.plan)
            records.append(rec)
        return PassResult(total, [total], records, per_rung)

    def warm_up(self) -> None:
        warm = MkLadder(WARM_UP_SEED, None)
        self.run_pass(warm.make_pass(0, rungs=LADDER[:1]))


# ---------------------------------------------------------------------------
# capped-cli
# ---------------------------------------------------------------------------

@dataclass
class CliCall:
    rc: object = None       # exit code, or None when an exception escaped
    value: float = float("nan")
    plan: np.ndarray = None
    message: str = ""       # stderr, or the exception that escaped main
    ran: bool = False


@dataclass
class CapRecord:
    index: int
    factor: float
    r: float
    build: CliCall
    eval: CliCall
    solve: CliCall


@dataclass
class InstanceRecord:
    index: int
    arrays: tuple           # p0, w0, p1, w1
    caps: list              # CapRecord per cap factor
    raw_eval: CliCall       # eval handed build-optimal's output unchanged


def _cli(argv) -> CliCall:
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # escaped main: a traceback and exit 1
        return CliCall(rc=None, message=f"{type(exc).__name__}: {exc}",
                       ran=True)
    return CliCall(rc=rc, message=err.getvalue().strip(), ran=True)


def _read_output(call: CliCall, path: Path, with_plan: bool = False):
    if call.rc != 0:
        return
    out = json.loads(path.read_text())
    call.value = float(out["value"])
    if with_plan:
        call.plan = np.asarray(out["plan"], dtype=float)


class CappedCli:
    """``lagot.cli.main`` in-process on JSON files: per cap r,
    build-optimal --theorem 2.6 --bound r, eval --objective plain on the
    ``ensemble`` of its output, solve-mk --max-arc-length r.  One more call
    per instance hands build-optimal's output unchanged to eval.  The
    operation is the three-call pipeline at one cap; a pass is one
    instance."""

    name = "capped-cli"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = Path(workdir)

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def make_pass(self, k: int):
        rng = np.random.default_rng([self.seed, k])
        n0, n1 = (int(n) for n in rng.integers(CLI_ATOMS[0], CLI_ATOMS[1] + 1,
                                                size=2))
        arrays = random_pair(rng, n0, n1)
        for name, (points, weights) in (("p0.json", arrays[:2]),
                                        ("p1.json", arrays[2:])):
            doc = {"dim": 2, "atoms": [{"x": [float(v) for v in x],
                                        "w": float(w)}
                                       for x, w in zip(points, weights)]}
            Path(self.path(name)).write_text(json.dumps(doc))
        diam = float(distances(arrays[0], arrays[2]).max())
        return k, arrays, [(f, f * diam) for f in CAP_FACTORS]

    def _pipeline(self, r: float, build_out: str):
        bound = repr(r)
        common = ["--cost", CLI_COST]
        build = _cli(["build-optimal", "--theorem", "2.6",
                      "--p0", self.path("p0.json"), "--p1", self.path("p1.json"),
                      "--bound", bound, "--out", build_out, *common])
        ev = CliCall()
        if build.rc == 0:
            built = json.loads(Path(build_out).read_text())
            build.value = float(built["value"])
            Path(self.path("ens.json")).write_text(
                json.dumps(built["ensemble"]))
            ev = _cli(["eval", "--objective", "plain",
                       "--ensemble", self.path("ens.json"),
                       "--out", self.path("eval.json"), *common])
        solve = _cli(["solve-mk", "--p0", self.path("p0.json"),
                      "--p1", self.path("p1.json"), "--max-arc-length", bound,
                      "--out", self.path("solve.json"), *common])
        return build, ev, solve

    def run_pass(self, inputs) -> PassResult:
        k, arrays, caps = inputs
        total, ops, cap_records = 0.0, [], []
        for factor, r in caps:
            build_out = self.path(f"build-{factor}.json")
            t0 = perf_counter()
            build, ev, solve = self._pipeline(r, build_out)
            dt = perf_counter() - t0
            total += dt
            ops.append(dt)
            _read_output(ev, Path(self.path("eval.json")))
            _read_output(solve, Path(self.path("solve.json")), with_plan=True)
            cap_records.append(CapRecord(k, factor, r, build, ev, solve))
        raw = CliCall()
        build_out = self.path(f"build-{CAP_FACTORS[-1]}.json")
        if cap_records[-1].build.rc == 0:
            t0 = perf_counter()
            raw = _cli(["eval", "--objective", "plain", "--ensemble", build_out,
                        "--out", self.path("eval.json"), "--cost", CLI_COST])
            total += perf_counter() - t0
            _read_output(raw, Path(self.path("eval.json")))
        return PassResult(total, ops,
                          [InstanceRecord(k, arrays, cap_records, raw)])

    def warm_up(self) -> None:
        k, arrays, caps = CappedCli(WARM_UP_SEED, self.dir).make_pass(0)
        self.run_pass((k, arrays, caps[-1:]))


WORKLOADS = {w.name: w for w in (SuiteSweep, MkLadder, CappedCli)}
