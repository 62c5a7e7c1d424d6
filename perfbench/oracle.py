"""Independent correctness checks, run after the timed region.

The references never call lagot: transport values come from HiGHS
(``scipy.optimize.linprog``) on arcs the benchmark computes itself, and the
suite sweep is judged by each trial's own ``passed`` flag plus the set of
pairs the assumption gate refuses.

A failure either belongs to a known defect class, and is counted per
class, or it does not, and then the run is reported as not correct.  Known
defects are never skipped: their operations run and are checked like every
other, and ``known_failed`` and ``fail_ratio`` count them.  Only the
``unexplained`` failures go into the result line's ``failed``, so that it
reads 0 while lagot behaves as it does at this commit.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import OptimizeWarning, linprog
from scipy.sparse import coo_array

from . import workloads as wl

VALUE_TOL = 1e-9
MARGIN_TOL = 1e-9
# ``threads`` is passed to HiGHS verbatim; linprog warns that it does not
# know the option itself
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10, "threads": 1}

# What the assumption gate refuses at this commit, for every verify seed.
EXPECTED_REFUSED = frozenset({
    ("thm2_1", "quadratic"), ("thm2_2", "remark_iii"), ("thm2_2", "quadratic"),
    ("prop2_3", "power:0.5"), ("prop2_3", "affine_exp:0.25"),
    ("prop2_3", "linear"), ("prop2_3", "quadratic"), ("cor2_4", "quadratic"),
    ("thm2_6", "quadratic"), ("cor2_7", "quadratic"), ("cor2_8", "quadratic"),
    ("eq1_6", "affine_exp:0.25"), ("eq1_6", "linear"), ("eq1_6", "quadratic"),
    ("eq1_9_0416", "power:0.5"), ("eq1_9_0416", "remark_iii"),
    ("eq1_9_0416", "affine_exp:0.25"),
})
# Suites with known failures: the cap ladder of cor2_7 cannot reach its
# final-gap gate, the float tie at cap = diameter breaks both, and cor2_8
# reports hold numpy booleans that Report.dumps() cannot serialise.
KNOWN_SWEEP_SUITES = ("cor2_7", "cor2_8")
KNOWN_CAP_FACTOR = 1.0   # r = diameter: the float tie of the forbidden arcs
RAW_EVAL = "eval of build-optimal output"
# The simplex prices with a tolerance of 1e-11 times a scale that includes
# the big-M of the forbidden arcs, so a capped solve can stop above the
# optimum by up to about 1e-6 of its value.
PRICING = "big-M pricing tolerance"
PRICING_SLACK = 1e-6


class OracleError(RuntimeError):
    """The reference itself could not decide; the run is not trusted."""


def transport_lp(cost: np.ndarray, a: np.ndarray, b: np.ndarray,
                 allowed: np.ndarray | None = None) -> float | None:
    """Optimal value of the transportation LP over the allowed arcs, or
    None when no plan uses only allowed arcs."""
    n, m = cost.shape
    if allowed is None:
        allowed = np.ones((n, m), dtype=bool)
    ii, jj = np.nonzero(allowed)
    if len(ii) == 0:
        return None
    k = np.arange(len(ii))
    a_eq = coo_array((np.ones(2 * len(ii)),
                      (np.concatenate([ii, n + jj]), np.concatenate([k, k]))),
                     shape=(n + m, len(ii))).tocsc()
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Unrecognized options",
                                OptimizeWarning)
        res = linprog(cost[ii, jj], A_eq=a_eq, b_eq=np.concatenate([a, b]),
                      bounds=(0, None), method="highs", options=HIGHS_OPTIONS)
    if res.status == 2:
        return None
    if res.status != 0:
        raise OracleError(f"HiGHS: {res.message}")
    return float(res.fun)


def close(value: float, ref: float) -> bool:
    return abs(value - ref) <= VALUE_TOL * max(1.0, abs(ref))


def plan_problem(plan, w0, w1, allowed=None) -> str:
    """Why a plan is not a coupling of (w0, w1) on the allowed arcs, or ''."""
    if plan is None or plan.shape != (len(w0), len(w1)):
        return "plan shape"
    if plan.min() < -MARGIN_TOL:
        return "negative plan entry"
    if np.max(np.abs(plan.sum(axis=1) - w0)) > MARGIN_TOL:
        return "row marginals"
    if np.max(np.abs(plan.sum(axis=0) - w1)) > MARGIN_TOL:
        return "column marginals"
    if allowed is not None and plan[~allowed].sum() > MARGIN_TOL:
        return "mass on a forbidden arc"
    return ""


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    known: Counter = field(default_factory=Counter)  # failures per class
    unknown: list = field(default_factory=list)      # unexplained failures
    problems: list = field(default_factory=list)     # broken workload

    def op(self, ok: bool, known_class: str | None, note: str) -> None:
        self.attempted += 1
        self.fail(0 if ok else 1, known_class, note)

    def fail(self, count: int, known_class: str | None, note: str) -> None:
        if count <= 0:
            return
        self.failed += count
        if known_class is None:
            self.unknown.append(note)
        else:
            self.known[known_class] += count

    @property
    def known_failed(self) -> int:
        return sum(self.known.values())

    @property
    def unexplained(self) -> int:
        """Failed operations that no known defect explains."""
        return self.failed - self.known_failed

    @property
    def fail_ratio(self) -> float:
        """Every failure, known defects included, over the attempts."""
        return self.failed / max(self.attempted, 1)

    @property
    def correct(self) -> bool:
        return not self.unknown and not self.problems

    def merge(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.known.update(other.known)
        self.unknown.extend(other.unknown)
        self.problems.extend(other.problems)


def check_sweep(passes: list) -> Verdict:
    """``passes`` is a list of per-pass record lists.  An operation is a
    trial; a call that raises, or whose report cannot be serialised, fails
    every trial it was configured to run."""
    v = Verdict()
    for records in passes:
        refused = {(r.suite, r.cost) for r in records if r.status == "refused"}
        if refused != EXPECTED_REFUSED:
            v.problems.append(
                f"refused pairs changed: +{sorted(refused - EXPECTED_REFUSED)}"
                f" -{sorted(EXPECTED_REFUSED - refused)}")
        for r in records:
            if r.status == "refused":
                continue
            n = wl.expected_trials(r.suite)
            v.attempted += n
            known = r.suite if r.suite in KNOWN_SWEEP_SUITES else None
            where = f"{r.suite}/{r.cost} seed {r.verify_seed}"
            if r.status != "ok":
                v.fail(n, known and f"{r.suite} {r.status}",
                       f"{where}: {r.status} {r.detail}")
                continue
            if len(r.passed) != n or not r.consistent:
                v.problems.append(f"{where}: {len(r.passed)} trials, "
                                  f"summary consistent={r.consistent}")
            v.fail(r.passed.count(False), known and f"{r.suite} trials",
                   f"{where}: failing trials")
    return v


def check_ladder(passes: list) -> Verdict:
    """An operation is one solve, compared with HiGHS."""
    v = Verdict()
    for records in passes:
        for r in records:
            note = f"{r.rung}: "
            if r.error:
                v.op(False, None, note + r.error)
                continue
            cost = wl.distances(r.p0, r.p1) ** 0.5
            ref = transport_lp(cost, r.w0, r.w1)
            why = plan_problem(r.plan, r.w0, r.w1)
            if not why and not close(float((r.plan * cost).sum()), r.value):
                why = "value is not the plan's cost"
            if not why and (ref is None or not close(r.value, ref)):
                why = f"value {r.value!r} vs HiGHS {ref!r}"
            v.op(not why, None, note + why)
    return v


def _check_cap(v: Verdict, cap, arrays) -> None:
    p0, w0, p1, w1 = arrays
    dist = wl.distances(p0, p1)
    allowed = dist <= cap.r
    known = "cap = diameter" if cap.factor == KNOWN_CAP_FACTOR else None

    def value_class(value: float, ref: float) -> str | None:
        """The known defect that explains a capped value above the
        reference, if any."""
        if known is None and 0.0 < value - ref <= PRICING_SLACK * max(
                1.0, abs(ref)):
            return PRICING
        return known

    where = f"instance {cap.index} cap {cap.factor}: "
    t1 = transport_lp(dist, w0, w1, allowed)
    if t1 is None:  # both calls must refuse with exit 2
        v.op(cap.build.rc == 2, known, where + f"build-optimal exit "
             f"{cap.build.rc} on an infeasible cap {cap.build.message}")
        v.op(cap.solve.rc == 2, known, where + f"solve-mk exit {cap.solve.rc}"
             f" on an infeasible cap {cap.solve.message}")
        return
    expect = (cap.r ** 0.5) / cap.r * t1
    v.op(cap.build.rc == 0 and close(cap.build.value, expect),
         value_class(cap.build.value, expect),
         where + f"build-optimal exit {cap.build.rc} value "
         f"{cap.build.value!r} vs {expect!r} {cap.build.message}")
    v.op(cap.eval.rc == 0 and close(cap.eval.value, cap.build.value), known,
         where + f"eval exit {cap.eval.rc} value {cap.eval.value!r} vs "
         f"build-optimal {cap.build.value!r} {cap.eval.message}")
    ref = transport_lp(dist ** 0.5, w0, w1, allowed)
    why = f"exit {cap.solve.rc} {cap.solve.message}" if cap.solve.rc != 0 else (
        plan_problem(cap.solve.plan, w0, w1, allowed)
        or ("" if close(cap.solve.value, ref)
            else f"value {cap.solve.value!r} vs HiGHS {ref!r}"))
    v.op(not why, value_class(cap.solve.value, ref),
         where + "solve-mk " + why)


def check_cli(passes: list) -> Verdict:
    """An operation is one CLI call.  The call that hands build-optimal's
    output unchanged to eval passes when it evaluates it to build-optimal's
    value, or refuses it with exit 2; an exception escaping main fails."""
    v = Verdict()
    for records in passes:
        for inst in records:
            for cap in inst.caps:
                _check_cap(v, cap, inst.arrays)
            raw, built = inst.raw_eval, inst.caps[-1].build
            ok = raw.ran and (raw.rc == 2 or (raw.rc == 0
                                              and close(raw.value, built.value)))
            v.op(ok, RAW_EVAL, f"instance {inst.index} raw eval: exit "
                 f"{raw.rc} {raw.message}")
    return v


CHECKS = {"suite-sweep": check_sweep, "mk-ladder": check_ladder,
          "capped-cli": check_cli}
