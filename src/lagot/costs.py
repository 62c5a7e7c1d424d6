"""Radial cost functions and sampled assumption checks.

A cost maps a nonnegative speed u to a nonnegative value with cost(0) = 0.
The structural assumptions used by the transport identities (sublinearity
``cost(r*u) >= r*cost(u)``, monotonicity, growth) are analytic statements;
here they are checked on finite sample grids, so a pass is evidence and a
failure comes with a concrete witness point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import BadParam, NonMonotoneSlope, UnknownCost

# sampled-assumption flags
A1I, A1II, A1III = "A1i", "A1ii", "A1iii"
A2I, A2II, A2III = "A2i", "A2ii", "A2iii"

_EQ_TOL = 1e-12
_DIVERGENCE_THRESHOLD = 10.0


@dataclass(frozen=True)
class CostFunction:
    """Radial cost with metadata.

    ``fn`` accepts scalars or numpy arrays of nonnegative speeds.
    ``analytic_c_ell`` is the known limit of cost(u)/u at infinity, when
    available; ``r0`` marks the threshold past which the cost is strictly
    decreasing, when it has one.
    """

    name: str
    fn: Callable = field(repr=False)
    analytic_c_ell: Optional[float] = None
    r0: Optional[float] = None
    declared_flags: frozenset = frozenset()

    def eval(self, u):
        u = np.asarray(u, dtype=float)
        out = np.asarray(self.fn(u), dtype=float)
        if out.ndim == 0:
            return float(out)
        return out

    def __call__(self, u):
        return self.eval(u)

    def to_spec(self) -> dict:
        name, _, params = self.name.partition(":")
        return {"name": name, "params": [float(p) for p in params.split(",") if p]}


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    witness: Optional[tuple] = None


@dataclass(frozen=True)
class AssumptionReport:
    """Verdicts of the sampled checks, keyed by flag name."""

    checks: dict

    def ok(self, flag: str) -> bool:
        return self.checks[flag].passed


def builtin(name: str, params: Optional[list] = None) -> CostFunction:
    """Construct one of the named example costs.

    power(p), p in (0,1]; remark_iii (the discontinuous concave-then-
    decreasing example); affine_exp(a) = a*u + 1 - exp(-u); linear.
    """
    params = list(params or [])
    if name == "power":
        if len(params) != 1:
            raise BadParam("power needs exactly one parameter p")
        return power_cost(params[0], restrict=True)
    if name == "remark_iii":
        if params:
            raise BadParam("remark_iii takes no parameters")

        def fn(u):
            return np.where(u < 1.0, 2.0 * u * np.exp(-u), u * np.exp(-u))

        return CostFunction(
            name="remark_iii", fn=fn, analytic_c_ell=0.0, r0=1.0,
            declared_flags=frozenset({A1I, A1II, A1III}))
    if name == "affine_exp":
        if len(params) != 1:
            raise BadParam("affine_exp needs exactly one parameter a")
        a = float(params[0])
        if a < 0:
            raise BadParam(f"affine_exp needs a >= 0, got {a}")
        flags = {A1I, A1II, A1III, A2I, A2II}
        if a > 0:
            flags.add(A2III)

        def fn(u, a=a):
            return a * u + 1.0 - np.exp(-u)

        return CostFunction(name=f"affine_exp:{a}", fn=fn, analytic_c_ell=a,
                            declared_flags=frozenset(flags))
    if name == "linear":
        if params:
            raise BadParam("linear takes no parameters")
        return CostFunction(
            name="linear", fn=lambda u: u + 0.0, analytic_c_ell=1.0,
            declared_flags=frozenset({A1I, A1III, A2I, A2II, A2III}))
    raise UnknownCost(name)


def power_cost(p: float, restrict: bool = False) -> CostFunction:
    """u -> u**p.  With ``restrict`` only p in (0,1] is accepted (the range
    where sublinearity holds); otherwise any p > 0 is allowed."""
    p = float(p)
    if p <= 0:
        raise BadParam(f"power needs p > 0, got {p}")
    if restrict and p > 1:
        raise BadParam(f"power builtin needs p in (0,1], got {p}")
    if p < 1:
        flags = frozenset({A1I, A1II, A1III, A2I, A2II, A2III})
        c_ell: Optional[float] = 0.0
    elif p == 1:
        flags = frozenset({A1I, A1III, A2I, A2II, A2III})
        c_ell = 1.0
    else:
        flags = frozenset({A2I, A2II, A2III})
        c_ell = None
    return CostFunction(name=f"power:{p}", fn=lambda u, p=p: u ** p,
                        analytic_c_ell=c_ell, declared_flags=flags)


def quadratic_cost() -> CostFunction:
    """u -> u**2, the convex reference case.  Not sublinear."""
    return CostFunction(name="quadratic", fn=lambda u: u * u,
                        declared_flags=frozenset({A2I, A2II, A2III}))


def from_spec(spec: dict) -> CostFunction:
    """Build a cost from a config dict {"name": ..., "params": [...]}."""
    name = spec["name"]
    params = spec.get("params", [])
    if name == "quadratic":
        return quadratic_cost()
    return builtin(name, params)


def parse_cost(text: str) -> CostFunction:
    """Parse a CLI cost spec like ``power:0.5`` or ``remark_iii``."""
    name, _, tail = text.partition(":")
    params = [float(p) for p in tail.split(",") if p]
    return from_spec({"name": name, "params": params})


def check_a1(cost: CostFunction, r_grid, u_grid) -> AssumptionReport:
    """Sampled check of sublinearity on r_grid x u_grid.

    Reports: A1i — cost(r*u) >= r*cost(u) everywhere sampled; A1ii — the
    inequality is strict at every sampled interior pair (an equality hit is
    recorded as a failure with its witness); A1iii — cost(u) > 0 for u > 0.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    u_grid = np.asarray(u_grid, dtype=float)
    if np.any((r_grid <= 0) | (r_grid >= 1)):
        raise BadParam("r grid must lie in (0,1)")
    if np.any(u_grid <= 0):
        raise BadParam("u grid must be positive")

    lu = cost.eval(u_grid)
    a1i = CheckResult(True)
    a1ii = CheckResult(True)
    scale = 1.0 + float(np.max(np.abs(lu)))
    for r in r_grid:
        lru = np.atleast_1d(cost.eval(r * u_grid))
        diff = lru - r * lu
        bad = np.where(diff < -_EQ_TOL * scale)[0]
        if bad.size and a1i.passed:
            k = int(bad[0])
            a1i = CheckResult(False, (float(r), float(u_grid[k]),
                                      float(lru[k]), float(r * lu[k])))
        # strictness is judged relative to the local magnitudes so that a
        # decaying tail (tiny but genuinely strict gaps) is not mistaken
        # for an equality hit
        local = np.maximum(np.abs(lru), np.abs(r * lu))
        eq = np.where(np.abs(diff) <= _EQ_TOL * local)[0]
        if eq.size and a1ii.passed:
            k = int(eq[0])
            a1ii = CheckResult(False, (float(r), float(u_grid[k])))
    lu = np.atleast_1d(lu)
    nonpos = np.where(lu <= 0)[0]
    if nonpos.size:
        k = int(nonpos[0])
        a1iii = CheckResult(False, (float(u_grid[k]), float(lu[k])))
    else:
        a1iii = CheckResult(True)
    # at 0 the cost must vanish exactly
    zero_ok = cost.eval(0.0) == 0.0
    return AssumptionReport(checks={
        A1I: a1i if zero_ok else CheckResult(False, (0.0, cost.eval(0.0))),
        A1II: a1ii,
        A1III: a1iii,
    })


def check_a2(cost: CostFunction, u_grid) -> AssumptionReport:
    """Sampled monotonicity/growth check on a sorted positive grid.

    Divergence is a heuristic only: the three largest grid values must be
    strictly increasing and the last must exceed ``_DIVERGENCE_THRESHOLD``.
    """
    u_grid = np.asarray(u_grid, dtype=float)
    if np.any(u_grid <= 0) or np.any(np.diff(u_grid) <= 0):
        raise BadParam("u grid must be positive and strictly increasing")
    vals = np.atleast_1d(cost.eval(u_grid))
    diffs = np.diff(vals)
    dec = np.where(diffs < -_EQ_TOL)[0]
    if dec.size:
        k = int(dec[0])
        witness = (float(u_grid[k]), float(u_grid[k + 1]),
                   float(vals[k]), float(vals[k + 1]))
        nondec = CheckResult(False, witness)
        strict = CheckResult(False, witness)
    else:
        nondec = CheckResult(True)
        flat = np.where(diffs <= _EQ_TOL)[0]
        if flat.size:
            k = int(flat[0])
            strict = CheckResult(False, (float(u_grid[k]), float(u_grid[k + 1])))
        else:
            strict = CheckResult(True)
    if len(vals) >= 3:
        tail = vals[-3:]
        diverges = bool(np.all(np.diff(tail) > 0) and tail[-1] > _DIVERGENCE_THRESHOLD)
    else:
        diverges = False
    return AssumptionReport(checks={
        A2I: nondec,
        A2II: strict,
        A2III: CheckResult(diverges),
    })


def c_ell(cost: CostFunction, tail_points=None, use_analytic: bool = True,
          with_bracket: bool = False):
    """Asymptotic slope lim cost(u)/u.

    Returns the analytic value when known.  Otherwise returns the point
    estimate cost(u_max)/u_max; because cost(u)/u is non-increasing under
    sublinearity, [estimate, cost(u_min)/u_min] brackets the limit, and a
    slope that increases along the tail raises NonMonotoneSlope.
    """
    if use_analytic and cost.analytic_c_ell is not None:
        if with_bracket:
            return cost.analytic_c_ell, (cost.analytic_c_ell, cost.analytic_c_ell)
        return cost.analytic_c_ell
    if tail_points is None:
        raise BadParam("tail_points required when no analytic slope is known")
    tail = np.asarray(tail_points, dtype=float)
    if len(tail) == 0 or np.any(tail < 10) or np.any(np.diff(tail) <= 0):
        raise BadParam("tail_points must be increasing and >= 10")
    slopes = np.atleast_1d(cost.eval(tail)) / tail
    if np.any(np.diff(slopes) > _EQ_TOL * (1.0 + slopes[0])):
        k = int(np.where(np.diff(slopes) > 0)[0][0])
        raise NonMonotoneSlope(
            f"cost(u)/u increases from u={tail[k]} to u={tail[k + 1]}")
    estimate = float(slopes[-1])
    if with_bracket:
        return estimate, (estimate, float(slopes[0]))
    return estimate


def default_a1_grids():
    """50x50 log grids used by the declared-flag self-checks."""
    r = np.linspace(0.02, 0.98, 50)
    u = np.logspace(-3, 3, 50)
    return r, u
