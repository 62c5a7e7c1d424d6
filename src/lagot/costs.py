"""Radial cost functions and sampled assumption checks.

A cost maps a nonnegative speed u to a nonnegative value with cost(0) = 0.
The structural assumptions used by the transport identities (sublinearity
``cost(r*u) >= r*cost(u)``, positivity, monotonicity) are analytic
statements; here they are checked on finite sample grids, so a pass is
evidence and a failure comes with a concrete witness point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Optional

import numpy as np

from .errors import AssumptionRefused, BadParam, UnknownCost

# sampled hypotheses, each with what a refusal says its caller needs
A1I, A1III, A2I = "A1i", "A1iii", "A2i"
_NEEDS = {A1I: "needs sublinearity; witness {}",
          A2I: "needs a non-decreasing cost; witness {}",
          A1III: "needs positivity of the cost"}

_EQ_TOL = 1e-12
_BY_NAME: dict = {}  # from_spec's costs by name, which fixes a builtin
# the sample grids: (A1) on r (linear) by u (logarithmic), (A2i) on its own u
_A1_R, _A1_U = np.linspace(0.02, 0.98, 50), np.logspace(-3, 3, 50)
_A2_U = np.logspace(-1, 1.5, 30)


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

    @functools.cached_property
    def witnesses(self):
        """Read-only {hypothesis: witness or None} of check_a1 and check_a2,
        sampled on first read."""
        return MappingProxyType({**check_a1(self), **check_a2(self)})

    def eval(self, u):
        """cost(u) as a float for a number or 0-d array, else as a float64
        ndarray of u's shape (``fn`` acts elementwise)."""
        u = np.asarray(u, dtype=float)
        out = np.asarray(self.fn(u), dtype=float)
        if out.ndim == 0:
            return float(out)
        return out

    def to_spec(self) -> dict:
        name, _, params = self.name.partition(":")
        return {"name": name, "params": [float(p) for p in params.split(",") if p]}


def builtin(name: str, params: Optional[list] = None) -> CostFunction:
    """Construct one of the named example costs.

    power(p), p in (0,1]; remark_iii (the discontinuous concave-then-
    decreasing example); affine_exp(a) = a*u + 1 - exp(-u); linear;
    quadratic, the convex (not sublinear) reference case.
    """
    params = list(params or [])
    if name == "power":
        if len(params) != 1:
            raise BadParam("power needs exactly one parameter p")
        p = float(params[0])
        cost = power_cost(p)  # refuses a p that is not finite and positive
        if p > 1:
            raise BadParam(f"power builtin needs p in (0,1], got {p}")
        return cost
    if name == "remark_iii":
        if params:
            raise BadParam("remark_iii takes no parameters")

        def fn(u):
            return np.where(u < 1.0, 2.0 * u * np.exp(-u), u * np.exp(-u))

        return CostFunction(name="remark_iii", fn=fn, analytic_c_ell=0.0,
                            r0=1.0)
    if name == "affine_exp":
        if len(params) != 1:
            raise BadParam("affine_exp needs exactly one parameter a")
        a = float(params[0])
        if not 0 <= a < np.inf:
            raise BadParam(f"affine_exp needs a finite a >= 0, got {a}")

        def fn(u, a=a):
            return a * u + 1.0 - np.exp(-u)

        return CostFunction(name=f"affine_exp:{a}", fn=fn, analytic_c_ell=a)
    if name == "linear":
        if params:
            raise BadParam("linear takes no parameters")
        return CostFunction(name="linear", fn=lambda u: u + 0.0,
                            analytic_c_ell=1.0)
    if name == "quadratic":
        if params:
            raise BadParam("quadratic takes no parameters")
        return CostFunction(name="quadratic", fn=lambda u: u * u)
    raise UnknownCost(f"unknown cost {name!r}; the builtins are power, "
                      "remark_iii, affine_exp, linear and quadratic")


def power_cost(p: float) -> CostFunction:
    """u -> u**p for any finite p > 0; the builtin keeps p in (0,1], the
    range where sublinearity holds."""
    p = float(p)
    if not 0 < p < np.inf:
        raise BadParam(f"power needs a finite p > 0, got {p}")
    slope = None if p > 1 else 1.0 if p == 1 else 0.0
    return CostFunction(name=f"power:{p}", fn=lambda u, p=p: u ** p,
                        analytic_c_ell=slope)


def from_spec(spec: dict) -> CostFunction:
    """Build a cost from a config dict {"name": ..., "params": [...]}; the
    first cost of each builtin name is returned again, witnesses and all."""
    cost = builtin(spec["name"], spec.get("params", []))
    return _BY_NAME.setdefault(cost.name, cost)


def parse_cost(text: str) -> CostFunction:
    """Parse a CLI cost spec like ``power:0.5`` or ``remark_iii``."""
    name, _, tail = text.partition(":")
    params = [float(p) for p in tail.split(",") if p]
    return from_spec({"name": name, "params": params})


def check_a1(cost: CostFunction) -> dict:
    """Sampled check of (A1) on the fixed grid _A1_R x _A1_U.

    Returns ``{A1I: witness, A1III: witness}``, a witness being None where
    the check holds.  A1i — cost(0) = 0, witness (0, cost(0)), and
    cost(r*u) >= r*cost(u) everywhere sampled, witness (r, u, cost(r*u),
    r*cost(u)) at the first r that fails; A1iii — cost(u) > 0 for u > 0,
    witness (u, cost(u)).
    """
    lu = np.atleast_1d(cost.eval(_A1_U))
    scale = 1.0 + float(np.max(np.abs(lu)))
    lru = cost.eval(np.multiply.outer(_A1_R, _A1_U))  # a row per r
    rlu = np.multiply.outer(_A1_R, lu)
    bad = np.argwhere(lru - rlu < -_EQ_TOL * scale)
    a1i = None
    if bad.size:  # row-major order: the first failing r, then its first u
        i, k = bad[0]
        a1i = (float(_A1_R[i]), float(_A1_U[k]), float(lru[i, k]),
               float(rlu[i, k]))
    # at 0 the cost must vanish exactly
    if cost.eval(0.0) != 0.0:
        a1i = (0.0, cost.eval(0.0))
    nonpos = np.flatnonzero(lu <= 0)
    a1iii = None
    if nonpos.size:
        a1iii = (float(_A1_U[nonpos[0]]), float(lu[nonpos[0]]))
    return {A1I: a1i, A1III: a1iii}


def check_a2(cost: CostFunction) -> dict:
    """Sampled check of (A2i), a non-decreasing cost, on the fixed sorted
    grid _A2_U.

    Returns ``{A2I: witness}``: None where the check holds, else (u, u',
    cost(u), cost(u')) at the first neighbouring pair that decreases.
    """
    vals = np.atleast_1d(cost.eval(_A2_U))
    dec = np.flatnonzero(np.diff(vals) < -_EQ_TOL)
    if not dec.size:
        return {A2I: None}
    k = int(dec[0])
    return {A2I: (float(_A2_U[k]), float(_A2_U[k + 1]),
                  float(vals[k]), float(vals[k + 1]))}


def require(cost: CostFunction, who: str, *hypotheses) -> None:
    """Refuse ``cost`` on behalf of ``who`` at the first of ``hypotheses``
    that its sampled witnesses fail, in the order given."""
    for h in hypotheses:
        w = cost.witnesses[h]
        if w is not None:
            raise AssumptionRefused(f"{who} " + _NEEDS[h].format(w))


def c_ell(cost: CostFunction) -> float:
    """Asymptotic slope lim cost(u)/u, the cost's ``analytic_c_ell``."""
    if cost.analytic_c_ell is None:
        raise BadParam(f"cost {cost.name} has no known asymptotic slope")
    return cost.analytic_c_ell
