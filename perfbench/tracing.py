"""Spans and counters for the traced run.

Wrappers are installed from here, at module and class attributes of lagot,
and never inside the program.  A module-level function is replaced at every
lagot module that holds it (``harness.solve_mk``, ``ensembles.solve_mk``,
``cli.solve_mk`` and so on), so calls through any import site are seen.
Each wrapped call appends one span (name, start, end, parent) to flat
arrays kept in memory; self times are computed from them afterwards, and
the arrays are written out when the run ends.  ``Tracer.restore`` puts
every original attribute back.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

# (span name, module, attribute): module-level functions
FUNCTIONS = (
    ("mk_solver.solve_mk", "lagot.mk_solver", "solve_mk"),
    ("mk_solver.t_p", "lagot.mk_solver", "t_p"),
    ("paths.stop_and_go", "lagot.paths", "stop_and_go"),
    ("paths.cost_li", "lagot.paths", "cost_li"),
    ("paths.cost_plain", "lagot.paths", "cost_plain"),
    ("ensembles.solve_bounded", "lagot.ensembles", "solve_bounded"),
    ("ensembles.build_opt_tilde", "lagot.ensembles", "build_opt_tilde"),
    ("ensembles.build_opt_bounded", "lagot.ensembles", "build_opt_bounded"),
    ("ensembles.eval_tilde", "lagot.ensembles", "eval_tilde"),
    ("ensembles.eval_bounded", "lagot.ensembles", "eval_bounded"),
    ("ensembles.eval_tv", "lagot.ensembles", "eval_tv"),
    ("ensembles.oracle_min_path", "lagot.ensembles", "oracle_min_path"),
    ("measures.validate_measure", "lagot.measures", "validate_measure"),
    ("measures.make_coupling", "lagot.measures", "make_coupling"),
    ("costs.check_a1", "lagot.costs", "check_a1"),
    ("costs.check_a2", "lagot.costs", "check_a2"),
    ("costs.c_ell", "lagot.costs", "c_ell"),
    ("duality.verify_control_identity", "lagot.duality",
     "verify_control_identity"),
    ("duality.inf_conv", "lagot.duality", "inf_conv"),
    ("harness.verify", "lagot.harness", "verify"),
    ("cli.main", "lagot.cli", "main"),
    # the CLI's file I/O: read and parse an input, write an output payload
    ("io.from_json", "lagot.cli", "_load_json"),
    ("io.to_json", "lagot.cli", "_emit"),
)
# (span name, module, class, attribute): methods
METHODS = (
    ("paths.SteppedPath", "lagot.paths", "SteppedPath", "__init__"),
    ("measures.diameter_to", "lagot.measures", "DiscreteMeasure",
     "diameter_to"),
    ("costs.eval", "lagot.costs", "CostFunction", "eval"),
)
# span of the benchmark's own reference solver, a drift control
ORACLE_SPAN = ("oracle.highs", "perfbench.oracle", "transport_lp")

COUNTERS = (
    "mk_solver.arcs", "mk_solver.forbidden_checks", "mk_solver.forbidden_arcs",
    "mk_solver.infeasible", "paths.pieces", "ensembles.members",
    "harness.trials", "harness.trials_failed", "harness.refused",
    "cli.uncaught", "io.bytes_read", "io.bytes_written",
)
SPAN_NAMES = tuple(s[0] for s in FUNCTIONS + METHODS) + (ORACLE_SPAN[0],)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter({name: 0 for name in COUNTERS})
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None, on_error=None):
        """``fn`` recording one span per call.  ``before(args, kwargs)``
        may return replacement arguments; ``after(args, result)`` and
        ``on_error(exc)`` update counters outside the span."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end = (self.name_id, self.parent, self.start,
                                       self.end)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = perf_counter()
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            end[idx] = perf_counter()
            stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def patch_function(self, name, module, attr, **hooks):
        """Replace a function at every lagot module (and ``module``
        itself) that holds it."""
        mod = sys.modules[module]
        original = getattr(mod, attr)
        wrapped = self.wrap(name, original, **hooks)
        sites = [m for key, m in list(sys.modules.items())
                 if m is not None and (key == "lagot" or key.startswith("lagot."))]
        for site in {id(m): m for m in sites + [mod]}.values():
            for key, value in list(vars(site).items()):
                if value is original:
                    self._saved.append((site, key, original))
                    setattr(site, key, wrapped)

    def patch_method(self, name, module, cls, attr, **hooks):
        owner = getattr(sys.modules[module], cls)
        original = owner.__dict__[attr]
        if isinstance(original, staticmethod):
            wrapped = staticmethod(self.wrap(name, original.__func__, **hooks))
        else:
            wrapped = self.wrap(name, original, **hooks)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def _self_arrays(self):
        ids = np.array(self.name_id, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = (np.array(self.end, dtype=np.float64)
               - np.array(self.start, dtype=np.float64))
        own = dur.copy()
        child = parent >= 0
        np.subtract.at(own, parent[child], dur[child])
        return ids, own

    def layer_times(self) -> dict:
        """{span name: (calls, self seconds)}; a span's self time is its
        duration minus the durations of its direct children."""
        ids, own = self._self_arrays()
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        self_s = np.bincount(ids, weights=own, minlength=k)
        out = {name: (0, 0.0) for name in SPAN_NAMES}
        for i, name in enumerate(self.names):
            out[name] = (int(calls[i]), float(self_s[i]))
        return out

    def dump(self, path: Path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64))


def install(tracer: Tracer) -> None:
    """Wrap every traced lagot function and the benchmark's oracle."""
    import lagot.cli  # noqa: F401  (loads every lagot module)
    from lagot.errors import AssumptionRefused, Infeasible

    from . import oracle  # noqa: F401

    c = tracer.counts

    def solve_mk_before(args, kwargs):
        c["mk_solver.arcs"] += args[0].n_atoms * args[1].n_atoms
        if len(args) > 3:
            callback, args = args[3], args[:3]
        else:
            callback = kwargs.get("forbidden_arcs")
        if callback is not None:
            def counted(i, j):
                hit = callback(i, j)
                c["mk_solver.forbidden_checks"] += 1
                c["mk_solver.forbidden_arcs"] += bool(hit)
                return hit
            kwargs = {**kwargs, "forbidden_arcs": counted}
        return args, kwargs

    def solve_mk_error(exc):
        c["mk_solver.infeasible"] += isinstance(exc, Infeasible)

    def count_members(args, result):
        c["ensembles.members"] += len(result.members)

    def count_trials(args, result):
        c["harness.trials"] += len(result.trials)
        c["harness.trials_failed"] += sum(not t["passed"]
                                          for t in result.trials)

    def count_refused(exc):
        c["harness.refused"] += isinstance(exc, AssumptionRefused)

    def count_uncaught(exc):
        c["cli.uncaught"] += 1

    def count_read(args, result):
        c["io.bytes_read"] += Path(args[0]).stat().st_size

    def count_written(args, result):
        c["io.bytes_written"] += len(args[0].encode())

    def count_pieces(args, result):
        c["paths.pieces"] += len(args[0].durations)

    hooks = {
        "mk_solver.solve_mk": {"before": solve_mk_before,
                               "on_error": solve_mk_error},
        "ensembles.build_opt_tilde": {"after": count_members},
        "ensembles.build_opt_bounded": {"after": count_members},
        "harness.verify": {"after": count_trials, "on_error": count_refused},
        "cli.main": {"on_error": count_uncaught},
        "io.from_json": {"after": count_read},
        "io.to_json": {"after": count_written},
        "paths.SteppedPath": {"after": count_pieces},
    }
    for name, module, attr in FUNCTIONS + (ORACLE_SPAN,):
        tracer.patch_function(name, module, attr, **hooks.get(name, {}))
    for name, module, cls, attr in METHODS:
        tracer.patch_method(name, module, cls, attr, **hooks.get(name, {}))
