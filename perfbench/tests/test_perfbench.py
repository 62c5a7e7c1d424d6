"""Tests of the benchmark itself; lagot is only called, never changed.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import lagot  # noqa: E402
import lagot.cli  # noqa: E402
from lagot.costs import parse_cost  # noqa: E402
from lagot.ensembles import solve_bounded  # noqa: E402

from perfbench import oracle, reference, run, tracing, workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _attributes():
    """Every attribute the tracer may replace, with its current object."""
    snap = []
    for key, mod in list(sys.modules.items()):
        if key == "lagot" or key.startswith("lagot."):
            snap += [(mod, k, v) for k, v in vars(mod).items()]
    for _name, module, cls, attr in tracing.METHODS:
        owner = getattr(sys.modules[module], cls)
        snap.append((owner, attr, owner.__dict__[attr]))
    snap.append((oracle, "transport_lp", oracle.transport_lp))
    return snap


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else vars(owner)[attr]


def test_wrappers_reach_every_import_site_and_restore_the_originals():
    before = _attributes()
    original = lagot.mk_solver.solve_mk
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        wrapped = lagot.mk_solver.solve_mk
        assert wrapped is not original
        for site in (lagot, lagot.harness, lagot.ensembles, lagot.cli):
            assert site.solve_mk is wrapped
        assert lagot.harness.t_p is lagot.mk_solver.t_p
        assert lagot.cli.solve_bounded is lagot.ensembles.solve_bounded
        assert lagot.cli.solve_bounded is not solve_bounded
    finally:
        tracer.restore()
    for owner, attr, value in before:
        assert _current(owner, attr) is value, (owner, attr)


def test_traced_call_records_nested_spans_and_counts():
    rng = np.random.default_rng(7)
    p0, w0, p1, w1 = workloads.random_pair(rng, 4, 5)
    m0 = workloads._measure(p0, w0)
    m1 = workloads._measure(p1, w1)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        lagot.cli.solve_bounded(m0, m1, parse_cost("power:0.5"), 10.0)
    finally:
        tracer.restore()
    times = tracer.layer_times()
    assert times["ensembles.solve_bounded"][0] == 1
    assert times["mk_solver.solve_mk"][0] == 1
    assert tracer.counts["mk_solver.forbidden_checks"] == 20
    assert tracer.counts["mk_solver.arcs"] == 20
    names = [tracer.names[i] for i in tracer.name_id]
    solve = names.index("mk_solver.solve_mk")
    assert names[tracer.parent[solve]] == "ensembles.solve_bounded"
    total = tracer.end[0] - tracer.start[0]
    assert 0 < sum(s for _c, s in times.values()) <= total + 1e-9


def _signature(workload, k):
    inputs = workload.make_pass(k)
    if isinstance(workload, workloads.SuiteSweep):
        return [(s, c, cfg.to_json()) for s, c, cfg in inputs]
    if isinstance(workload, workloads.MkLadder):
        return [(name, [a.tobytes() for a in arrays])
                for name, arrays, _m0, _m1 in inputs]
    index, arrays, caps = inputs
    files = [(workload.dir / f).read_text() for f in ("p0.json", "p1.json")]
    return index, [a.tobytes() for a in arrays], caps, files


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_the_same_operations(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    dirs = [tmp_path / d for d in "abc"]
    for d in dirs:
        d.mkdir()
    first, again, other = (cls(seed, d) for seed, d in zip((3, 3, 4), dirs))
    for k in (0, 1):
        assert _signature(first, k) == _signature(again, k)
        assert _signature(first, k) != _signature(other, k)


def test_ladder_checker_flags_a_perturbed_value_or_plan(tmp_path):
    ladder = workloads.MkLadder(0, tmp_path)
    result = ladder.run_pass(ladder.make_pass(0, rungs=workloads.LADDER[:1]))
    good = oracle.check_ladder([result.records])
    assert (good.attempted, good.failed, good.correct) == (1, 0, True)
    rec = result.records[0]
    moved = dataclasses.replace(rec, value=rec.value + 1e-7)
    bad = oracle.check_ladder([[moved]])
    assert bad.failed == 1 and not bad.correct
    plan = rec.plan.copy()
    plan[0, :] *= 1.0 + 1e-6
    bad = oracle.check_ladder([[dataclasses.replace(rec, plan=plan)]])
    assert bad.failed == 1 and "row marginals" in bad.unknown[0]


def test_cli_checker_flags_a_perturbed_eval_value(tmp_path):
    cli_wl = workloads.CappedCli(1, tmp_path)
    result = cli_wl.run_pass(cli_wl.make_pass(0))
    good = oracle.check_cli([result.records])
    inst = result.records[0]
    cap = inst.caps[-1]  # r = 1.5 diameter: every arc allowed
    assert cap.factor == 1.5 and cap.build.rc == 0
    assert good.attempted == 3 * len(inst.caps) + 1 - sum(
        1 for c in inst.caps if c.build.rc == 2)
    moved = dataclasses.replace(cap, eval=dataclasses.replace(
        cap.eval, value=cap.eval.value + 1e-6))
    bad = oracle.check_cli([[dataclasses.replace(
        inst, caps=inst.caps[:-1] + [moved])]])
    assert bad.failed == good.failed + 1
    assert good.correct and not bad.correct


def test_sweep_checker_flags_a_failed_trial_and_a_changed_gate():
    records = [workloads.SweepRecord(s, c, 0, "refused", [], True)
               for s, c in sorted(oracle.EXPECTED_REFUSED)]
    records.append(workloads.SweepRecord("thm2_1", "linear", 0, "ok",
                                         [True] * 20, True))
    good = oracle.check_sweep([records])
    assert (good.attempted, good.failed, good.correct) == (20, 0, True)
    flipped = records[:-1] + [dataclasses.replace(
        records[-1], passed=[True] * 19 + [False])]
    bad = oracle.check_sweep([flipped])
    assert bad.failed == 1 and not bad.correct
    assert not oracle.check_sweep([records[1:]]).correct


def test_result_line_counts_known_defects_apart():
    v = oracle.Verdict()
    v.op(True, None, "fine")
    v.op(False, "cor2_7 trials", "known")
    v.op(False, "cor2_7 trials", "known")
    result = run.result_line(v, {"pass_s": 1.5}, {"pass_s": "s"})
    assert (result["attempted"], result["failed"], result["correct"]) == (
        3, 0, True)
    assert (v.failed, v.known_failed, v.fail_ratio) == (2, 2, 2 / 3)
    v.op(False, None, "new")
    result = run.result_line(v, {}, {})
    assert (result["failed"], result["correct"]) == (1, False)
    assert v.fail_ratio == 3 / 4


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert e2e == list(run.END_TO_END)
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layer == run.per_layer_units(tracing, workloads)
    names = [n for n, _u in e2e] + [n for n, _u, _b in layer]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_end_to_end_scales_pass_and_operation_times():
    result = workloads.PassResult(1.0, [0.5, 0.25], [], scale=2.0)
    scaled = run.end_to_end([result], 0.3, 2048)
    raw = run.end_to_end([result], 0.3, 2048, normalise=False)
    assert (scaled["pass_s"], raw["pass_s"]) == (2.0, 1.0)
    assert scaled["op_p90_ms"] == 2.0 * raw["op_p90_ms"]
    assert scaled["setup_s"] == raw["setup_s"] == 0.3
    assert scaled["peak_rss_mb"] == 2.0
    ref = reference.REF_SECONDS
    assert reference.scale(ref, ref) == 1.0
    assert reference.scale(2 * ref, 2 * ref) == 0.5


def test_a_short_run_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mk-ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["attempted"] >= 1
    assert list(result["metrics"]) == [n for n, _u in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mk-ladder",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
