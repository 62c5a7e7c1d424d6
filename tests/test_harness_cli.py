import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lagot import cli, harness
from lagot.cli import main
from lagot.costs import parse_cost
from lagot.errors import AssumptionRefused, ConfigInvalid, UnknownKind
from lagot.ensembles import oracle_min_path, solve_bounded
from lagot.harness import (_SUITES, THEOREMS, Report, VerifyConfig,
                           _rand_measure, emit_plot_data, verify)
from lagot.mk_solver import t_p

POWER = {"name": "power", "params": [0.5]}


def test_verify_deterministic():
    cfg = VerifyConfig(theorem="thm2_1", seed=42, trials=4, cost_spec=POWER)
    assert verify(cfg).dumps() == verify(cfg).dumps()


def test_verify_thm2_1_passes():
    r = verify(VerifyConfig(theorem="thm2_1", seed=1, trials=5,
                            cost_spec=POWER))
    assert r.passed
    assert r.summary["pass_count"] == 5
    # equality suites record signed margins on both sides of zero or zero
    assert abs(r.summary["min_margin"]) < 1e-9


def test_verify_refuses_convex_cost():
    with pytest.raises(AssumptionRefused):
        verify(VerifyConfig(theorem="thm2_1", trials=1,
                            cost_spec={"name": "quadratic", "params": []}))


def test_prop2_3_gap():
    r = verify(VerifyConfig(theorem="prop2_3", trials=1,
                            cost_spec={"name": "remark_iii", "params": []}))
    assert r.passed
    assert r.trials[0]["margins"]["gap"] >= 0.19


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        VerifyConfig(theorem="thm9_9")
    with pytest.raises(ConfigInvalid):
        VerifyConfig(theorem="thm2_1", trials=0)
    for field in ("n_atoms", "dim"):
        with pytest.raises(ConfigInvalid):
            VerifyConfig(theorem="thm2_1", **{field: 0})


def test_emit_plot_data():
    r = verify(VerifyConfig(theorem="eq1_6", trials=1, cost_spec=POWER))
    csv = emit_plot_data(r, "eq1_6")
    lines = csv.strip().splitlines()
    assert lines[0] == "n,value"
    assert len(lines) == 33
    first = [float(v) for v in lines[1].split(",")]
    assert first == [1.0, 1.0]
    with pytest.raises(UnknownKind):
        emit_plot_data(r, "nope")
    with pytest.raises(UnknownKind):
        emit_plot_data(r, "cor2_7")
    empty = Report(config={}, trials=[], summary={}, curves={})
    with pytest.raises(ConfigInvalid):
        emit_plot_data(empty, "eq1_6")


@pytest.fixture
def measure_files(tmp_path):
    p0 = tmp_path / "p0.json"
    p1 = tmp_path / "p1.json"
    p0.write_text(json.dumps(
        {"dim": 1, "atoms": [{"x": [0.0], "w": 0.5}, {"x": [3.0], "w": 0.5}]}))
    p1.write_text(json.dumps(
        {"dim": 1, "atoms": [{"x": [1.0], "w": 0.5}, {"x": [2.0], "w": 0.5}]}))
    return str(p0), str(p1)


def test_cli_solve_mk(measure_files, tmp_path, capsys):
    p0, p1 = measure_files
    out = tmp_path / "sol.json"
    code = main(["solve-mk", "--p0", p0, "--p1", p1, "--cost", "power:0.5",
                 "--out", str(out)])
    assert code == 0
    sol = json.loads(out.read_text())
    assert sol["value"] == pytest.approx(1.0)
    assert sol["method"] == "lp"


def test_cli_solve_mk_arc_limit_infeasible(measure_files):
    p0, p1 = measure_files
    code = main(["solve-mk", "--p0", p0, "--p1", p1, "--cost", "power:0.5",
                 "--max-arc-length", "0.5"])
    assert code == 2


def test_cli_build_eval_roundtrip(measure_files, tmp_path):
    p0, p1 = measure_files
    ens_file = tmp_path / "ens.json"
    code = main(["build-optimal", "--theorem", "2.6", "--p0", p0, "--p1", p1,
                 "--cost", "power:0.5", "--bound", "4.0",
                 "--out", str(ens_file)])
    assert code == 0
    built = json.loads(ens_file.read_text())
    only_ens = tmp_path / "only_ens.json"
    only_ens.write_text(json.dumps(built["ensemble"]))
    val_file = tmp_path / "val.json"
    code = main(["eval", "--objective", "plain", "--ensemble", str(only_ens),
                 "--cost", "power:0.5", "--out", str(val_file)])
    assert code == 0
    assert json.loads(val_file.read_text())["value"] == \
        pytest.approx(built["value"], abs=1e-10)


def test_cli_oracle(tmp_path):
    out = tmp_path / "o.json"
    code = main(["oracle", "--x", "0", "--y", "1", "--cost", "power:0.5",
                 "--objective", "plain", "--cap", "2", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["value"] == \
        pytest.approx(np.sqrt(2.0) / 2.0)
    # a cap equal to a tiny displacement leaves only the constant speed
    assert main(["oracle", "--x", "0", "--y", "1e-12", "--cost", "power:0.5",
                 "--objective", "plain", "--cap", "1e-12",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["value"] == 1e-6


def test_cli_dual(measure_files, tmp_path):
    p0, _ = measure_files
    f_file = tmp_path / "f.json"
    f_file.write_text(json.dumps(
        {"points": [[0.0], [1.0], [2.0]], "values": [0.0, 1.0, 2.0]}))
    out = tmp_path / "dual.json"
    code = main(["dual", "--f", str(f_file), "--p0", p0,
                 "--cost", "power:0.5", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["margin"] == 0.0
    assert len(payload["fl_values"]) == 2


def test_cli_verify_exit_codes(tmp_path):
    rep = tmp_path / "rep.json"
    assert main(["verify", "--theorem", "thm2_1", "--trials", "3",
                 "--out", str(rep)]) == 0
    assert json.loads(rep.read_text())["summary"]["passed"] is True
    assert main(["verify", "--theorem", "thm2_1", "--cost", "quadratic"]) == 2
    assert main(["verify"]) == 2  # neither --config nor --theorem


def test_cli_verify_config_file_and_plot(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theorem": "cor2_8", "seed": 3, "trials": 2,
                               "cost": POWER}))
    rep = tmp_path / "rep.json"
    assert main(["verify", "--config", str(cfg), "--out", str(rep)]) == 0
    csv_file = tmp_path / "curve.csv"
    assert main(["plot", "--report", str(rep), "--kind", "cor2_8",
                 "--out", str(csv_file)]) == 0
    assert csv_file.read_text().splitlines()[0] == "r,value"
    assert main(["plot", "--report", str(rep), "--kind", "bogus"]) == 2


# what the assumption gate refuses among the five sweep costs, at any seed
SWEEP_COSTS = ("power:0.5", "remark_iii", "affine_exp:0.25", "linear",
               "quadratic")
REFUSED = {
    ("thm2_1", "quadratic"), ("thm2_2", "remark_iii"), ("thm2_2", "quadratic"),
    ("prop2_3", "power:0.5"), ("prop2_3", "affine_exp:0.25"),
    ("prop2_3", "linear"), ("prop2_3", "quadratic"), ("cor2_4", "quadratic"),
    ("thm2_6", "quadratic"), ("cor2_7", "quadratic"), ("cor2_8", "quadratic"),
    ("eq1_6", "affine_exp:0.25"), ("eq1_6", "linear"), ("eq1_6", "quadratic"),
    ("eq1_9_0416", "power:0.5"), ("eq1_9_0416", "remark_iii"),
    ("eq1_9_0416", "affine_exp:0.25"),
}


@pytest.mark.parametrize("cost", SWEEP_COSTS)
@pytest.mark.parametrize("theorem", THEOREMS)
def test_default_run_of_every_pair_serialises(theorem, cost):
    cfg = VerifyConfig(theorem=theorem, cost_spec=parse_cost(cost).to_spec())
    if (theorem, cost) in REFUSED:
        with pytest.raises(AssumptionRefused):
            verify(cfg)
        return
    report = verify(cfg)
    doc = json.loads(report.dumps())
    assert doc["summary"] == report.summary
    assert all(type(t["passed"]) is bool for t in report.trials)
    assert doc["summary"]["pass_count"] == sum(t["passed"]
                                               for t in report.trials)


ADMITTED = [(t, c) for t in THEOREMS for c in SWEEP_COSTS
            if (t, c) not in REFUSED]
# check kind -> whether (value, bound) holds
HOLDS = {"eq": lambda v, b: abs(v) <= b, "le": lambda v, b: v <= b,
         "ge": lambda v, b: v >= b, "gt": lambda v, b: v > b}


@pytest.mark.parametrize("theorem,cost", ADMITTED)
def test_report_margins_and_passes_are_the_suites_checks(theorem, cost):
    cfg = VerifyConfig(theorem=theorem, cost_spec=parse_cost(cost).to_spec())
    rngs = (np.random.default_rng(s)
            for s in np.random.SeedSequence(cfg.seed).spawn(cfg.trials))
    yielded = list(_SUITES[theorem][0](cfg, parse_cost(cost), rngs))
    report = verify(cfg)
    assert len(report.trials) == len(yielded)
    for trial, (_, values, checks, _) in zip(report.trials, yielded):
        assert trial["values"] == values
        assert trial["margins"] == {name: v for name, v, _, _ in checks}
        assert trial["passed"] == all(HOLDS[kind](v, b)
                                      for _, v, kind, b in checks)


def test_eq1_9_reports_the_linear_path_check(monkeypatch):
    cost_li = harness.cost_li
    monkeypatch.setattr(harness, "cost_li",
                        lambda p, cost, i: cost_li(p, cost, i) + 1e-6)
    report = verify(VerifyConfig(theorem="eq1_9_0416",
                                 cost_spec=parse_cost("linear").to_spec()))
    assert report.summary["pass_count"] == 0
    for trial in report.trials:
        assert trial["margins"]["linear"] == pytest.approx(1e-6, rel=1e-6)


def test_eq1_6_reports_the_decay_check(monkeypatch):
    monkeypatch.setattr(harness, "cost_plain", lambda p, cost: 1.0)
    report = verify(VerifyConfig(theorem="eq1_6", cost_spec=POWER))
    assert not report.passed
    assert report.trials[0]["margins"]["decay"] == 0.0


def test_check_kinds_and_nan(monkeypatch):
    nan = float("nan")
    cases = [([(k, nan, k, 1.0)], False) for k in ("eq", "le", "ge", "gt")]
    cases += [([("eq", -0.5, "eq", 1.0), ("le", 1.0, "le", 1.0),
                ("ge", 1.0, "ge", 1.0), ("gt", 1.5, "gt", 1.0)], True),
              ([("eq", -1.5, "eq", 1.0)], False),
              ([("gt", 1.0, "gt", 1.0)], False)]

    def suite(cfg, cost, rngs):
        for checks, _ in cases:
            yield [], {}, checks, ()

    monkeypatch.setitem(harness._SUITES, "eq1_11_0508", (suite, None))
    report = verify(VerifyConfig(theorem="eq1_11_0508"))
    assert [t["passed"] for t in report.trials] == [ok for _, ok in cases]


WITNESS = ("(0.02, 0.0071968567300115215, 2.0717898716924856e-08, "
           "1.0358949358462427e-06)")
# one refusal per suite with hypotheses, message as printed by the CLI
REFUSALS = {
    ("thm2_1", "quadratic"): f"thm2_1 needs sublinearity; witness {WITNESS}",
    ("thm2_2", "remark_iii"): (
        "thm2_2 needs a non-decreasing cost; witness (0.8877197088985865, "
        "1.0826367338740546, 0.7307588550659756, 0.3666904497881385)"),
    ("prop2_3", "power:0.5"):
        "prop2_3 needs a cost strictly decreasing past some r0",
    ("cor2_4", "quadratic"): f"cor2_4 needs sublinearity; witness {WITNESS}",
    ("thm2_6", "quadratic"): f"thm2_6 needs sublinearity; witness {WITNESS}",
    ("cor2_7", "quadratic"): f"cor2_7 needs sublinearity; witness {WITNESS}",
    ("cor2_8", "quadratic"): f"cor2_8 needs sublinearity; witness {WITNESS}",
    ("eq1_6", "linear"):
        "the degenerate unmodified problem needs cost(u)/u -> 0",
    ("eq1_9_0416", "power:0.5"):
        "the convex-case identity needs a convex cost",
}


@pytest.mark.parametrize("theorem,cost", sorted(REFUSALS))
def test_suite_refuses_before_drawing_a_trial(theorem, cost):
    def untouched():
        raise AssertionError("a trial was drawn")
        yield

    cfg = VerifyConfig(theorem=theorem, cost_spec=parse_cost(cost).to_spec())
    with pytest.raises(AssumptionRefused) as exc:
        next(_SUITES[theorem][0](cfg, parse_cost(cost), untouched()))
    assert str(exc.value) == REFUSALS[theorem, cost]
    with pytest.raises(AssumptionRefused) as exc:
        verify(cfg)
    assert str(exc.value) == REFUSALS[theorem, cost]


@pytest.mark.parametrize("seed", range(5))
def test_cli_cor2_7_passes_at_default_cost(seed, tmp_path):
    # the top cap 1e8 brings power:0.5's slope R^-1/2 under the 1e-3 gate
    rep = tmp_path / "rep.json"
    assert main(["verify", "--theorem", "cor2_7", "--seed", str(seed),
                 "--out", str(rep)]) == 0
    assert json.loads(rep.read_text())["summary"]["pass_count"] == 20


@pytest.mark.parametrize("spec", ["power:0.5", "affine_exp:0.25"])
def test_cor2_7_values_are_the_capped_solve(spec):
    # cor2_7 skips solve_bounded: a cap >= diameter admits every arc, so
    # the capped LP is the t1 LP and the value is cost(R)/R * t1 bit for bit
    cost = parse_cost(spec)
    for seed in range(2):
        for ss in np.random.SeedSequence(seed).spawn(20):
            rng = np.random.default_rng(ss)
            m0 = _rand_measure(rng, 4, 2)
            m1 = _rand_measure(rng, 4, 2)
            t1 = t_p(m0, m1, 1.0)
            diam = m0.diameter_to(m1)
            for R in (max(diam, c) for c in (1.0, 10.0, 100.0, 1e4, 1e8)):
                assert (solve_bounded(m0, m1, cost, R)[0]
                        == float(cost.eval(R) / R * t1))


@pytest.mark.parametrize("argv", [
    ["solve-mk", "--p0", "a", "--p1", "b", "--cost", "linear", "--seed", "1"],
    ["eval", "--objective", "TV", "--cost", "linear", "--tol", "0.1"],
    ["build-optimal", "--theorem", "2.1", "--p0", "a", "--p1", "b",
     "--cost", "linear", "--tol", "0.1"],
    ["plot", "--report", "r", "--kind", "cor2_8", "--seed", "1"],
])
def test_cli_rejects_seed_and_tol_where_unread(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_cor2_7_top_cap_speed_rounding():
    # the rung r = 1e4 rebuilds a path whose speed rounds to 1e4 + 4e-12
    assert main(["verify", "--theorem", "cor2_7", "--seed", "3",
                 "--cost", "linear"]) == 0


@pytest.mark.parametrize("cost", ["power:0.5", "remark_iii", "affine_exp:0.25",
                                  "linear"])
def test_cli_cor2_8_passes_at_defaults(cost, tmp_path):
    rep = tmp_path / "rep.json"
    assert main(["verify", "--theorem", "cor2_8", "--cost", cost,
                 "--out", str(rep)]) == 0
    assert json.loads(rep.read_text())["summary"]["pass_count"] == 20


NAN = float("nan")
GOOD = {"dim": 1, "atoms": [{"x": [0.0], "w": 0.5}, {"x": [3.0], "w": 0.5}]}
SOLVE = ["solve-mk", "--p0", "p0.json", "--p1", "good.json",
         "--cost", "power:0.5"]
VERIFY_CFG = ["verify", "--config", "cfg.json"]
BUILD_2_6 = ["build-optimal", "--theorem", "2.6", "--p0", "good.json",
             "--p1", "good.json", "--cost", "power:0.5", "--bound"]


def _ensemble(dt=1.0, start=0.0, horizon=1.0, weight=1.0, bound=None):
    """One-member ensemble file moving from ``start`` at speed 0.5."""
    path = {"start": [start], "horizon": horizon,
            "pieces": [{"dt": dt, "v": [0.5]}]}
    member = {"weight": weight, "path": path}
    if bound is not None:
        member["bound"] = bound
    return {"e.json": {"members": [member]}}


def _eval(objective):
    return ["eval", "--objective", objective, "--ensemble", "e.json",
            "--cost", "power:0.5"]


DUAL = ["dual", "--f", "f.json", "--p0", "good.json", "--cost", "power:0.5"]

# (files written, argv, a fragment the one-line message must contain)
BAD_INPUTS = {
    "measure without atoms": ({"p0.json": {"dim": 1}}, SOLVE, "p0.json"),
    "measure that is a list": ({"p0.json": [1, 2]}, SOLVE, "p0.json"),
    "nan weight": ({"p0.json": {"dim": 1, "atoms": [
        {"x": [0.0], "w": 0.5}, {"x": [1.0], "w": NAN}]}}, SOLVE, "finite"),
    "nan point": ({"p0.json": {"dim": 1, "atoms": [
        {"x": [NAN], "w": 1.0}]}}, SOLVE, "finite"),
    "missing file": ({}, SOLVE, "p0.json"),
    "config without theorem": ({"cfg.json": {"seed": 1}}, VERIFY_CFG,
                               "theorem"),
    "config with a string trial count": (
        {"cfg.json": {"theorem": "thm2_1", "trials": "3"}}, VERIFY_CFG,
        "cfg.json"),
    "zero atoms": ({}, ["verify", "--theorem", "thm2_1", "--n-atoms", "0"],
                   "n_atoms"),
    "zero dimensions": ({}, ["verify", "--theorem", "thm2_1", "--dim", "0"],
                        "dim"),
    "eval of build-optimal output": (
        {"built.json": {"value": 1.0, "ensemble": {"members": []}}},
        ["eval", "--objective", "plain", "--ensemble", "built.json",
         "--cost", "power:0.5"], "built.json"),
    "triple without bounds": (
        {"t.json": {"source": GOOD, "target": GOOD,
                    "plan": [[0.5, 0.0], [0.0, 0.5]]}},
        ["eval", "--objective", "TV", "--triple", "t.json",
         "--cost", "power:0.5"], "t.json"),
    "triple with a bound below the displacement": (
        {"t.json": {"source": GOOD, "target": GOOD,
                    "plan": [[0.0, 0.5], [0.5, 0.0]],
                    "bounds": [[0, 1, 2.0], [1, 0, 3.0]]}},
        ["eval", "--objective", "TV", "--triple", "t.json",
         "--cost", "power:0.5"], "displacement exceeds bound 2.0"),
    "triple whose plan misses its marginals": (
        {"t.json": {"source": GOOD, "target": GOOD,
                    "plan": [[0.0, 7.0], [0.0, 0.0]],
                    "bounds": [[0, 1, 4.0]]}},
        ["eval", "--objective", "TV", "--triple", "t.json",
         "--cost", "power:0.5"], "row sums do not match"),
    "triple with a nan plan cell": (
        {"t.json": {"source": GOOD, "target": GOOD,
                    "plan": [[5.0, 0.0], [0.0, NAN]],
                    "bounds": [[0, 0, 1.0]]}},
        ["eval", "--objective", "TV", "--triple", "t.json",
         "--cost", "power:0.5"], "row sums do not match"),
    "oracle with a nan speed": (
        {}, ["oracle", "--x", "0", "--y", "1", "--cost", "power:0.5",
             "--speeds", "0,nan,1"], "magnitudes, >= 0"),
    "oracle with a cap below a tiny displacement": (
        {}, ["oracle", "--x", "0", "--y", "1e-12", "--cost", "power:0.5",
             "--cap", "9e-13"], "no speed assignment meets the endpoint"),
    "oracle with a nan cap": (
        {}, ["oracle", "--x", "0", "--y", "1", "--cost", "power:0.5",
             "--cap", "nan"], "speed cap must not be NaN"),
    "oracle with an infinite endpoint": (
        {}, ["oracle", "--x", "0", "--y", "inf", "--cost", "power:0.5"],
        "is not finite"),
    "grid function without values": (
        {"f.json": {"points": [[0.0]]}},
        ["dual", "--f", "f.json", "--p0", "good.json", "--cost", "power:0.5"],
        "f.json"),
    "config that is a list": ({"cfg.json": [1, 2]}, VERIFY_CFG, "cfg.json"),
    "eval without its input file": (
        {}, ["eval", "--objective", "TV", "--ensemble", "good.json",
             "--cost", "power:0.5"], "--objective TV"),
    "ensemble with a nan duration": (_ensemble(dt=NAN), _eval("L1"),
                                     "durations sum to nan"),
    "ensemble with a nan start": (_ensemble(start=NAN), _eval("L1"),
                                  "finite"),
    "ensemble with a nan horizon": (_ensemble(horizon=NAN), _eval("plain"),
                                    "horizon nan"),
    "ensemble with an infinite horizon": (
        _ensemble(horizon=float("inf")), _eval("plain"), "horizon inf"),
    "ensemble with a nan weight": (_ensemble(weight=NAN), _eval("plain"),
                                   "sum to nan"),
    "ensemble with a nan bound": (_ensemble(bound=NAN), _eval("plain"),
                                  "bound nan is not finite"),
    "triple with a nan bound": (
        {"t.json": {"source": GOOD, "target": GOOD,
                    "plan": [[0.5, 0.0], [0.0, 0.5]],
                    "bounds": [[0, 0, 1.0], [1, 1, NAN]]}},
        ["eval", "--objective", "TV", "--triple", "t.json",
         "--cost", "power:0.5"], "bound nan is not finite"),
    "grid function with a nan point": (
        {"f.json": {"points": [[NAN]], "values": [0.0]}}, DUAL, "finite"),
    "grid function with a nan value": (
        {"f.json": {"points": [[0.0]], "values": [NAN]}}, DUAL, "finite"),
    "nan speed cap": ({}, BUILD_2_6 + ["nan"], "speed cap must be finite"),
    "infinite speed cap": ({}, BUILD_2_6 + ["inf"],
                           "speed cap must be finite"),
    "nan arc length cap": ({"p0.json": GOOD},
                           SOLVE + ["--max-arc-length", "nan"],
                           "must not be NaN"),
    "nan tolerance": ({}, ["verify", "--theorem", "thm2_1", "--tol", "nan"],
                      "tolerance"),
    "infinite tolerance": ({}, ["verify", "--theorem", "thm2_1",
                                "--tol", "inf"], "tolerance"),
    "report without trials": (
        {"rep.json": {"config": {}, "summary": {}}},
        ["plot", "--report", "rep.json", "--kind", "cor2_8"], "rep.json"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_cli_bad_input_exits_2_with_one_line(case, tmp_path, capsys):
    files, argv, fragment = BAD_INPUTS[case]
    for name, doc in {"good.json": GOOD, **files}.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert main(argv) == 2  # an exception escaping main fails the test
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and fragment in lines[0], lines


def test_cli_out_of_memory_exits_2_with_one_line(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError("Unable to allocate 14.9 GiB for an array")

    monkeypatch.setattr(cli, "_cmd_verify", exhausted)
    assert main(["verify", "--theorem", "thm2_1"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == ["out of memory: Unable to allocate 14.9 GiB for an array"]


def test_cli_oracle_at_a_tiny_displacement():
    """The oracle decides feasibility in units of |y - x|: at 1e-10 it
    returns the scaled unit value, not 0.0, and warns of nothing."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run(
        [sys.executable, "-m", "lagot.cli", "oracle", "--x", "0",
         "--y", "1e-10", "--cost", "power:0.5", "--objective", "L2"],
        capture_output=True, text=True, env=env, check=False)
    assert run.returncode == 0 and run.stderr == ""
    unit = oracle_min_path([0.0], [1.0], parse_cost("power:0.5"), "L2", 4,
                           (0.0, 0.5, 1.0, 2.0, 4.0))
    assert json.loads(run.stdout)["value"] == \
        pytest.approx(1e-5 * unit, rel=1e-9, abs=0.0)
