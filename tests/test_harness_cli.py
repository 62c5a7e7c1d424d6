import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lagot import cli, costs, harness, mk_solver
from lagot.cli import main
from lagot.costs import parse_cost, power_cost
from lagot.errors import AssumptionRefused, ConfigInvalid, UnknownKind
from lagot.ensembles import oracle_min_path, solve_bounded
from lagot.harness import (_SUITES, LIMITS, THEOREMS, Report, VerifyConfig,
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


def test_verify_samples_a_specs_witnesses_once(monkeypatch):
    """from_spec hands every verify of one spec the same cost, so its
    witnesses are sampled by the first call only; a refused spec is refused
    again, with the same message."""
    calls = []
    real = costs.check_a1
    monkeypatch.setattr(costs, "check_a1",
                        lambda *a: calls.append(1) or real(*a))
    monkeypatch.setattr(costs, "_BY_NAME", {})
    cfg = VerifyConfig(theorem="thm2_1", trials=1, cost_spec=POWER)
    assert verify(cfg).dumps() == verify(cfg).dumps()
    assert len(calls) == 1
    quad = VerifyConfig(theorem="thm2_1", trials=1,
                        cost_spec={"name": "quadratic", "params": []})
    messages = []
    for _ in range(2):
        with pytest.raises(AssumptionRefused) as refused:
            verify(quad)
        messages.append(str(refused.value))
    assert messages[0] == messages[1] and len(calls) == 2
    # costs are kept by name: -0.0 is not 0.0
    for a in (0.0, -0.0):
        cost = costs.from_spec({"name": "affine_exp", "params": [a]})
        assert cost.name == f"affine_exp:{a}"


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
    # integer fields refuse floats, bools and strings, and the seed a
    # negative value; the cost must be a spec that from_spec accepts
    for bad in ({"seed": True}, {"seed": -1}, {"trials": 2.0},
                {"n_atoms": "3"}, {"dim": False}, {"tolerance": True},
                {"tolerance": "1e-9"}, {"cost_spec": "power:0.5"},
                {"cost_spec": {"params": [0.5]}}, {"cost_spec": {"name": 1}},
                {"cost_spec": {"name": "sqrt"}},
                {"cost_spec": {"name": "power", "params": [None]}},
                {"cost_spec": {"name": "power", "params": 5}}):
        with pytest.raises(ConfigInvalid):
            VerifyConfig(theorem="thm2_1", **bad)


@pytest.mark.parametrize("name", sorted(LIMITS))
def test_config_limits_are_refused_before_anything_is_drawn(name):
    """Each count is admitted up to its limit and refused by name above it,
    at 2**70 too; only configs are built here, nothing is verified."""
    top = LIMITS[name]
    assert VerifyConfig(theorem="thm2_1", **{name: top}).to_json()[name] \
        == top
    for big in (top + 1, 2 ** 70):
        with pytest.raises(ConfigInvalid, match=f"^{name} must be <= {top}, "
                                                f"got {big}$"):
            VerifyConfig(theorem="thm2_1", **{name: big})


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


def test_cli_dual(measure_files, tmp_path, capsys):
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
    # a cost outside the identity's hypotheses is refused in one line
    assert main(["dual", "--f", str(f_file), "--p0", p0,
                 "--cost", "quadratic"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        "refused: the control identity needs sublinearity; witness (0.02, ")


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


def test_cli_verify_reads_the_file_then_the_flags_then_the_defaults(
        tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theorem": "cor2_8", "trials": 2}))
    rep = tmp_path / "rep.json"
    assert main(["verify", "--config", str(cfg), "--theorem", "thm2_1",
                 "--trials", "3", "--seed", "4", "--out", str(rep)]) == 0
    assert json.loads(rep.read_text())["config"] == VerifyConfig(
        theorem="cor2_8", trials=2, seed=4).to_json()


def test_each_config_field_has_one_key_that_the_report_echoes(tmp_path):
    """The harness's key map names every VerifyConfig field once, and a
    config file that sets every key, each to a value of its own, runs with
    those values and reads back as its report's config, strict_margin
    added."""
    fields = [f.name for f in dataclasses.fields(VerifyConfig)]
    assert sorted(harness._VERIFY_FIELDS.values()) == sorted(fields)
    doc = {"theorem": "thm2_1", "seed": 3, "trials": 2, "n_atoms": 5,
           "dim": 1, "cost": {"name": "affine_exp", "params": [0.25]},
           "tolerance": 1e-8}
    assert sorted(doc) == sorted(harness._VERIFY_FIELDS)
    cfg, rep = tmp_path / "cfg.json", tmp_path / "rep.json"
    cfg.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(cfg), "--out", str(rep)]) == 0
    report = json.loads(rep.read_text())
    assert report["config"] == {**doc, "strict_margin": harness.STRICT_MARGIN}
    assert report["summary"]["n_trials"] == 2


SWEEP_COSTS = ("power:0.5", "remark_iii", "affine_exp:0.25", "linear",
               "quadratic")
WITNESS = ("(0.02, 0.0071968567300115215, 2.0717898716924856e-08, "
           "1.0358949358462427e-06)")
NO_R0 = "prop2_3 needs a cost strictly decreasing past some r0"
NOT_DEGENERATE = "the degenerate unmodified problem needs cost(u)/u -> 0"
NOT_CONVEX = "the convex-case identity needs a convex cost"
# every (suite, sweep cost) pair the assumption gates refuse, at any seed,
# with the message the CLI prints; thm2_2 checks sublinearity first
REFUSALS = {
    ("thm2_1", "quadratic"): f"thm2_1 needs sublinearity; witness {WITNESS}",
    ("thm2_2", "remark_iii"): (
        "thm2_2 needs a non-decreasing cost; witness (0.8877197088985865, "
        "1.0826367338740546, 0.7307588550659756, 0.3666904497881385)"),
    ("thm2_2", "quadratic"): f"thm2_2 needs sublinearity; witness {WITNESS}",
    ("prop2_3", "power:0.5"): NO_R0,
    ("prop2_3", "affine_exp:0.25"): NO_R0,
    ("prop2_3", "linear"): NO_R0,
    ("prop2_3", "quadratic"): NO_R0,
    ("cor2_4", "quadratic"): f"cor2_4 needs sublinearity; witness {WITNESS}",
    ("thm2_6", "quadratic"): f"thm2_6 needs sublinearity; witness {WITNESS}",
    ("cor2_7", "quadratic"): f"cor2_7 needs sublinearity; witness {WITNESS}",
    ("cor2_8", "quadratic"): f"cor2_8 needs sublinearity; witness {WITNESS}",
    ("eq1_6", "affine_exp:0.25"): NOT_DEGENERATE,
    ("eq1_6", "linear"): NOT_DEGENERATE,
    ("eq1_6", "quadratic"): f"eq1_6 needs sublinearity; witness {WITNESS}",
    ("eq1_9_0416", "power:0.5"): NOT_CONVEX,
    ("eq1_9_0416", "remark_iii"): NOT_CONVEX,
    ("eq1_9_0416", "affine_exp:0.25"): NOT_CONVEX,
}


@pytest.mark.parametrize("cost", SWEEP_COSTS)
@pytest.mark.parametrize("theorem", THEOREMS)
def test_default_run_of_every_pair_serialises(theorem, cost):
    cfg = VerifyConfig(theorem=theorem, cost_spec=parse_cost(cost).to_spec())
    if (theorem, cost) in REFUSALS:
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
            if (t, c) not in REFUSALS]
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


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("theorem,cost", ADMITTED)
def test_a_trial_does_not_depend_on_its_block_mates(theorem, cost, seed):
    """Every trial is drawn from its own generator and evaluated in one
    block with the others; its record must not depend on the block's
    width, so the first 7 of 20 trials are the 7 trials of a shorter run."""
    spec = parse_cost(cost).to_spec()
    short, full = (verify(VerifyConfig(theorem=theorem, seed=seed,
                                       trials=n, cost_spec=spec))
                   for n in (7, 20))
    assert json.dumps(short.trials, sort_keys=True) == \
        json.dumps(full.trials[:7], sort_keys=True)


# suites that draw no random instance
DRAWS_NONE = ("prop2_3", "eq1_6", "eq1_9_0416")


@pytest.mark.parametrize("cost", SWEEP_COSTS)
@pytest.mark.parametrize("theorem", THEOREMS)
def test_verify_spawns_generators_only_for_a_suite_that_draws(
        theorem, cost, monkeypatch):
    """A suite that draws spawns one generator per trial, on its first
    draw; a refused pair, or a suite that draws nothing, spawns none."""
    spawned = []

    class Spy(np.random.SeedSequence):
        def spawn(self, n_children):
            spawned.append(n_children)
            return super().spawn(n_children)

    monkeypatch.setattr(np.random, "SeedSequence", Spy)
    cfg = VerifyConfig(theorem=theorem, trials=3,
                       cost_spec=parse_cost(cost).to_spec())
    if (theorem, cost) in REFUSALS:
        with pytest.raises(AssumptionRefused):
            verify(cfg)
    else:
        verify(cfg)
    draws = (theorem, cost) not in REFUSALS and theorem not in DRAWS_NONE
    assert spawned == ([3] if draws else [])


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
    # every fast path costs 1.0: the decay check sees no decay
    monkeypatch.setattr(harness, "cost_plain",
                        lambda block, cost: np.ones(len(block.horizons)))
    report = verify(VerifyConfig(theorem="eq1_6", cost_spec=POWER))
    assert not report.passed
    assert report.trials[0]["margins"]["decay"] == 0.0


def test_check_kinds_and_nan(monkeypatch, tmp_path):
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
    # the CLI writes the failing report, NaN and all, and exits 1
    out = tmp_path / "rep.json"
    assert main(["verify", "--theorem", "eq1_11_0508", "--out", str(out)]) == 1
    assert np.isnan(json.loads(out.read_text())["trials"][0]["margins"]["eq"])


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


def _cor2_7_trials(cost, seed):
    """The (checks, curve) of each trial of a default cor2_7 run at seed
    under ``cost``, which need not be a builtin."""
    cfg = VerifyConfig(theorem="cor2_7", seed=seed)
    rngs = harness._trial_generators(np.random.SeedSequence(seed), cfg.trials)
    return [(dict((name, margin) for name, margin, _, _ in checks), curve)
            for _, _, checks, curve in harness._suite_cor2_7(cfg, cost, rngs)]


@pytest.mark.parametrize("p", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
                               1.0])
def test_cor2_7_passes_under_every_power(p):
    """Under power:p, p in 0.1-1.0, a default cor2_7 run passes at seeds
    0-4: past 1e8 its R ladder goes on by powers of ten, and stops at the
    first R at which the final gap is within its bound."""
    longest = 0
    for seed in range(5):
        assert verify(VerifyConfig(theorem="cor2_7", seed=seed,
                                   cost_spec=power_cost(p).to_spec())).passed
        for checks, curve in _cor2_7_trials(power_cost(p), seed):
            caps = [R for R, _ in curve]
            assert caps[4:5] == [1e8] and checks["final_gap"] <= 1e-3
            assert caps[5:] == [10.0 ** e for e in range(9, 9 + len(caps[5:]))]
            if len(caps) > 5:  # the R before the last was above the bound
                assert curve[-2][1] > 1e-3
            longest = max(longest, len(caps))
    # power:p has c_ell = 0 below p = 1 and a gap of R^(p - 1) t1
    assert (longest > 5) == (0.5 < p < 1.0)


def test_cor2_7_fails_a_cost_that_does_not_tend_to_its_c_ell():
    """A sublinear cost u/2 + sqrt(u) declared with c_ell = 0, whose
    cost(R)/R tends to 1/2, never brings the final gap within its bound:
    every trial's ladder runs to R = 1e300 and fails final_gap."""
    cost = costs.CostFunction("half_plus_sqrt", lambda u: u / 2 + np.sqrt(u),
                              analytic_c_ell=0.0)
    for seed in range(5):
        for checks, curve in _cor2_7_trials(cost, seed):
            assert curve[-1][0] == 1e300 and len(curve) == 5 + 292
            assert checks["final_gap"] > 0.1


@pytest.mark.parametrize("spec", ["power:0.5", "remark_iii", "affine_exp:0.25",
                                  "linear"])
def test_cor2_7_ladders_of_the_sweep_costs_stop_at_1e8(spec):
    """The sweep costs that cor2_7 admits end every ladder at 1e8, so their
    reports are those of the fixed five-rung ladder."""
    for seed in range(5):
        assert all(len(curve) == 5 and curve[-1][0] == 1e8
                   for _, curve in _cor2_7_trials(parse_cost(spec), seed))


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


def _pop(path: Path):
    """The text of ``path``, which is then removed; None when absent."""
    if not path.exists():
        return None
    text = path.read_text()
    path.unlink()
    return text


def test_cli_reused_parser_matches_a_fresh_one(measure_files, tmp_path,
                                              capsys, monkeypatch):
    """Each call of one in-process sequence gives the exit code, stdout,
    stderr and out-file that the same call gives with a parser of its own,
    so the parser that main reuses carries nothing from one call to the
    next; the last call also matches a fresh interpreter."""
    p0, p1 = measure_files
    out = tmp_path / "out.json"
    pair = ["--p0", p0, "--p1", p1, "--cost", "power:0.5"]
    build = ["build-optimal", "--theorem", "2.1", *pair]
    sequence = [["solve-mk", *pair, "--max-arc-length", "1.5"],
                ["solve-mk", *pair],
                ["solve-mk", *pair, "--out", str(out)],
                ["solve-mk", *pair],
                [*build, "--seed", "7"],
                ["eval", "--objective", "foo", "--cost", "linear"],
                build]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        std = capsys.readouterr()
        return code, std.out, std.err, _pop(out)

    reused = [call(argv) for argv in sequence]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert reused == [call(argv) for argv in sequence]
    env = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    fresh = subprocess.run([sys.executable, "-m", "lagot.cli", *build],
                           capture_output=True, text=True, env=env,
                           check=False)
    assert reused[-1] == (fresh.returncode, fresh.stdout, fresh.stderr, None)


@pytest.mark.parametrize("argv, fragment", [
    (["solve-mk", "--p0", "a", "--cost", "linear"],
     "lagot solve-mk: error: the following arguments are required: --p1"),
    (["solve", "--p0", "a"],
     "lagot: error: argument command: invalid choice: 'solve'"),
    (["build-optimal", "--theorem", "2.6", "--p0", "a", "--p1", "b",
      "--cost", "linear", "--bound", "x"],
     "lagot build-optimal: error: argument --bound: invalid float value: 'x'"),
    (["eval", "--objective", "foo", "--cost", "linear"],
     "lagot eval: error: argument --objective: invalid choice: 'foo'"),
])
def test_cli_usage_error_is_one_line(argv, fragment, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith(fragment)


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


def test_cor2_8_solves_each_trials_lp_once(monkeypatch):
    """A default cor2_8 run solves one LP per trial: t1 is read off the
    ladder's first rung, which admits every arc, and has the bits of
    t_p(m0, m1, 1.0)."""
    cfg, solve, calls = VerifyConfig(theorem="cor2_8"), mk_solver._solve, []
    monkeypatch.setattr(mk_solver, "_solve",
                        lambda *args: calls.append(args) or solve(*args))
    report = verify(cfg)
    assert report.passed and len(calls) == cfg.trials == 20
    pairs = harness._rand_pairs(cfg, harness._trial_generators(
        np.random.SeedSequence(cfg.seed), cfg.trials))
    assert [t["values"]["t1"] for t in report.trials] == \
        [t_p(m0, m1, 1.0) for m0, m1 in pairs]


NAN = float("nan")
GOOD = {"dim": 1, "atoms": [{"x": [0.0], "w": 0.5}, {"x": [3.0], "w": 0.5}]}
GOOD_2D = {"dim": 2, "atoms": [{"x": [0.0, 0.0], "w": 1.0}]}
HUGE = {"dim": 1, "atoms": [{"x": [1e308], "w": 0.5},
                            {"x": [-1e308], "w": 0.5}]}
SOLVE = ["solve-mk", "--p0", "p0.json", "--p1", "good.json",
         "--cost", "power:0.5"]
VERIFY_CFG = ["verify", "--config", "cfg.json"]
BUILD_2_6 = ["build-optimal", "--theorem", "2.6", "--p0", "good.json",
             "--p1", "good.json", "--cost", "power:0.5", "--bound"]


def _ensemble(dt=1.0, start=0.0, horizon=1.0, weight=1.0, bound=None,
              v=(0.5,)):
    """One-member ensemble file moving from ``start`` at velocity ``v``."""
    path = {"start": [start] * len(v), "horizon": horizon,
            "pieces": [{"dt": dt, "v": list(v)}]}
    member = {"weight": weight, "path": path}
    if bound is not None:
        member["bound"] = bound
    return {"e.json": {"members": [member]}}


def _second_member(bound):
    """Two-member ensemble file, each member at speed 0.5 and weight 0.5:
    the first bounded by 1.0, the second by ``bound``."""
    return {"e.json": {"members": [
        _ensemble(weight=0.5, bound=b)["e.json"]["members"][0]
        for b in (1.0, bound)]}}


def _triple(bounds):
    """Files and argv of ``eval --objective TV`` on the diagonal plan
    between two GOOD measures, with these ``bounds`` rows."""
    return ({"t.json": {"source": GOOD, "target": GOOD,
                        "plan": [[0.5, 0.0], [0.0, 0.5]], "bounds": bounds}},
            ["eval", "--objective", "TV", "--triple", "t.json",
             "--cost", "power:0.5"])


BAD_BOUNDS = ("t.json: bounds must be rows [i, j, bound] with integral i in"
              " [0, 2) and j in [0, 2)")

# weights 1e-10 apart at x = 0 and 10: no plan keeps to arcs of length <= 1
DEFICIT = {"p0.json": {"dim": 1, "atoms": [{"x": [0.0], "w": 0.5 + 1e-10},
                                           {"x": [10.0], "w": 0.5 - 1e-10}]},
           "p1.json": {"dim": 1, "atoms": [{"x": [0.0], "w": 0.5},
                                           {"x": [10.0], "w": 0.5}]}}
NO_PLAN = "error: no feasible plan avoids the forbidden arcs"


def _eval(objective):
    return ["eval", "--objective", objective, "--ensemble", "e.json",
            "--cost", "power:0.5"]


DUAL = ["dual", "--f", "f.json", "--p0", "good.json", "--cost", "power:0.5"]
PLOT = ["plot", "--report", "rep.json", "--kind", "cor2_8"]


def _report(curves):
    """A one-trial cor2_8 report file holding ``curves``."""
    return {"rep.json": {"config": {}, "trials": [{"index": 0}],
                         "summary": {}, "curves": curves}}

# (files written, argv, a fragment the one-line message must contain); a
# file given as a str is written as it is, else as its JSON
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
    "2**70 trials": ({}, ["verify", "--theorem", "thm2_1", "--trials",
                          str(2 ** 70)],
                     f"refused: trials must be <= {LIMITS['trials']}, got "
                     f"{2 ** 70}"),
    "config with 2**70 trials": (
        {"cfg.json": {"theorem": "thm2_1", "trials": 2 ** 70}}, VERIFY_CFG,
        f"cfg.json: trials must be <= {LIMITS['trials']}, got {2 ** 70}"),
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
    "quadratic with a parameter": (
        {}, ["oracle", "--x", "0", "--y", "1", "--cost", "quadratic:3"],
        "quadratic takes no parameters"),
    "power with a nan parameter": (
        {}, ["oracle", "--x", "0", "--y", "1", "--cost", "power:nan"],
        "power needs a finite p > 0, got nan"),
    "affine_exp with a nan parameter": (
        {}, ["oracle", "--x", "0", "--y", "1", "--cost", "affine_exp:nan"],
        "affine_exp needs a finite a >= 0, got nan"),
    "affine_exp with an infinite parameter": (
        {}, ["oracle", "--x", "0", "--y", "1", "--cost", "affine_exp:inf"],
        "affine_exp needs a finite a >= 0, got inf"),
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
    "ensemble whose second member has a nan bound": (
        _second_member(NAN), _eval("plain"),
        "error: member 1: speed bound nan is not finite"),
    "ensemble whose second member outruns its bound": (
        _second_member(0.1), _eval("plain"),
        "error: member 1: sup speed 0.5 exceeds bound 0.1"),
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
    "config with a string cost": (
        {"cfg.json": {"theorem": "thm2_1", "cost": "power:0.5"}}, VERIFY_CFG,
        'cfg.json: cost must be {"name": ..., "params": [...]}'),
    "config with a nameless cost": (
        {"cfg.json": {"theorem": "thm2_1", "cost": {"params": [0.5]}}},
        VERIFY_CFG, "cfg.json: cost must be"),
    "config with a fractional atom count": (
        {"cfg.json": {"theorem": "thm2_1", "n_atoms": 2.5}}, VERIFY_CFG,
        "cfg.json: n_atoms must be an integer, got 2.5"),
    "config with a boolean tolerance": (
        {"cfg.json": {"theorem": "thm2_1", "tolerance": True}}, VERIFY_CFG,
        "cfg.json: tolerance must be positive and finite, got True"),
    "config with a boolean cost parameter": (
        {"cfg.json": {"theorem": "thm2_1", "trials": 2,
                      "cost": {"name": "power", "params": [True]}}},
        VERIFY_CFG, "cfg.json: params must hold numbers only, got [True]"),
    "config with a string cost parameter": (
        {"cfg.json": {"theorem": "thm2_1", "trials": 2,
                      "cost": {"name": "power", "params": ["0.5"]}}},
        VERIFY_CFG, "cfg.json: params must hold numbers only, got ['0.5']"),
    "config with null cost parameters": (
        {"cfg.json": {"theorem": "thm2_1", "trials": 2,
                      "cost": {"name": "power", "params": None}}},
        VERIFY_CFG, "cfg.json: params must hold numbers only, got None"),
    "config with a null seed": (
        {"cfg.json": {"theorem": "thm2_1", "seed": None}}, VERIFY_CFG,
        "cfg.json: seed must be an integer, got None"),
    "negative seed": ({}, ["verify", "--theorem", "thm2_1", "--seed", "-1"],
                      "refused: seed must be >= 0, got -1"),
    "config with a negative seed": (
        {"cfg.json": {"theorem": "thm2_1", "seed": -3}}, VERIFY_CFG,
        "cfg.json: seed must be >= 0, got -3"),
    "build-optimal with a negative seed": (
        {}, ["build-optimal", "--theorem", "2.1", "--p0", "good.json",
             "--p1", "good.json", "--cost", "power:0.5", "--seed", "-1"],
        "refused: seed must be >= 0, got -1"),
    "config with a boolean trial count": (
        {"cfg.json": {"theorem": "thm2_1", "trials": True}}, VERIFY_CFG,
        "cfg.json: trials must be an integer, got True"),
    "unknown cost": (
        {}, ["oracle", "--x", "0", "--y", "1", "--cost", "sqrt"],
        "unknown cost 'sqrt'; the builtins are power, remark_iii, "
        "affine_exp, linear and quadratic"),
    "cost without a name": (
        {}, ["oracle", "--x", "0", "--y", "1", "--cost", ":"],
        "unknown cost ''"),
    "oracle with endpoints of two dimensions": (
        {}, ["oracle", "--x", "0", "--y", "1,2", "--cost", "power:0.5"],
        "dim 1 vs 2"),
    "grid function of another dimension than the measure": (
        {"p0.json": GOOD_2D, "f.json": {"points": [[0.0], [1.0]],
                                        "values": [0.0, 1.0]}},
        ["dual", "--f", "f.json", "--p0", "p0.json", "--cost", "power:0.5"],
        "dim 2 vs 1"),
    "query grid of another dimension than the grid function": (
        {"f.json": {"points": [[0.0], [1.0]], "values": [0.0, 1.0]},
         "g.json": [[0.0, 1.0]]}, DUAL + ["--grid", "g.json"], "dim 2 vs 1"),
    "ensemble whose members differ in dimension": (
        {"e.json": {"members": [
            {"weight": 0.5, "path": {"start": [0.0],
                                     "pieces": [{"dt": 1.0, "v": [0.5]}]}},
            {"weight": 0.5, "path": {"start": [0.0, 0.0], "pieces": [
                {"dt": 1.0, "v": [0.5, 0.5]}]}}]}},
        _eval("L1"), "member paths of dim 1 vs 2"),
    "path whose velocity is longer than its start": (
        {"e.json": {"members": [{"weight": 1.0, "path": {
            "start": [0.0], "pieces": [{"dt": 1.0, "v": [0.5, 0.5]}]}}]}},
        _eval("L1"), "velocities of dim 2 vs a start of dim 1"),
    "bounded build between measures of two dimensions": (
        {"p0.json": GOOD_2D, "p1.json": {"dim": 3, "atoms": [
            {"x": [0.0, 0.0, 1.0], "w": 1.0}]}},
        ["build-optimal", "--theorem", "2.6", "--p0", "p0.json",
         "--p1", "p1.json", "--cost", "power:0.5", "--bound", "2"],
        "dim 2 vs 3"),
    "support at plus and minus 1e308": (
        {"p0.json": HUGE}, SOLVE, "distance between two points is not finite"),
    "oracle with an endpoint at 1e308": (
        {}, ["oracle", "--x", "0", "--y", "1e308", "--cost", "power:0.5"],
        "distance between two points is not finite"),
    "triple whose source lies at plus and minus 1e308": (
        {"t.json": {"source": HUGE, "target": GOOD,
                    "plan": [[0.5, 0.0], [0.0, 0.5]],
                    "bounds": [[0, 0, 1.0], [1, 1, 1.0]]}},
        ["eval", "--objective", "TV", "--triple", "t.json",
         "--cost", "power:0.5"], "distance between two points is not finite"),
    "report curves without columns": (
        _report({"kind": "cor2_8", "rows": [[1.0, 2.0]]}), PLOT,
        "rep.json: curves need a list of column names"),
    "report curves without rows": (
        _report({"kind": "cor2_8", "columns": ["r", "value"]}), PLOT,
        "rep.json: curves need a list of rows of 2 values"),
    "report curves that are a list": (
        _report([]), PLOT, "rep.json: curves must be an object, got []"),
    "report curve rows that are a number": (
        _report({"kind": "cor2_8", "columns": ["r", "value"], "rows": 5}),
        PLOT, "rep.json: curves need a list of rows of 2 values"),
    "report curve row longer than the columns": (
        _report({"kind": "cor2_8", "columns": ["r", "value"],
                 "rows": [[1.0, 2.0, 3.0]]}), PLOT,
        "rep.json: curves need a list of rows of 2 values"),
    "bounded build whose value overflows": (
        {"p1.json": {"dim": 1, "atoms": [{"x": [-3.0], "w": 1.0}]}},
        ["build-optimal", "--theorem", "2.6", "--p0", "good.json",
         "--p1", "p1.json", "--cost", "quadratic", "--bound", "1e308"],
        "error: quadratic cost is not finite at the speed cap r = 1e+308"),
    "plain quadratic cost that overflows": (
        _ensemble(v=(1e160,), bound=2e160),
        _eval("plain")[:-1] + ["quadratic"], "error: the result is not finite"),
    "bounded build whose cost overflows at the cap": (
        {"p0.json": {"dim": 1, "atoms": [{"x": [0.0], "w": 0.5},
                                         {"x": [3.0], "w": 0.5}]},
         "p1.json": {"dim": 1, "atoms": [{"x": [-3.0], "w": 1.0}]}},
        ["build-optimal", "--theorem", "2.6", "--p0", "p0.json",
         "--p1", "p1.json", "--cost", "quadratic", "--bound", "1e200"],
        "error: quadratic cost is not finite at the speed cap r = 1e+200"),
    "triple whose cost overflows at a bound": (
        {"t.json": {"source": GOOD, "target": GOOD,
                    "plan": [[0.5, 0.0], [0.0, 0.5]],
                    "bounds": [[0, 0, 1.0], [1, 1, 1e200]]}},
        ["eval", "--objective", "TV", "--triple", "t.json",
         "--cost", "quadratic"],
        "error: quadratic cost is not finite at the speed cap r = 1e+200"),
    "measure with a boolean weight": (
        {"p0.json": {"dim": 1, "atoms": [{"x": [0], "w": True}]}}, SOLVE,
        "p0.json: w must hold numbers only, got True"),
    "measure with a string coordinate": (
        {"p0.json": {"dim": 1, "atoms": [{"x": ["0"], "w": 1.0}]}}, SOLVE,
        "p0.json: x must hold numbers only, got ['0']"),
    "measure with a boolean dimension": (
        {"p0.json": {"dim": True, "atoms": [{"x": [0], "w": 1.0}]}}, SOLVE,
        "p0.json: dim must hold numbers only, got True"),
    "ensemble with a boolean weight": (
        _ensemble(weight=True, bound=1.0), _eval("plain"),
        "e.json: weight must hold numbers only, got True"),
    "ensemble with a boolean duration": (
        _ensemble(dt=True, bound=1.0), _eval("plain"),
        "e.json: dt must hold numbers only, got [True]"),
    "ensemble with a boolean bound": (
        _ensemble(bound=True), _eval("plain"),
        "e.json: bound must hold numbers only, got True"),
    "ensemble with a null bound": (
        {"e.json": {"members": [{"weight": 1.0, "bound": None, "path": {
            "start": [0.0], "pieces": [{"dt": 1.0, "v": [0.5]}]}}]}},
        _eval("plain"), "e.json: bound must hold numbers only, got None"),
    "ensemble with a boolean velocity": (
        _ensemble(v=(True,), bound=1.0), _eval("plain"),
        "e.json: v must hold numbers only, got [[True]]"),
    "ensemble with a boolean horizon": (
        _ensemble(horizon=True), _eval("L1"),
        "e.json: horizon must hold numbers only, got True"),
    "ensemble with a nested start": (
        {"e.json": {"members": [{"weight": 1, "path": {
            "start": [[0]], "horizon": 1, "pieces": [{"dt": 1, "v": [1]}]}}]}},
        _eval("L1"),
        "e.json: start must be a flat list of numbers, got [[0]]"),
    "triple with a boolean plan cell": (
        {"t.json": {"source": GOOD, "target": GOOD,
                    "plan": [[0.5, False], [0.0, 0.5]],
                    "bounds": [[0, 0, 1.0], [1, 1, 1.0]]}},
        ["eval", "--objective", "TV", "--triple", "t.json",
         "--cost", "power:0.5"], "t.json: plan must hold numbers only"),
    "triple with a boolean bound": (
        {"t.json": {"source": GOOD, "target": GOOD,
                    "plan": [[0.5, 0.0], [0.0, 0.5]],
                    "bounds": [[0, 0, True], [1, 1, 1.0]]}},
        ["eval", "--objective", "TV", "--triple", "t.json",
         "--cost", "power:0.5"], "t.json: bounds must hold numbers only"),
    "triple with a bounds row of two numbers": (
        *_triple([[0, 0], [1, 1]]), BAD_BOUNDS),
    "triple with a bounds row of four numbers": (
        *_triple([[0, 0, 1, 7]]), BAD_BOUNDS),
    "triple with a fractional bounds cell": (
        *_triple([[0.5, 0, 2.0], [1, 1, 1.0]]), BAD_BOUNDS),
    "triple with a bounds cell past the plan": (
        *_triple([[0, 0, 1.0], [1, 1, 1.0], [5, 0, 1.0]]), BAD_BOUNDS),
    "triple with a negative bounds cell": (
        *_triple([[0, 0, 1.0], [1, 1, 1.0], [-1, 0, 1.0]]), BAD_BOUNDS),
    "triple with a repeated bounds cell": (
        *_triple([[0, 0, 1.0], [1, 1, 1.0], [0, 0, 2.0]]),
        "t.json: bounds must not repeat a cell"),
    "triple with a nan bound on a cell without mass": (
        *_triple([[0, 0, 1.0], [1, 1, 1.0], [0, 1, NAN]]),
        "error: cell (0, 1): bound nan is not finite"),
    "triple with a cell of mass but no bound": (
        *_triple([[0, 0, 1.0], [0, 1, 1.0]]),
        "error: cell (1, 1) carries mass but no bound"),
    "triple with a nan bound and a cell of mass without one": (
        *_triple([[0, 1, NAN], [1, 1, 1.0]]),
        "error: cell (0, 1): bound nan is not finite"),
    "triple with empty bounds": (
        *_triple([]), "t.json: bounds must be a list of equal-length lists"),
    "triple with a nan bounds cell": (
        *_triple([[NAN, 0, 1.0], [1, 1, 1.0]]), BAD_BOUNDS),
    "triple with an infinite bounds cell": (
        *_triple([[0, 0, 1.0], [1, float("inf"), 1.0]]), BAD_BOUNDS),
    "capped solve of measures 1e-10 apart": (
        DEFICIT, ["solve-mk", "--p0", "p0.json", "--p1", "p1.json", "--cost",
                  "power:0.5", "--max-arc-length", "1"], NO_PLAN),
    "bounded build of measures 1e-10 apart": (
        DEFICIT, ["build-optimal", "--theorem", "2.6", "--p0", "p0.json",
                  "--p1", "p1.json", "--cost", "power:0.5", "--bound", "1"],
        NO_PLAN),
    "grid function with a boolean value": (
        {"f.json": {"points": [[0.0]], "values": [True]}}, DUAL,
        "f.json: values must hold numbers only, got [True]"),
    "query grid with a boolean point": (
        {"f.json": {"points": [[0.0]], "values": [0.0]}, "g.json": [[True]]},
        DUAL + ["--grid", "g.json"], "g.json: grid must hold numbers only"),
    "ensemble with a nested duration": (
        _ensemble(dt=[1]), _eval("L1"),
        "e.json: dt must be a flat list of numbers, got [[1]]"),
    "ensemble with a nested velocity under a 2-D start": (
        {"e.json": {"members": [{"weight": 1, "path": {
            "start": [0, 0], "pieces": [{"dt": 1, "v": [[1], [0]]}]}}]}},
        _eval("L1"), "e.json: v must be a list of equal-length lists of "
                     "numbers, got [[[1], [0]]]"),
    "ensemble without members": ({"e.json": {"members": []}}, _eval("L1"),
                                 "e.json: members must not be empty"),
    "path without pieces": (
        {"e.json": {"members": [{"weight": 1, "path": {
            "start": [0], "pieces": []}}]}},
        _eval("L1"), "e.json: pieces must not be empty"),
    "path with an empty start": (
        {"e.json": {"members": [{"weight": 1, "path": {
            "start": [], "pieces": [{"dt": 1, "v": []}]}}]}},
        _eval("L1"), "e.json: start must not be empty"),
    "path with velocities of two lengths": (
        {"e.json": {"members": [{"weight": 1, "path": {
            "start": [0, 0], "pieces": [{"dt": 0.5, "v": [1, 0]},
                                        {"dt": 0.5, "v": [1]}]}}]}},
        _eval("L1"), "e.json: v must be a list of equal-length lists of "
                     "numbers, got [[1, 0], [1]]"),
    "ensemble with a nested weight": (
        _ensemble(weight=[1]), _eval("L1"),
        "e.json: weight must be a number, got [1]"),
    "ensemble with a nested horizon": (
        _ensemble(horizon=[[1]]), _eval("L1"),
        "e.json: horizon must be a number, got [[1]]"),
    "query grid that is a number": (
        {"f.json": {"points": [[0.0]], "values": [0.0]}, "g.json": 0},
        DUAL + ["--grid", "g.json"], "g.json: grid must be a flat list of "
        "numbers or a list of equal-length lists of numbers, got 0"),
    "query grid nested three deep": (
        {"f.json": {"points": [[0.0]], "values": [0.0]}, "g.json": [[[0]]]},
        DUAL + ["--grid", "g.json"], "g.json: grid must be a flat list of "
        "numbers or a list of equal-length lists of numbers, got [[[0]]]"),
    "grid function with nested values": (
        {"f.json": {"points": [[0.0]], "values": [[1]]}}, DUAL,
        "f.json: values must be a flat list of numbers, got [[1]]"),
    "grid function with points nested three deep": (
        {"f.json": {"points": [[[0]]], "values": [0.0]}}, DUAL,
        "f.json: points must be a flat list of numbers or a list of "
        "equal-length lists of numbers, got [[[0]]]"),
    "measure with a fractional dimension": (
        {"p0.json": {**GOOD, "dim": 1.7}}, SOLVE,
        "p0.json: dim must be a positive integer, got 1.7"),
    "measure with a negative dimension": (
        {"p0.json": {**GOOD, "dim": -1}}, SOLVE,
        "p0.json: dim must be a positive integer, got -1"),
    "triple whose target has dimension zero": (
        {"t.json": {"source": GOOD, "target": {**GOOD, "dim": 0},
                    "plan": [[0.5, 0.0], [0.0, 0.5]],
                    "bounds": [[0, 0, 1.0], [1, 1, 1.0]]}},
        _triple([])[1], "t.json: dim must be a positive integer, got 0"),
    "measure whose points differ in length": (
        {"p0.json": {"dim": 1, "atoms": [{"x": [0.0], "w": 0.5},
                                         {"x": [1.0, 2.0], "w": 0.5}]}},
        SOLVE, "p0.json: atoms of dim 1 vs 2"),
    "measure with a point nested three deep": (
        {"p0.json": {"dim": 1, "atoms": [{"x": [[[0.0]]], "w": 1.0}]}}, SOLVE,
        "p0.json: x must be a number or a flat list of numbers, "
        "got [[[0.0]]]"),
    "ensemble with one velocity shorter than its start": (
        {"e.json": {"members": [
            {"weight": 0.5, "path": {"start": [0.0, 0.0], "pieces": [
                {"dt": 1.0, "v": [0.5, 0.5]}]}},
            {"weight": 0.5, "path": {"start": [0.0, 0.0], "pieces": [
                {"dt": 1.0, "v": [0.5]}]}}]}},
        _eval("L1"), "e.json: v must be a list of equal-length lists of "
                     "numbers, got [[0.5, 0.5], [0.5]]"),
    "measure with a 400-digit coordinate": (
        {"p0.json": {"dim": 1, "atoms": [{"x": [10 ** 400], "w": 1.0}]}},
        SOLVE, "p0.json: x holds an integer too large for a float"),
    "measure with a 400-digit dimension": (
        {"p0.json": {**GOOD, "dim": 10 ** 400}}, SOLVE,
        "p0.json: dim holds an integer too large for a float"),
    "ensemble with a 400-digit velocity": (
        _ensemble(v=(10 ** 400,)), _eval("L1"),
        "e.json: v holds an integer too large for a float"),
    "grid function with a 400-digit value": (
        {"f.json": {"points": [[0.0]], "values": [10 ** 400]}}, DUAL,
        "f.json: values holds an integer too large for a float"),
    "measure file nested 5000 deep": (
        {"p0.json": "[" * 5000 + "]" * 5000}, SOLVE,
        "p0.json: malformed input (RecursionError("),
    "measure with a point nested 800 deep": (
        {"p0.json": '{"dim": 1, "atoms": [{"w": 1, "x": ' + "[0, " * 800
         + "0" + "]" * 800 + "}]}"}, SOLVE,
        "p0.json: malformed input (RecursionError("),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_cli_bad_input_exits_2_with_one_line(case, tmp_path, capsys):
    files, argv, fragment = BAD_INPUTS[case]
    for name, doc in {"good.json": GOOD, **files}.items():
        (tmp_path / name).write_text(doc if type(doc) is str else
                                     json.dumps(doc))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert main(argv) == 2  # an exception escaping main fails the test
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and fragment in lines[0], lines


@pytest.mark.parametrize("objective, v, bound, value", [
    ("plain", (1e170,), 2e170, 1e85),
    ("L1", (1e170, 1e170), None, 2.0 ** 0.25 * 1e85),
    ("L2", (1e-170,), None, 1e-85)])
def test_cli_eval_at_extreme_speeds(objective, v, bound, value, tmp_path,
                                    capsys):
    """Speeds whose squares overflow or underflow evaluate to their
    power:0.5 value, and warn of nothing."""
    (tmp_path / "e.json").write_text(
        json.dumps(_ensemble(v=v, bound=bound)["e.json"]))
    argv = [str(tmp_path / a) if a.endswith(".json") else a
            for a in _eval(objective)]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["value"] == pytest.approx(value, rel=1e-12,
                                                     abs=0.0)


def test_cli_out_of_memory_exits_2_with_one_line(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError("Unable to allocate 14.9 GiB for an array")

    # the parser exists before the patch, as it does after any earlier call
    main(["oracle", "--x", "0", "--y", "1", "--cost", "linear"])
    capsys.readouterr()
    monkeypatch.setattr(cli, "_cmd_verify", exhausted)
    assert main(["verify", "--theorem", "thm2_1"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == ["out of memory: Unable to allocate 14.9 GiB for an array"]


def test_cli_pivot_cap_exits_2_with_one_line(monkeypatch, tmp_path, capsys):
    """A simplex that reaches its pivot cap, lowered here to one pivot per
    node, refuses the run with one line; it is no failed check (exit 1)."""
    rng = np.random.default_rng(19)
    argv = ["solve-mk", "--cost", "power:0.5"]
    for name in ("p0", "p1"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"dim": 2, "atoms": [
            {"x": x, "w": w} for x, w in zip(
                rng.uniform(-2.0, 2.0, (10, 2)).tolist(),
                rng.dirichlet(np.ones(10)).tolist())]}))
        argv += [f"--{name}", str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(mk_solver, "_PIVOTS_PER_NODE", 1)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [
        "error: transportation simplex reached its pivot cap unsolved"]


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


ORACLE = ["oracle", "--x", "0", "--y", "1", "--cost", "power:0.5"]


@pytest.fixture
def oracle_payload(capsys):
    """What the oracle call writes to stdout, which --out writes to a file."""
    assert main(ORACLE) == 0
    return capsys.readouterr().out.encode()


def test_cli_out_rewrites_a_longer_file_to_the_new_payload(oracle_payload,
                                                           tmp_path):
    out = tmp_path / "o.json"
    out.write_bytes(b"x" * 5000)
    assert main([*ORACLE, "--out", str(out)]) == 0
    assert out.read_bytes() == oracle_payload


def test_cli_out_writes_through_a_symlink(oracle_payload, tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_bytes(b"x" * 5000)
    link.symlink_to(target)
    assert main([*ORACLE, "--out", str(link)]) == 0
    assert link.is_symlink() and target.read_bytes() == oracle_payload


def test_cli_out_to_dev_null_is_not_truncated(capsys):
    """/dev/null is written; cutting it to length would fail."""
    assert main([*ORACLE, "--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("name, message", [
    (".", "invalid input: [Errno 21] Is a directory: "),
    ("missing/o.json", "invalid input: [Errno 2] No such file or directory: ")])
def test_cli_out_that_cannot_be_opened_exits_2(name, message, tmp_path,
                                               capsys):
    out = str(tmp_path / name)
    assert main([*ORACLE, "--out", out]) == 2
    assert capsys.readouterr().err == f"{message}{out!r}\n"


def test_cli_out_makes_a_new_file_with_the_umask_mode(tmp_path):
    out = tmp_path / "o.json"
    old = os.umask(0o027)
    try:
        assert main([*ORACLE, "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == 0o666 & ~0o027


def test_cli_out_never_opens_with_o_trunc(tmp_path, monkeypatch):
    """The file is cut to length after the write, not truncated on open."""
    flags, real_open = [], os.open

    def spy(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    out = tmp_path / "o.json"
    out.write_bytes(b"x" * 5000)
    monkeypatch.setattr(os, "open", spy)
    assert main([*ORACLE, "--out", str(out)]) == 0
    monkeypatch.undo()
    assert flags and not any(f & os.O_TRUNC for f in flags)
