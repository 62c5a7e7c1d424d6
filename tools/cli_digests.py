"""Print one sha256 per call of a fixed, seeded list of CLI calls, to
compare two trees.

    python3 tools/cli_digests.py > digests.txt

Every call goes through ``lagot.cli.main`` in one process, in list order,
inside one temporary directory, so the list also checks that no call
leaves state behind for the next.  It covers all seven subcommands: the
capped pipeline (build-optimal --theorem 2.6, eval --objective plain on
the ``ensemble`` of its output, solve-mk --max-arc-length) at 0.6, 1.0 and
1.5 x the diameter and at one infeasible cap, invalid input and usage
errors, refusals of mismatched dimensions, of a config whose cost is a
string and of an unknown cost, refusals of a report curve without
columns and of distances that overflow, the control identity's
refusals of a cost that is not sublinear and of one that decreases,
refusals of JSON booleans where numbers belong and of a speed cap at
which the cost overflows, and, last, a config file that sets every key
and one whose cost parameter is a boolean.  Each line is ``name
digest``, where the digest is taken over the exit code, stdout, stderr
and the ``--out`` file (null when none was written), with the
directory's path replaced by ``<dir>``.  For a usage error (a call
named ``usage-*``) stderr is cut after the message's first phrase,
``lagot eval: error: argument --objective``: argparse words the rest,
choice lists included, differently from one Python release to the next.
Run it in two checkouts and ``diff`` the outputs: identical files mean
identical calls.
"""

import contextlib
import hashlib
import io
import json
import math
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lagot import cli  # noqa: E402
from lagot.measures import DiscreteMeasure  # noqa: E402

SEED = 20223
COST = "power:0.5"
CAP_FACTORS = (0.6, 1.0, 1.5)
INFEASIBLE_FACTOR = 0.01


def _measure(rng: random.Random, n: int) -> dict:
    """n atoms in [-2, 2]^2 with weights k_i / sum(k)."""
    counts = [rng.randint(1, 9) for _ in range(n)]
    return {"dim": 2, "atoms": [
        {"x": [rng.uniform(-2, 2), rng.uniform(-2, 2)], "w": k / sum(counts)}
        for k in counts]}


def _write(d: Path, name: str, doc) -> str:
    (d / name).write_text(json.dumps(doc))
    return str(d / name)


def run(argv: list):
    """(exit code, stdout, stderr, out-file text or None) of one call."""
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    if out is not None and out.exists():
        out.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    text = out.read_text() if out is not None and out.exists() else None
    return rc, stdout.getvalue(), stderr.getvalue(), text


def calls(d: Path):
    """Yield (name, argv) in order; inputs are written as they are needed."""
    rng = random.Random(SEED)
    docs = _measure(rng, 5), _measure(rng, 6)
    p0, p1 = _write(d, "p0.json", docs[0]), _write(d, "p1.json", docs[1])
    m0, m1 = (DiscreteMeasure.from_json(doc) for doc in docs)
    diam = m0.diameter_to(m1)
    pair = ["--p0", p0, "--p1", p1, "--cost", COST]
    out = str(d / "out.json")

    yield "solve-mk", ["solve-mk", *pair]
    yield "solve-mk-out", ["solve-mk", *pair, "--out", out]
    solved = json.loads(Path(out).read_text())
    yield "solve-mk-again", ["solve-mk", *pair]
    yield "build-2.1", ["build-optimal", "--theorem", "2.1", *pair]
    yield "build-2.1-seed-3", ["build-optimal", "--theorem", "2.1", *pair,
                               "--seed", "3", "--out", str(d / "b21.json")]
    yield "build-2.1-default-seed", ["build-optimal", "--theorem", "2.1",
                                     *pair]
    ens21 = _write(d, "ens21.json",
                   json.loads((d / "b21.json").read_text())["ensemble"])
    for objective in ("L1", "L2", "plain"):
        yield f"eval-{objective}", ["eval", "--objective", objective,
                                    "--ensemble", ens21, "--cost", COST]
    bounds = [[i, j, 1.5 * math.dist(docs[0]["atoms"][i]["x"],
                                      docs[1]["atoms"][j]["x"])]
              for i, row in enumerate(solved["plan"])
              for j, mass in enumerate(row) if mass > 0]
    triple = _write(d, "triple.json", {"source": docs[0], "target": docs[1],
                                       "plan": solved["plan"],
                                       "bounds": bounds})
    yield "eval-TV", ["eval", "--objective", "TV", "--triple", triple,
                      "--cost", COST]

    for factor in (*CAP_FACTORS, INFEASIBLE_FACTOR):
        bound = repr(factor * diam)
        built = str(d / f"build-{factor}.json")
        yield f"capped-{factor}-build", ["build-optimal", "--theorem", "2.6",
                                         *pair, "--bound", bound,
                                         "--out", built]
        if Path(built).exists():
            ens = _write(d, "ens.json",
                         json.loads(Path(built).read_text())["ensemble"])
            yield f"capped-{factor}-eval", ["eval", "--objective", "plain",
                                            "--ensemble", ens, "--cost", COST,
                                            "--out", out]
        yield f"capped-{factor}-solve", ["solve-mk", *pair,
                                         "--max-arc-length", bound,
                                         "--out", out]
    yield "capped-raw-eval", ["eval", "--objective", "plain", "--ensemble",
                              str(d / f"build-{CAP_FACTORS[-1]}.json"),
                              "--cost", COST]

    point = ["--x", "0,0", "--y", "1,0.5"]
    yield "oracle", ["oracle", *point, "--cost", COST]
    yield "oracle-plain-cap", ["oracle", *point, "--cost", "remark_iii",
                               "--objective", "plain", "--cap", "2"]
    for cost in ("power:nan", "affine_exp:nan", "affine_exp:inf"):
        yield f"oracle-{cost}", ["oracle", "--x", "0", "--y", "1",
                                 "--cost", cost]

    f = _write(d, "f.json", {"points": [[0.0, 0.0], [1.0, -1.0], [-1.5, 0.5]],
                             "values": [0.0, 0.25, -0.5]})
    for i in ("1", "2"):
        yield f"dual-{i}", ["dual", "--f", f, "--p0", p0, "--cost", COST,
                            "--i", i]

    report = str(d / "report.json")
    yield "verify-thm2_1", ["verify", "--theorem", "thm2_1", "--trials", "2",
                            "--seed", "4"]
    yield "verify-eq1_6-out", ["verify", "--theorem", "eq1_6", "--trials",
                               "1", "--out", report]
    yield "verify-refused", ["verify", "--theorem", "thm2_1", "--cost",
                             "quadratic", "--trials", "1"]
    yield "plot-eq1_6", ["plot", "--report", report, "--kind", "eq1_6"]
    yield "plot-unknown-kind", ["plot", "--report", report, "--kind", "nope"]

    yield "missing-file", ["solve-mk", "--p0", str(d / "none.json"),
                           "--p1", p1, "--cost", COST]
    yield "usage-missing-option", ["solve-mk", "--p0", p0, "--p1", p1]
    yield "usage-unknown-subcommand", ["solve", *pair]
    yield "usage-bad-float", ["build-optimal", "--theorem", "2.6", *pair,
                              "--bound", "x"]
    yield "usage-bad-choice", ["eval", "--objective", "foo", "--ensemble",
                               ens21, "--cost", COST]
    yield "usage-unread-seed", ["solve-mk", *pair, "--seed", "1"]
    yield "solve-mk-after-errors", ["solve-mk", *pair]

    yield "oracle-dim-mismatch", ["oracle", "--x", "0", "--y", "1,2",
                                  "--cost", COST]
    f1 = _write(d, "f1.json", {"points": [[0.0], [1.0]], "values": [0.0, 0.5]})
    yield "dual-dim-mismatch", ["dual", "--f", f1, "--p0", p0, "--cost", COST]
    cfg = _write(d, "cfg.json", {"theorem": "thm2_1", "cost": COST})
    yield "verify-string-cost-config", ["verify", "--config", cfg]
    yield "unknown-cost", ["oracle", *point, "--cost", "sqrt"]

    no_columns = _write(d, "no-columns.json", {
        **json.loads(Path(report).read_text()),
        "curves": {"kind": "eq1_6", "rows": [[1.0, 1.0]]}})
    yield "plot-curves-without-columns", ["plot", "--report", no_columns,
                                          "--kind", "eq1_6"]
    huge = _write(d, "huge.json", {"dim": 1, "atoms": [
        {"x": [1e308], "w": 0.5}, {"x": [-1e308], "w": 0.5}]})
    yield "solve-mk-overflow", ["solve-mk", "--p0", huge, "--p1", huge,
                                "--cost", COST]
    yield "oracle-overflow", ["oracle", "--x", "0", "--y", "1e308",
                              "--cost", COST]
    for i, cost in (("1", "quadratic"), ("2", "remark_iii")):
        yield f"dual-{i}-{cost}", ["dual", "--f", f, "--p0", p0,
                                   "--cost", cost, "--i", i]

    boolean = _write(d, "boolean.json", {"dim": 1, "atoms": [
        {"x": [0.0], "w": True}]})
    yield "solve-mk-boolean-weight", ["solve-mk", "--p0", boolean,
                                      "--p1", boolean, "--cost", COST]
    flags = _write(d, "flags.json", {"members": [{
        "weight": True, "bound": True,
        "path": {"start": [0.0], "pieces": [{"dt": True, "v": [0.5]}]}}]})
    yield "eval-boolean-ensemble", ["eval", "--objective", "plain",
                                    "--ensemble", flags, "--cost", COST]
    ends = [_write(d, name, {"dim": 1, "atoms": atoms}) for name, atoms in (
        ("ends0.json", [{"x": [0.0], "w": 0.5}, {"x": [3.0], "w": 0.5}]),
        ("ends1.json", [{"x": [-3.0], "w": 1.0}]))]
    yield "capped-cost-overflow", ["build-optimal", "--theorem", "2.6",
                                   "--p0", ends[0], "--p1", ends[1],
                                   "--cost", "quadratic", "--bound", "1e200"]

    every_key = _write(d, "every-key.json", {
        "theorem": "cor2_8", "seed": 2, "trials": 2, "n_atoms": 3, "dim": 1,
        "cost": {"name": "affine_exp", "params": [0.25]}, "tolerance": 1e-8})
    yield "verify-config-every-key", ["verify", "--config", every_key]
    flag_param = _write(d, "flag-param.json", {
        "theorem": "thm2_1", "trials": 2,
        "cost": {"name": "power", "params": [True]}})
    yield "verify-boolean-param-config", ["verify", "--config", flag_param]


def digests():
    """[(name, digest)] of every call in ``calls``, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        rows = []
        for name, argv in calls(d):
            rc, out, err, written = run(argv)
            if name.startswith("usage-"):
                head, sep, rest = err.partition("error: ")
                err = head + sep + rest.partition(":")[0]
            text = json.dumps([rc, out, err, written]).replace(tmp, "<dir>")
            rows.append((name, hashlib.sha256(text.encode()).hexdigest()))
        return rows


def main() -> None:
    for name, digest in digests():
        print(name, digest, flush=True)


if __name__ == "__main__":
    main()
