"""Benchmark of lagot: three workloads, end-to-end metrics with tracing off,
per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload mk-ladder --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs each workload in its own process, one after the other, and prints a
table.  See perfbench/README.md for what each workload and metric means.
"""

import os

# One thread for BLAS and OpenMP in this process and in every child; set
# before numpy is imported.  HiGHS gets ``threads=1`` in oracle.py.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import reference  # noqa: E402  (numpy only)

WORKLOAD_NAMES = ("suite-sweep", "mk-ladder", "capped-cli")
SETUP_REPEATS = 9

END_TO_END = (("pass_s", "s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_program():
    """Import lagot from this checkout's src/ and the benchmark modules
    that use it."""
    try:
        import lagot
    except ImportError as exc:
        raise BenchError(f"lagot is not importable from {ROOT / 'src'}: "
                         f"{exc}") from exc
    if Path(lagot.__file__).resolve().parent != ROOT / "src" / "lagot":
        raise BenchError(f"lagot was imported from {lagot.__file__}, not "
                         f"from this checkout")
    if importlib.util.find_spec("scipy") is None:
        raise BenchError("scipy (HiGHS) is required by the correctness "
                         "oracle")
    from perfbench import tracing, workloads
    return workloads, tracing


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def git_commit():
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args) -> dict:
    import numpy
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lagot").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS",
                                               "OPENBLAS_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def setup_times(args, repeats: int) -> list:
    """Wall times of fresh interpreters that each import lagot.cli, make the
    first pass's inputs and make the first calls."""
    times = []
    for _ in range(repeats):
        workdir = tempfile.mkdtemp(dir=OUT)
        try:
            t0 = perf_counter()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--dir", workdir],
                cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=120)
            times.append(perf_counter() - t0)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()}")
    return times


def run_passes(workload, seconds: float):
    """Passes 0, 1, ... until ``seconds`` have elapsed, at least one; each
    gets its scale to reference speed from the readings on either side."""
    passes = []
    before = reference.sample()
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        result = workload.run_pass(workload.make_pass(len(passes)))
        after = reference.sample()
        result.scale = reference.scale(before, after)
        passes.append(result)
        before = after
    return passes


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (statistics.quantiles, inclusive)."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def check(name: str, passes):
    """The oracle's verdict on every output of ``passes``."""
    from perfbench import oracle
    try:
        return oracle.CHECKS[name]([p.records for p in passes])
    except oracle.OracleError as exc:
        verdict = oracle.Verdict()
        verdict.problems.append(str(exc))
        return verdict


def end_to_end(passes, setup_s: float, rss_kb: int,
               normalise: bool = True) -> dict:
    """The end-to-end metrics, at reference speed unless ``normalise`` is
    false."""
    def scale(p):
        return p.scale if normalise else 1.0
    ops = [t * scale(p) for p in passes for t in p.op_seconds]
    return {
        "pass_s": statistics.fmean(p.seconds * scale(p) for p in passes),
        "op_p50_ms": percentile(ops, 50) * 1e3,
        "op_p90_ms": percentile(ops, 90) * 1e3,
        "peak_rss_mb": rss_kb / 1024.0,
        "setup_s": setup_s,
    }


def rung_means(passes, rungs) -> dict:
    """Mean solve time per ladder rung, in ms."""
    out = {}
    for name, _n, _equal in rungs:
        times = [p.detail[name] for p in passes if name in p.detail]
        out[name] = statistics.fmean(times) * 1e3 if times else 0.0
    return out


def traced_run(workloads_mod, tracing, workload, args):
    """Each pass runs twice on the same inputs, once untraced and once under
    the tracer, in alternating order so that drift in machine speed falls on
    both.  Returns (passes, per-layer metrics, verdict, tracer)."""
    tracer = tracing.Tracer()
    untraced, traced, traced_wall = [], [], 0.0
    deadline = perf_counter() + args.seconds
    k = 0
    while not traced or perf_counter() < deadline:
        for on in (False, True) if k % 2 == 0 else (True, False):
            inputs = workload.make_pass(k)
            if not on:
                untraced.append(workload.run_pass(inputs))
                continue
            tracing.install(tracer)
            try:
                t0 = perf_counter()
                traced.append(workload.run_pass(inputs))
                traced_wall += perf_counter() - t0
            finally:
                tracer.restore()
        k += 1
    tracing.install(tracer)
    try:
        verdict = check(args.workload, untraced + traced)
    finally:
        tracer.restore()
    passes = untraced + traced
    layer = {}
    times = tracer.layer_times()
    for name in tracing.SPAN_NAMES:
        calls, self_s = times[name]
        layer[f"{name}.calls"] = calls
        layer[f"{name}.self_s"] = self_s
    layer.update(tracer.counts)
    rungs = workloads_mod.LADDER + workloads_mod.TRACE_RUNGS
    ladder = dict.fromkeys((r[0] for r in rungs), 0.0)
    if args.workload == "mk-ladder":
        ladder.update(rung_means(untraced, workloads_mod.LADDER))
        extra = workload.run_pass(workload.make_pass(
            0, rungs=workloads_mod.TRACE_RUNGS))
        verdict.merge(check(args.workload, [extra]))
        passes.append(extra)
        ladder.update({k: v * 1e3 for k, v in extra.detail.items()})
    for rung, ms in ladder.items():
        layer[f"ladder.solve_ms.{rung}"] = ms
    layer["oracle.known_failed"] = verdict.known_failed
    layer["oracle.fail_ratio"] = verdict.fail_ratio
    lagot_self = sum(s for name, (_c, s) in times.items()
                     if not name.startswith("oracle."))
    layer["trace.overhead_ratio"] = (sum(p.seconds for p in traced)
                                     / sum(p.seconds for p in untraced))
    layer["trace.coverage"] = lagot_self / traced_wall
    return passes, layer, verdict, tracer


def per_layer_units(tracing, workloads_mod) -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in tracing.SPAN_NAMES:
        out += [(f"{name}.calls", "count", "lower"),
                (f"{name}.self_s", "s", "lower")]
    for name in tracing.COUNTERS:
        unit = "B" if name.startswith("io.bytes") else "count"
        better = "higher" if name == "harness.trials" else "lower"
        out.append((name, unit, better))
    for rung in workloads_mod.LADDER + workloads_mod.TRACE_RUNGS:
        out.append((f"ladder.solve_ms.{rung[0]}", "ms", "lower"))
    out += [("oracle.known_failed", "count", "lower"),
            ("oracle.fail_ratio", "ratio", "lower"),
            ("trace.overhead_ratio", "ratio", "lower"),
            ("trace.coverage", "ratio", "higher")]
    return out


def result_line(verdict, metrics: dict, units: dict) -> dict:
    """The last line of standard output.  ``failed`` counts the failures
    that no known defect explains; the known ones are printed and recorded
    beside it (``known_failed``, ``fail_ratio``)."""
    return {"correct": verdict.correct, "attempted": verdict.attempted,
            "failed": verdict.unexplained,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def record_path(workload: str, seed: int, trace: int) -> Path:
    return OUT / f"run-{workload}-seed{seed}-trace{trace}.json"


def run_one(args) -> int:
    workloads_mod, tracing = load_program()
    OUT.mkdir(parents=True, exist_ok=True)
    prov = provenance(args)
    print("provenance " + json.dumps(prov, sort_keys=True))
    # half the set-ups before the measurement and half after it, so that
    # the median spans the machine's drift over the run
    setup = setup_times(args, SETUP_REPEATS - SETUP_REPEATS // 2)
    workdir = tempfile.mkdtemp(dir=OUT)
    try:
        workload = workloads_mod.WORKLOADS[args.workload](args.seed,
                                                          Path(workdir))
        workload.warm_up()
        if args.trace:
            passes, metrics, verdict, tracer = traced_run(
                workloads_mod, tracing, workload, args)
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        else:
            passes = run_passes(workload, args.seconds)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_s = statistics.median(setup + setup_times(args,
                                                    SETUP_REPEATS // 2))
    if args.trace:
        raw = metrics
        units = {n: u for n, u, _b in per_layer_units(tracing,
                                                      workloads_mod)}
    else:
        verdict = check(args.workload, passes)
        raw = end_to_end(passes, setup_s, rss_kb, normalise=False)
        # single readings around a set-up probe are too noisy to scale it
        # by, so set-up is scaled by the run's median reading
        setup_s *= statistics.median(p.scale for p in passes)
        metrics = end_to_end(passes, setup_s, rss_kb)
        units = dict(END_TO_END)

    n_ops = sum(len(p.op_seconds) for p in passes)
    print(f"workload {args.workload}: {len(passes)} passes, {n_ops} "
          f"operations timed, setup_s {setup_s:.4f} s")
    if args.workload == "mk-ladder":
        means = rung_means(passes, workloads_mod.LADDER)
        print("solve_ms per rung: " + ", ".join(
            f"{k} {v:.2f}" for k, v in means.items()))
    for name, value in metrics.items():
        at_raw = f"  (raw {raw[name]:.6g})" if raw[name] != value else ""
        print(f"  {name} = {value:.6g} {units[name]}{at_raw}")
    print(f"correct {verdict.correct}: attempted {verdict.attempted}, failed "
          f"{verdict.failed} ({verdict.known_failed} by known defects, "
          f"{verdict.unexplained} unexplained), fail_ratio "
          f"{verdict.fail_ratio:.6f}")
    for cls, count in sorted(verdict.known.items()):
        print(f"  known defect, {cls}: {count} failed")
    for note in verdict.unknown[:20] + verdict.problems[:20]:
        print(f"  NOT EXPLAINED: {note}")
    record = {"provenance": prov, "operations": n_ops,
              "pass_seconds": [p.seconds for p in passes],
              "pass_scales": [p.scale for p in passes],
              "metrics": metrics, "raw_metrics": raw,
              "correct": verdict.correct,
              "attempted": verdict.attempted, "failed": verdict.failed,
              "known_failed": verdict.known_failed,
              "unexplained": verdict.unexplained,
              "fail_ratio": verdict.fail_ratio, "known": dict(verdict.known),
              "unknown": verdict.unknown[:100],
              "problems": verdict.problems[:100]}
    record_path(args.workload, args.seed, args.trace).write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result_line(verdict, metrics, units)))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one at a time, then a table."""
    rows, status = [], 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for metric, m in result["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"]))
        record = json.loads(record_path(name, args.seed,
                                        args.trace).read_text())
        rows.append((name, "fail_ratio", record["fail_ratio"],
                     f"of {result['attempted']}"))
        rows.append((name, "unexplained failures", result["failed"], ""))
        rows.append((name, "correct", result["correct"], ""))
    print()
    for name, metric, value, unit in rows:
        print(f"{name:12s} {metric:38s} {value!s:>22} {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
