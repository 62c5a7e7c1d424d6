"""Summarise perfbench run records into one committed BENCH file.

    python3 tools/bench_file.py RECORD... --out BENCH_19.json

Each RECORD is a ``perfbench/out/run-*.json`` file of an untraced run
(``--trace 0``); traced records are skipped.  Records are grouped into
sides by the ``source_sha256`` of the lagot sources they ran, in the
order the sides first appear on the command line, and within a side by
workload.  For every side and workload the file holds the run count, the
seeds, whether every run read ``correct: true, failed: 0``, and the
median and interquartile range of each end-to-end metric of
BENCHMARK.json, beside the side's commit and Python, numpy and scipy
versions.  With two sides it also holds, per workload, the pairs of runs
at one seed and, per metric, how many pairs the second side wins and the
change of the median, second against first.  The machine entry gives
``nproc``, the CPU, the numpy SIMD features in use and the core type
OpenBLAS picked; these are read where this script runs, so run it on the
machine that made the records.
"""

import argparse
import ctypes
import json
import statistics
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def end_to_end() -> dict:
    """BENCHMARK.json's end-to-end metrics: name -> better direction."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def openblas_corename():
    """The core type numpy's bundled OpenBLAS runs on, or None."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("openblas_get_corename",
                     "scipy_openblas_get_corename64_",
                     "openblas_get_corename64_"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def machine(prov: dict) -> dict:
    from numpy._core._multiarray_umath import __cpu_features__
    return {"nproc": prov["nproc"], "cpu": prov["cpu"],
            "numpy_simd": [k for k, on in __cpu_features__.items() if on],
            "openblas_core": openblas_corename()}


def quartiles(values) -> dict:
    if len(values) < 2:
        return {"median": values[0], "iqr": 0.0}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "iqr": q3 - q1}


def load(paths) -> tuple:
    """The untraced records' metrics as {sha: {workload: {seed: metrics}}}
    and each side's provenance."""
    runs, provs = {}, {}
    for path in paths:
        rec = json.loads(Path(path).read_text())
        prov = rec["provenance"]
        if prov["trace"]:
            print(f"skipped traced record {path}", file=sys.stderr)
            continue
        sha = prov["source_sha256"]
        provs.setdefault(sha, prov)
        by_seed = runs.setdefault(sha, {}).setdefault(prov["workload"], {})
        if prov["seed"] in by_seed:
            raise SystemExit(f"{path}: a second run of seed {prov['seed']}")
        by_seed[prov["seed"]] = rec["metrics"] | {
            "ok": rec["correct"] and rec["failed"] == 0}
    if not runs:
        raise SystemExit("no untraced records given")
    return runs, provs


def side(prov: dict, workloads: dict, metrics) -> dict:
    return {key: prov[key] for key in ("source_sha256", "commit", "python",
                                       "numpy", "scipy")} | {"workloads": {
        wl: {"runs": len(by_seed), "seeds": sorted(by_seed),
             "all_correct": all(r["ok"] for r in by_seed.values()),
             "metrics": {m: quartiles([r[m] for r in by_seed.values()])
                         for m in metrics}}
        for wl, by_seed in sorted(workloads.items())}}


def pairs(first: dict, second: dict, metrics) -> dict:
    """Per workload run by both sides: the seeds both ran, per metric the
    pairs the second side wins and the change of its median."""
    sign = {m: 1 if better == "lower" else -1 for m, better in metrics.items()}
    out = {}
    for wl in sorted(set(first) & set(second)):
        a, b = first[wl], second[wl]
        seeds = sorted(set(a) & set(b))
        out[wl] = {"seeds": seeds, "second_wins": {
            m: sum(sign[m] * b[s][m] < sign[m] * a[s][m] for s in seeds)
            for m in metrics}, "median_change": {
            m: statistics.median(r[m] for r in b.values())
            / statistics.median(r[m] for r in a.values()) - 1.0
            for m in metrics}}
    return out


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("records", nargs="+", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    metrics = end_to_end()
    runs, provs = load(args.records)
    doc = {"machine": machine(next(iter(provs.values()))),
           "sides": [side(provs[sha], runs[sha], metrics) for sha in runs],
           "pairs": pairs(*runs.values(), metrics) if len(runs) == 2 else {}}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
