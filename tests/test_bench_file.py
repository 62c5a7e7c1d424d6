"""tools/bench_file.py: sides by source hash, medians, pair wins."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location(
    "bench_file", ROOT / "tools" / "bench_file.py")
bench_file = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_file)


def _record(d: Path, sha: str, seed: int, pass_s: float, trace: int = 0,
            failed: int = 0) -> Path:
    metrics = {m: 1.0 for m in bench_file.end_to_end()} | {"pass_s": pass_s}
    prov = {"source_sha256": sha, "commit": sha * 2, "python": "3",
            "numpy": "2", "scipy": "1", "nproc": 2, "cpu": "x",
            "workload": "capped-cli", "seed": seed, "trace": trace}
    path = d / f"{sha}-{seed}-{trace}.json"
    path.write_text(json.dumps({"provenance": prov, "metrics": metrics,
                                "correct": True, "failed": failed}))
    return path


def test_two_sides_give_medians_quartiles_and_pair_wins(tmp_path):
    parent = [_record(tmp_path, "a", s, v)
              for s, v in zip((1, 2, 3, 4), (1.0, 2.0, 3.0, 4.0))]
    change = [_record(tmp_path, "b", s, v, failed=int(s == 4))
              for s, v in zip((1, 2, 3, 4), (0.5, 2.5, 1.0, 2.0))]
    traced = _record(tmp_path, "b", 9, 0.1, trace=1)
    out = tmp_path / "BENCH.json"
    bench_file.main([*map(str, parent + [traced] + change), "--out",
                     str(out)])
    doc = json.loads(out.read_text())
    a, b = (s["workloads"]["capped-cli"] for s in doc["sides"])
    assert [s["source_sha256"] for s in doc["sides"]] == ["a", "b"]
    assert a["metrics"]["pass_s"] == {"median": 2.5, "iqr": 1.5}
    assert (a["runs"], a["all_correct"], b["all_correct"]) == (4, True,
                                                                False)
    pairs = doc["pairs"]["capped-cli"]
    assert pairs["seeds"] == [1, 2, 3, 4]
    assert pairs["second_wins"]["pass_s"] == 3
    assert pairs["second_wins"]["setup_s"] == 0  # ties win nothing
    assert pairs["median_change"]["pass_s"] == 1.5 / 2.5 - 1.0
    assert doc["machine"]["nproc"] == 2
