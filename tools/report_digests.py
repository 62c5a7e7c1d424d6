"""Print one sha256 per seeded verification report, to compare two trees.

    python3 tools/report_digests.py > digests.txt
    python3 tools/report_digests.py --json > reports.jsonl

Covers every (suite, cost) pair of the ten suites and five costs at seeds
0-4.  Each line is ``suite cost seed digest``, where the digest is taken
over ``json.dumps(report.to_json(), sort_keys=True, default=bool)``, or is
the class name of the error when the suite refuses the cost.  Run it in
two checkouts and ``diff`` the outputs: identical files mean identical
reports.  With ``--json`` each line is instead the JSON object
``{"theorem", "cost", "seed", "report"}``, whose report is the full report
or the class name of the refusal, so two trees can be compared value by
value.
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lagot.costs import parse_cost  # noqa: E402
from lagot.errors import LagotError  # noqa: E402
from lagot.harness import THEOREMS, VerifyConfig, verify  # noqa: E402

COSTS = ("power:0.5", "remark_iii", "affine_exp:0.25", "linear", "quadratic")
SEEDS = range(5)


def report(theorem: str, cost: str, seed: int):
    """The report's JSON, or the class name of the error refusing it."""
    cfg = VerifyConfig(theorem=theorem, seed=seed,
                       cost_spec=parse_cost(cost).to_spec())
    try:
        return verify(cfg).to_json()
    except LagotError as exc:
        return type(exc).__name__


def digest(theorem: str, cost: str, seed: int) -> str:
    got = report(theorem, cost, seed)
    if isinstance(got, str):
        return got
    text = json.dumps(got, sort_keys=True, default=bool)
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    as_json = "--json" in sys.argv[1:]
    for theorem in THEOREMS:
        for cost in COSTS:
            for seed in SEEDS:
                if as_json:
                    print(json.dumps({"theorem": theorem, "cost": cost,
                                      "seed": seed,
                                      "report": report(theorem, cost, seed)},
                                     sort_keys=True, default=bool),
                          flush=True)
                else:
                    print(theorem, cost, seed, digest(theorem, cost, seed),
                          flush=True)


if __name__ == "__main__":
    main()
