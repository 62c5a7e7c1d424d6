"""Print one sha256 per seeded verification report, to compare two trees.

    python3 tools/report_digests.py > digests.txt

Covers every (suite, cost) pair of the ten suites and five costs at seeds
0-4.  Each line is ``suite cost seed digest``, where the digest is taken
over ``json.dumps(report.to_json(), sort_keys=True, default=bool)``, or is
the class name of the error when the suite refuses the cost.  Run it in
two checkouts and ``diff`` the outputs: identical files mean identical
reports.
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


def digest(theorem: str, cost: str, seed: int) -> str:
    cfg = VerifyConfig(theorem=theorem, seed=seed,
                       cost_spec=parse_cost(cost).to_spec())
    try:
        report = verify(cfg)
    except LagotError as exc:
        return type(exc).__name__
    text = json.dumps(report.to_json(), sort_keys=True, default=bool)
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    for theorem in THEOREMS:
        for cost in COSTS:
            for seed in SEEDS:
                print(theorem, cost, seed, digest(theorem, cost, seed),
                      flush=True)


if __name__ == "__main__":
    main()
