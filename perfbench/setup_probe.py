"""One fresh-interpreter set-up, timed from outside by run.py.

It imports lagot.cli, makes (and for capped-cli writes) the inputs of the
first pass, and makes the first calls whose cost a run pays before its
measurement starts.

    python3 perfbench/setup_probe.py --workload mk-ladder --seed 0 --dir DIR
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import lagot.cli  # noqa: E402,F401  (the import is part of the set-up)

from perfbench import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload](args.seed, Path(args.dir))
    workload.make_pass(0)
    workload.warm_up()
    return 0


if __name__ == "__main__":
    sys.exit(main())
