"""Set-up unit timed by the benchmark: import landauzb and build a workload's inputs.

Run in a fresh interpreter by ``bench/run.py``; the parent times the whole
process, interpreter start-up included.

    python3 bench/setup_probe.py --workload certify --seed 1 --workdir .bench_work/x
"""

import argparse
import sys
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()
    warnings.simplefilter("ignore")
    import workloads

    workloads.INPUTS[args.workload](args.seed, args.workdir)


if __name__ == "__main__":
    main()
