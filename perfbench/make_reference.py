"""Store the reports the correctness check compares against.

Run from the repository root, at the commit whose numbers are the
reference:

    python3 perfbench/make_reference.py --seeds 0-20,12345

Writes perfbench/reference/<workload>/<seed>.csv for every workload.
"""

import argparse
import os
import sys

from check import reference_path
from workload import WORKLOADS


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-20,12345")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from chaosmoments import cli

    for name in WORKLOADS:
        for seed in parse_seeds(args.seeds):
            path = reference_path(name, seed)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            code = cli.main(WORKLOADS[name].argv(seed, path))
            if code not in (0, 1):
                raise SystemExit(f"{name} seed {seed}: command exited with {code}")
            print(f"{name} seed {seed}: {path}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
