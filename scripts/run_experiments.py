#!/usr/bin/env python3
"""Run every registered experiment with its runner's default config.

Outputs land under out/<experiment>/ with CSVs, verdict JSON and a manifest;
pass --plot for SVG charts, --out to change the root directory.
"""
import argparse
import sys

from fiolab.runner import EXPERIMENTS, run_experiment
from fiolab.util import default_jobs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out")
    ap.add_argument("--plot", action="store_true")
    ap.add_argument("--jobs", type=int, default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--only", nargs="*", default=None, choices=sorted(EXPERIMENTS),
                    help="subset of experiment names")
    args = ap.parse_args()
    jobs = args.jobs if args.jobs is not None else default_jobs()
    names = args.only if args.only else sorted(EXPERIMENTS)
    worst = 0
    for name in names:
        print(f"== {name}")
        res = run_experiment(name, None, f"{args.out}/{name}", plot=args.plot,
                             jobs=jobs, seed=args.seed)
        for k, v in sorted(res.summary.items()):
            print(f"   {k} = {v}")
        worst = max(worst, res.exit_code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
