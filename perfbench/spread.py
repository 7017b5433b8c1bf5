#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs `perfbench/run.py --workload W --seed S --seconds N` once per seed and
prints, per metric, the median of the runs and the distance between their
first and third quartile as a share of that median -- the steadiness test
a benchmark change has to pass before its bounds mean anything:

  python3 perfbench/spread.py --workload scale_day --seeds 1-10 --seconds 30
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(benchlib.WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args()

    run = Path(__file__).resolve().parent / "run.py"
    values = {name: [] for name, *_ in benchlib.END_TO_END}
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, str(run), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds)],
            capture_output=True, text=True)
        if out.returncode != 0:
            print(out.stdout, out.stderr, sep="\n")
            return out.returncode
        result = json.loads(out.stdout.strip().splitlines()[-1])
        row = []
        for name in values:
            v = result["metrics"][name]["value"]
            values[name].append(v)
            row.append(f"{name} {v:.4f}")
        print(f"seed {seed}: " + ", ".join(row), flush=True)
    for name, unit, _, bound in benchlib.END_TO_END:
        q1, med, q3 = benchlib.quartiles(values[name])
        share = benchlib.iqr_share(values[name])
        print(f"{args.workload} {name}: median {med:.4f} {unit}, q1 {q1:.4f}"
              f" q3 {q3:.4f}, spread {share:.2%} (bound {bound:.0%}, "
              f"target < {bound / 3:.2%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
