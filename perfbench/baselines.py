"""Per-call baselines from traced runs, as medians over seeds.

    python3 perfbench/baselines.py --seconds 20 --seeds 1 2 3

Runs ``run.py --trace 1`` on every workload for each seed and prints, per
traced function and workload, the median over runs of each run's median
self and inclusive microseconds per call.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

FUNCTIONS = (
    "distributions.Distribution.__post_init__",
    "distributions.kl_divergence",
    "bounds.check_theorem1",
    "bounds.check_theorem2",
    "bounds.excess_logloss_identity",
    "pipeline.run_trial",
    "pdfa.truncate",
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args()
    print("| function | workload | calls per pass | self us/call | inclusive us/call |")
    print("|---|---|---|---|---|")
    for workload in WORKLOADS:
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "1"],
                capture_output=True, text=True, check=True,
            )
            line = next(l for l in done.stdout.splitlines() if l.startswith("functions "))
            runs.append(json.loads(line[len("functions "):]))
        for label in FUNCTIONS:
            seen = [run[label] for run in runs if label in run]
            if not seen:
                continue
            calls = statistics.median(s["calls"] for s in seen)
            self_us = statistics.median(s["self_us_per_call"] for s in seen)
            total_us = statistics.median(s["total_us_per_call"] for s in seen)
            print(f"| `{label}` | {workload} | {calls:g} | {self_us:.1f} | {total_us:.1f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
