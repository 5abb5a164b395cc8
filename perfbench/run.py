"""Benchmark command: run one workload for a fixed number of passes and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 45 --trace 0

The run makes ``round(--seconds / pass_s)`` passes of the workload (at
least one per process), where ``pass_s`` is the workload's usual pass
time on the machine the benchmark was tuned on. It starts WORKERS fresh
single-threaded Python processes (``worker.py``) one after another and
gives each an equal, fixed share of the passes. Each process sets up
once (import plus the first inputs) and then runs its timed passes.
Without tracing, one more process before each of them only sets up, so
a run times 2 * WORKERS set-ups. Pass ``i`` makes its inputs from
``(seed, i)``, so a seed and ``--seconds`` always give the same inputs,
however fast the machine is, and a run's statistics cover many inputs.
``--seconds`` is thus the run's usual length; RUN_LIMIT_S is its
time-out.

``--trace 0`` reports the end-to-end metrics. ``wall_ref`` is the median
over passes of the wall time of the pass's CLI calls divided by the time
of the reference routine (``reference.py``) measured around it, so a
slow phase of the machine, which slows both, cancels out;
``items_per_ref`` is the median of its inverse times the pass's items.
``setup_s`` is the median over all set-ups and ``peak_rss_mb`` the
median over the passing processes. The readable table also prints the
unscaled medians ``wall_s`` and ``items_per_s``, and the reference time.

``--trace 1`` makes half the passes and runs each twice on the same
inputs, untraced then traced, checks that both wrote identical reports,
and reports per-layer span metrics plus the tracing overhead. Lines
before the last give provenance and a readable table; the last line is
the JSON result, also saved with every pass under
``perfbench/_work/<workload>/``.

Exits 2 without a result when the checkout has no ``src/bayesrisk``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

WORKERS = 4
# A run must end within 180 s whatever --seconds asks for.
RUN_LIMIT_S = 150.0

END_TO_END = {"wall_ref": "ref", "items_per_ref": "1/ref", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_TOTALS = {"trace.wall_s": "s", "trace.root_s": "s", "trace.overhead_s": "s"}

SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def units(trace: bool) -> dict[str, str]:
    return {**layer_metrics(), **TRACE_TOTALS} if trace else END_TO_END


def provenance(seed: int) -> dict:
    def git(*args):
        try:
            done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    revision = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = git("status", "--porcelain", "--untracked-files=no") if revision else None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": revision,
        "git_dirty": None if status is None else bool(status),
        "load_avg_1m": os.getloadavg()[0],
        "seed": seed,
    }


def start_worker(workload: str, seed: int, first_index: int, count: int, out: Path, trace: bool,
                 timeout: float) -> dict | None:
    """One worker process; None if it crashed, timed out or printed no result.

    ``out`` is relative to ROOT, the worker's working directory, so that
    what the CLI writes does not depend on where the checkout is.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--first-index", str(first_index), "--passes", str(count), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              env={**os.environ, **SINGLE_THREAD}, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"worker from pass {first_index} timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"worker from pass {first_index} exited {done.returncode}:\n{done.stderr}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def median(values) -> float:
    return float(statistics.median(values))


def per_call_us(stats: dict, key: str) -> float:
    return 1e6 * stats[key] / stats["calls"]


def shares(total: int) -> list[tuple[int, int]]:
    """(first pass index, number of passes) of each worker for ``total`` passes."""
    bounds = [w * total // WORKERS for w in range(WORKERS + 1)]
    return [(bounds[w], bounds[w + 1] - bounds[w]) for w in range(WORKERS)]


def aggregate(workers: list[dict | None], planned: list[int], items: int, trace: bool,
              setups: list[float] = ()) -> dict:
    """Turn worker results (None for a crashed worker) into the run's result.

    ``planned`` is each worker's number of passes; the passes of a crashed
    worker count as attempted and failed. ``setups`` are the set-up times
    of the processes that only set up.
    """
    done = [w for w in workers if w is not None]
    passes = [p for w in done for p in w["passes"]]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    lost = sum(count for w, count in zip(workers, planned) if w is None) * (2 if trace else 1)
    attempted = items * (len(passes) + lost)
    failed = items * lost + sum(p["failed"] for p in passes)
    notes = [msg for p in passes for msg in p["failures"]]

    if trace:
        reports = {}
        for p in passes:
            reports.setdefault(p["index"], []).append(p["reports"])
        for index, pair in sorted(reports.items()):
            if len(pair) != 2 or pair[0] != pair[1]:
                failed += 1
                notes.append(f"pass {index}: traced and untraced report.csv differ")
        first = traced[0]
        metrics = {
            name: median(p["layers"][name] for p in traced) if name.endswith("_s") else first["layers"][name]
            for name in layer_metrics()
        }
        metrics["trace.wall_s"] = median(p["wall_s"] for p in traced)
        metrics["trace.root_s"] = median(p["root_s"] for p in traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - median(p["wall_s"] for p in plain)
        functions = {
            label: {
                "calls": stats["calls"],
                "self_us_per_call": median(per_call_us(p["functions"][label], "self_s") for p in traced),
                "total_us_per_call": median(per_call_us(p["functions"][label], "total_s") for p in traced),
            }
            for label, stats in first["functions"].items()
            if all(p["functions"][label]["calls"] for p in traced)
        }
    else:
        functions = {}
        metrics = {
            "wall_ref": median(p["wall_s"] / p["ref_s"] for p in plain),
            "items_per_ref": median(p["items"] * p["ref_s"] / p["wall_s"] for p in plain),
            "setup_s": median([*setups, *(w["setup_s"] for w in done)]),
            "peak_rss_mb": median(w["peak_rss_mb"] for w in done),
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "functions": functions,
        "notes": notes,
        "pass_wall_s": sorted(p["wall_s"] for p in plain),
        "wall_s": median(p["wall_s"] for p in plain),
        "items_per_s": median(p["items"] / p["wall_s"] for p in plain),
        "ref_s": median(p["ref_s"] for p in plain),
        "processes": len(done),
        "setups": len(setups) + len(done),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bayesrisk" / "cli.py").is_file():
        print(f"error: no bayesrisk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    workload = WORKLOADS[args.workload]
    info = provenance(args.seed)

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    # A traced run makes every pass twice, so it makes half the passes.
    plan = shares(max(WORKERS, round(args.seconds / workload.pass_s / (2 if trace else 1))))
    start = time.monotonic()
    workers: list[dict | None] = []
    setups: list[float] = []
    for w, (first, count) in enumerate(plan):
        out = work.relative_to(ROOT) / f"worker{w}"
        if not trace:
            left = RUN_LIMIT_S - (time.monotonic() - start)
            only_setup = start_worker(args.workload, args.seed, first, 0, out, False, max(left, 1.0))
            if only_setup is not None:
                setups.append(only_setup["setup_s"])
        left = RUN_LIMIT_S - (time.monotonic() - start)
        result = start_worker(args.workload, args.seed, first, count, out, trace, max(left, 1.0))
        workers.append(result)
        if result is not None:
            info.setdefault("numpy", result["versions"]["numpy"])

    if not any(workers):
        print("error: no worker of the workload completed", file=sys.stderr)
        return 1
    summary = aggregate(workers, [count for _, count in plan], workload.items, trace, setups)
    metric_units = units(trace)
    result = {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": summary["metrics"][name], "unit": unit} for name, unit in metric_units.items()},
    }
    (work / f"result-trace{args.trace}.json").write_text(
        json.dumps({"provenance": info, "summary": summary, "workers": workers, "result": result}, indent=1)
    )

    walls = summary["pass_wall_s"]
    print("provenance " + json.dumps(info))
    print(f"workload {args.workload}: {workload.items} {workload.unit} per pass; "
          f"{len(walls)} untraced passes in {summary['processes']} processes; "
          f"pass wall_s min {walls[0]:.4g} median {median(walls):.4g} max {walls[-1]:.4g}; "
          f"{summary['setups']} set-ups")
    for name, unit in metric_units.items():
        print(f"  {name:32s} {summary['metrics'][name]:>16.6g} {unit}")
    for name, unit in (("wall_s", "s"), ("items_per_s", "1/s"), ("ref_s", "s")):
        print(f"  {name:32s} {summary[name]:>16.6g} {unit}  (median over passes, no bound)")
    print(f"  {'failed_fraction':32s} {summary['failed'] / summary['attempted']:>16.6g} 1")
    for note in summary["notes"][:10]:
        print(f"  failure: {note}")
    if trace:
        print("functions " + json.dumps(summary["functions"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
