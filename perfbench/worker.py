"""Timed passes of one workload in a fresh process.

Started by ``run.py``; prints one JSON object as its last line. The
process first imports ``bayesrisk`` from the checkout's ``src/`` and makes
the first pass's inputs (timed together as set-up). It then runs the
passes ``first-index`` up to ``first-index + passes - 1``: each pass makes
its inputs from ``(seed, index)``, runs the workload's CLI calls through
``bayesrisk.cli.main`` in this process (timed as the pass's wall time),
and checks the outputs. The reference routine of ``reference.py`` is
timed before the first pass and after every untraced pass, as the
median of about one run per second of pass time; a pass's ``ref_s`` is
the mean of the two times around it. With ``--trace`` every pass runs twice on the
same inputs, untraced and then traced. With ``--passes 0`` the process
only sets up.

    python3 perfbench/worker.py --workload sweep --seed 1 --first-index 0 --passes 8 --out DIR [--trace]
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from reference import reference_s  # noqa: E402
from spans import Tracer, leftover_wrappers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    """Import ``bayesrisk`` from this checkout, never from an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bayesrisk
    import bayesrisk.cli  # noqa: F401

    if Path(bayesrisk.__file__).resolve().parent != SRC / "bayesrisk":
        raise ImportError(f"bayesrisk imported from {bayesrisk.__file__}, not from {SRC}")


def run_pass(workload, calls: list[list[str]], out: Path, trace: bool) -> dict:
    """Run one pass's CLI calls, timed and optionally traced, then check the outputs."""
    import bayesrisk.cli

    tracer = Tracer()
    if trace:
        tracer.install()
    codes, errors = [], []
    start = time.perf_counter()
    try:
        for argv in calls:
            try:
                codes.append(bayesrisk.cli.main(argv))
            except Exception:  # a crash is a failed call, reported below
                codes.append(-1)
                errors.append(traceback.format_exc(limit=3))
    finally:
        wall_s = time.perf_counter() - start
        tracer.uninstall()

    failures = errors + workload.check(out, codes)
    result = {
        "traced": trace,
        "wall_s": wall_s,
        "items": workload.items,
        "reports": {
            path.parent.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.glob("*/report.csv"))
        },
    }
    if trace:
        tracer.write(out / "spans.npz")
        leftovers = leftover_wrappers()
        if leftovers:
            failures.append(f"wrappers not restored: {leftovers}")
        result.update(layers=tracer.layers(), functions=tracer.functions(), root_s=tracer.root_seconds())
    # A pass cannot fail more items than it attempted.
    result.update(failed=min(len(failures), workload.items), failures=failures[:5])
    return result


def run_worker(workload, seed: int, first_index: int, count: int, out: Path, trace: bool, t0: float) -> dict:
    """Set up, then run ``count`` passes from ``first_index`` on; ``t0`` is when set-up started."""
    import_program()

    def prepare(index: int, variant: str) -> tuple[Path, list[list[str]]]:
        where = out / f"pass{index}{variant}"
        shutil.rmtree(where, ignore_errors=True)
        where.mkdir(parents=True)
        return where, workload.prepare(np.random.default_rng([seed, index]), where)

    first = prepare(first_index, "")
    setup_s = time.perf_counter() - t0

    # Longer passes get more runs of the reference routine per sample; a sample is their median.
    reps = max(1, round(workload.pass_s))

    def reference() -> float:
        return statistics.median(reference_s() for _ in range(reps))

    passes = []
    ref_after = reference() if count else None
    for index in range(first_index, first_index + count):
        where, calls = first if index == first_index else prepare(index, "")
        ref_before = ref_after
        plain = run_pass(workload, calls, where, False)
        ref_after = reference()
        passes.append({"index": index, "ref_s": (ref_before + ref_after) / 2, **plain})
        if trace:
            twin, twin_calls = prepare(index, "t")
            passes.append({"index": index, **run_pass(workload, twin_calls, twin, True)})
        # Keep only the latest pass's outputs.
        for variant in ("", "t"):
            shutil.rmtree(out / f"pass{index - 1}{variant}", ignore_errors=True)

    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": platform.python_version(), "numpy": np.__version__},
        "passes": passes,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--first-index", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    result = run_worker(
        WORKLOADS[args.workload], args.seed, args.first_index, args.passes, Path(args.out), args.trace, _T0
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
