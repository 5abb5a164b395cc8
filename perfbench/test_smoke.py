"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload once untraced and once traced in this process, then
checks that no output check failed, that both passes wrote identical
reports, that every tracing wrapper was removed again, and that the
aggregated results carry exactly the metrics BENCHMARK.json declares.
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import run
import worker
from spans import leftover_wrappers
from workloads import PacDeep, PdfaWide, Sweep, Tightness

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = [
    Sweep(trials_theorem1=5, trials_theorem2=5, trials_smooth=5),
    Tightness(l1_shape=(2, 2)),
    PacDeep(n_grid=(10, 20)),
    PdfaWide(n_grid=(10,), max_len=4),
]


def _bayesrisk_bindings() -> dict:
    """Every name bound in a bayesrisk module or on one of its classes."""
    bindings = {}
    for mod_name, mod in sys.modules.items():
        if mod is None or not (mod_name == "bayesrisk" or mod_name.startswith("bayesrisk.")):
            continue
        for name, value in vars(mod).items():
            bindings[(mod_name, name)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in vars(value).items():
                    bindings[(mod_name, name, attr)] = member
    return bindings


def test_declared_metrics_match_the_command():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.units(trace=True)
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_workload_passes_traced_and_untraced(workload, tmp_path):
    worker.import_program()
    before = _bayesrisk_bindings()
    # One pass, untraced and then traced.
    result = worker.run_worker(workload, 7, 0, 1, tmp_path, True, time.perf_counter())

    assert leftover_wrappers() == []
    after = _bayesrisk_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

    plain, traced = result["passes"]
    assert not plain["traced"] and traced["traced"]
    assert plain["failures"] == [] and plain["failed"] == 0
    assert traced["failures"] == [] and traced["failed"] == 0
    assert plain["reports"] and plain["reports"] == traced["reports"]
    assert (tmp_path / "pass0t" / "spans.npz").is_file()

    # Self times partition the root spans, so the layers account for the traced calls.
    self_total = sum(v for name, v in traced["layers"].items() if name.endswith(".self_s"))
    assert self_total == pytest.approx(traced["root_s"], rel=1e-9)
    assert traced["root_s"] <= traced["wall_s"]

    for trace, declared in ((False, "end_to_end"), (True, "per_layer")):
        summary = run.aggregate([result], [1], workload.items, trace)
        assert summary["failed"] == 0 and summary["correct"]
        assert summary["failed"] / summary["attempted"] == 0
        assert set(summary["metrics"]) == {m["name"] for m in BENCHMARK[declared]}
        if not trace:
            assert all(value > 0 for value in summary["metrics"].values())

    # A crashed worker's planned passes, untraced and traced, count as failed.
    crashed = run.aggregate([result, None], [1, 2], workload.items, True)
    assert (crashed["attempted"], crashed["failed"]) == (6 * workload.items, 4 * workload.items)


def test_end_to_end_statistics():
    def fake(walls, setup_s):
        passes = [{"index": i, "traced": False, "wall_s": w, "ref_s": 0.5, "items": 10, "failed": 0,
                   "failures": []} for i, w in enumerate(walls)]
        return {"passes": passes, "setup_s": setup_s, "peak_rss_mb": 40.0}

    workers = [fake([1.0, 2.0, 3.0], 0.1), fake([4.0, 5.0, 6.0, 7.0], 0.3)]
    summary = run.aggregate(workers, [3, 4], 10, False, setups=[0.2, 0.4, 0.5])
    assert summary["metrics"]["wall_ref"] == 8.0
    assert summary["metrics"]["items_per_ref"] == 10 * 0.5 / 4.0
    assert (summary["wall_s"], summary["items_per_s"], summary["ref_s"]) == (4.0, 2.5, 0.5)
    assert summary["metrics"]["setup_s"] == 0.3
    assert summary["setups"] == 5


def test_passes_depend_on_seconds_only():
    plan = run.shares(10)
    assert plan == [(0, 2), (2, 3), (5, 2), (7, 3)]
    assert [first + i for first, count in plan for i in range(count)] == list(range(10))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
