"""Run the CLI's reference commands on two checkouts and compare what they write, byte for byte.

    python tools/compare_runs.py PARENT CHANGE

Each command runs in a fresh ``python -m bayesrisk.cli`` process per checkout, with ``PYTHONPATH=<checkout>/src``
and the checkout as its working directory; both read their input files from the ``tests/data`` of the checkout
this tool sits in, so a case may use an input that one checkout lacks. A case matches when the exit codes,
``report.csv``, ``summary.json``, every other ``*.json`` written but the manifest, and the manifest's ``config``,
``csv_columns`` and ``instances_per_block`` (a sweep's draw block size) are the same. It prints one line per case and
exits 1 if any case differs. Only the standard library is used.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

LONG_ROWS = ["--trials", "300", "--k-max", "9", "--m-max", "300", "--seed", "7"]
WIDE_BLOCKS = ["--trials", "500", "--k-max", "10", "--m-max", "2", "--seed", "3"]  # more classes than atoms
DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
MACHINES = f"pdfa:{DATA / 'machine_half.json'},pdfa:{DATA / 'machine_quarter.json'}"
BINARY = f"pdfa:{DATA / 'machine_binary_1.json'},pdfa:{DATA / 'machine_binary_2.json'}"
SPREAD = f"pdfa:{DATA / 'machine_spread.json'},pdfa:{DATA / 'machine_binary_1.json'}"
WIDE = ["--trials", "30", "--seed", "11"]
CASES = [
    *([f"verify-theorem{t}", "--trials", "300", "--seed", seed] for t in "12" for seed in ("1", "42")),
    *([f"verify-theorem{t}", *LONG_ROWS] for t in "12"),
    *([f"verify-theorem{t}", *WIDE_BLOCKS] for t in "12"),
    ["verify-theorem1", "--trials", "1", "--seed", "5"],  # a block of one: its costs as wide as its k
    ["verify-theorem1", "--trials", "800", "--k-max", "2", "--m-max", "2", "--seed", "9"],  # blocks of 385, all k = 2
    ["verify-theorem2", "--trials", "69", "--k-max", "5", "--m-max", "64", "--seed", "1"],  # one past a block of 68
    # one past a batch: four draw blocks of 68 checked at once, then a batch of one block of one
    *([f"verify-theorem{t}", "--trials", "273", "--k-max", "5", "--m-max", "64", "--seed", "1"] for t in "12"),
    ["lower-bounds"],
    ["lower-bounds", "--grid", "0,0.01,0.1,0.3"],
    ["smooth", "--trials", "300"],
    ["smooth", "--trials", "1025"],  # one past a batch: four draw blocks of 256 at once, then one trial
    ["smooth", "--domain-size", "1"],  # one atom: a one-entry draw and no noise
    ["smooth", "--domain-size", "300", "--bits", "12", "--trials", "200"],  # a block of 6 trials
    ["smooth", "--ld", "64", "--domain-size", "8"],
    *([f"verify-theorem{t}", "--seed", "42"] for t in "12"),  # the 10k default sweeps
    ["tightness"],
    ["tightness", "--metric", "KL", "--k", "3", "--domain-size", "8", "--epsilon", "0.05", "--iterations", "1"],
    ["tightness", "--metric", "KL", "--k", "4", "--domain-size", "4", "--iterations", "2"],  # starts drawn class by class
    ["pipeline", "--config", str(DATA / "pipeline_config.json")],
    ["pipeline", "--config", str(DATA / "pipeline_logloss_config.json")],
    ["pipeline", "--source", MACHINES, "--truncate", "6"],
    # 262,144 and 131,072 atoms: all 90 trials batched, in 18 and 13 batches
    ["pipeline", "--source", BINARY, "--truncate", "17", "--n-grid", "500,3000,8000", *WIDE],
    ["pipeline", "--source", BINARY, "--truncate", "16", "--n-grid", "1000,3000,8000", *WIDE],
    # 8,192 and 65,536 atoms, below where any trial batches: every trial on every atom, each estimate counted by
    # _add_lambda, which divides only the drawn atoms of 108 of 120 and of 91 of 180 estimates
    ["pipeline", "--source", BINARY, "--truncate", "12", "--n-grid", "100,1000", *WIDE],
    ["pipeline", "--source", BINARY, "--truncate", "15", "--n-grid", "20,8192,12000", *WIDE],
    # 131,072 atoms, a one-state machine's mass spread over every string: the 60 trials at n = 100 and 300 batched,
    # the 30 at n = 2,000 sorted into hits, refused by _few_leaves and counted again on every atom
    ["pipeline", "--source", SPREAD, "--truncate", "16", "--n-grid", "100,300,2000", *WIDE],
]


def outputs(checkout: Path, argv: list, out: Path) -> dict:
    """The exit code of ``argv`` run in ``checkout`` and the compared parts of what it writes to ``out``, by name."""
    command = [sys.executable, "-m", "bayesrisk.cli", *argv, "--out-dir", str(out)]
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    done = subprocess.run(command, cwd=checkout, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    found = {"exit code": done.returncode}
    for path in sorted(out.glob("*")):
        if path.name == "manifest.json":
            manifest = json.loads(path.read_text())
            found["manifest config, csv_columns and instances_per_block"] = [
                manifest[key] for key in ("config", "csv_columns", "instances_per_block") if key in manifest]
        elif path.name == "report.csv" or path.suffix == ".json":
            found[path.name] = path.read_bytes()
    return found


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: python tools/compare_runs.py PARENT CHANGE", file=sys.stderr)
        return 2
    checkouts = [Path(c).resolve() for c in argv]
    differing = 0
    with tempfile.TemporaryDirectory() as scratch:
        for case, args in enumerate(CASES):
            parent, change = (outputs(c, args, Path(scratch, f"{case}-{side}")) for side, c in enumerate(checkouts))
            names = [name for name in {**parent, **change} if parent.get(name) != change.get(name)]
            differing += bool(names)
            verdict = f"DIFFER ({', '.join(names)})" if names else f"same ({len(parent)} compared)"
            print(f"{' '.join(args)}: {verdict}", flush=True)
    print(f"{len(CASES)} cases, {differing} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
