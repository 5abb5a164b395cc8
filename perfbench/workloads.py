"""The benchmark's workloads: inputs made from a seed, CLI calls, output checks.

Each workload makes its inputs with the benchmark's own generator, so the
program sees only files and command-line arguments (including ``--seed``).
It names the CLI calls to time, the number of work items they process,
and a check that returns one message per failure: a non-zero exit code, a
missing or extra row, a row that breaks its bound, or a summary that
reports a violation. The checks recompute what they can without the
library (Bayes risks, PDFA truncation) so a wrong answer cannot agree
with itself. ``pass_s`` is a pass's usual wall time on the machine the
benchmark was tuned on; ``run.py`` divides ``--seconds`` by it to fix how
many passes a run makes.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The CLI's own acceptance tolerance for bound checks and identities.
BOUND_TOL = 1e-9
# Bayes risks recomputed here sum in another order than the library's.
RISK_RTOL = 1e-12
# Trials per grid point of the PAC pipelines; the pipeline needs at least 30.
PIPELINE_TRIALS = 30


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _read(out: Path, code: int, expected_rows: int) -> tuple[list[str], list[dict], dict]:
    """Exit code, row count and summary presence; returns (failures, rows, summary)."""
    failures = []
    if code != 0:
        failures.append(f"{out.name}: exit code {code}")
    try:
        rows = _rows(out / "report.csv")
        summary = json.loads((out / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        return failures + [f"{out.name}: unreadable output: {exc}"] * max(1, expected_rows), [], {}
    if len(rows) != expected_rows:
        failures += [f"{out.name}: {len(rows)} rows, expected {expected_rows}"] * max(
            1, abs(len(rows) - expected_rows)
        )
    return failures, rows, summary


def _within(excess: str, bound: str) -> bool:
    b = float(bound)
    return b == math.inf or float(excess) <= b + BOUND_TOL


@dataclass(frozen=True)
class Sweep:
    """Randomized falsification sweeps of both theorems, then smoothing.

    Many tiny instances (k <= 5, m <= 64): time goes to instance
    generation, per-object validation and numpy call overhead, mostly in
    ``bounds``. ``pipeline`` and ``pdfa`` do no work here.
    """

    trials_theorem1: int = 200
    trials_theorem2: int = 200
    trials_smooth: int = 1000
    name = "sweep"
    unit = "instances"
    pass_s = 0.75

    @property
    def items(self) -> int:
        return self.trials_theorem1 + self.trials_theorem2 + self.trials_smooth

    def prepare(self, rng: np.random.Generator, out: Path) -> list[list[str]]:
        seed = str(int(rng.integers(0, 2**31)))
        return [
            ["verify-theorem1", "--trials", str(self.trials_theorem1), "--k-max", "5",
             "--m-max", "64", "--seed", seed, "--out-dir", str(out / "theorem1")],
            ["verify-theorem2", "--trials", str(self.trials_theorem2), "--k-max", "5",
             "--m-max", "64", "--seed", seed, "--out-dir", str(out / "theorem2")],
            ["smooth", "--trials", str(self.trials_smooth), "--seed", seed,
             "--out-dir", str(out / "smooth")],
        ]

    def check(self, out: Path, codes: list[int]) -> list[str]:
        failures = []
        for sub, trials, code in zip(
            ("theorem1", "theorem2", "smooth"),
            (self.trials_theorem1, self.trials_theorem2, self.trials_smooth),
            codes,
        ):
            bad, rows, summary = _read(out / sub, code, trials)
            failures += bad
            if summary and summary.get("violations") != 0:
                failures.append(f"{sub}: summary reports {summary.get('violations')} violations")
            for row in rows:
                if sub == "smooth":
                    ok = (row["within"] == "True"
                          and float(row["kl_actual"]) <= float(row["certificate"]) + BOUND_TOL)
                else:
                    ok = row["satisfied"] == "True" and _within(row["excess"], row["bound"])
                    if sub == "theorem2":
                        ok = ok and float(row["identity_gap"]) <= BOUND_TOL
                if not ok:
                    failures.append(f"{sub}: row {row.get('trial')} fails its check")
            if sub == "theorem2" and summary and not summary.get("worst_identity_gap", math.inf) <= BOUND_TOL:
                failures.append(f"theorem2: worst identity gap {summary.get('worst_identity_gap')}")
        return failures


@dataclass(frozen=True)
class Tightness:
    """Random-restart searches for instances that press the bounds.

    Few instances, each evaluated thousands of times: one L1 restart
    moves mass between random atom pairs and rebuilds every
    ``Distribution`` per move; one KL restart at k = m = 2 also bisects
    each estimate back into its budget. Same layers as ``sweep``, used
    the other way round.
    """

    l1_shape: tuple[int, int] = (3, 8)
    name = "tightness"
    unit = "restarts"
    pass_s = 2.4
    items = 2

    def prepare(self, rng: np.random.Generator, out: Path) -> list[list[str]]:
        seed = str(int(rng.integers(0, 2**31)))
        return [
            ["tightness", "--metric", metric, "--k", str(k), "--domain-size", str(m), "--epsilon", "0.2",
             "--iterations", "1", "--seed", seed, "--out-dir", str(out / metric.lower())]
            for metric, (k, m) in (("L1", self.l1_shape), ("KL", (2, 2)))
        ]

    def check(self, out: Path, codes: list[int]) -> list[str]:
        failures = []
        for sub, code in zip(("l1", "kl"), codes):
            bad, rows, summary = _read(out / sub, code, 1)
            failures += bad
            for row in rows:
                if not float(row["ratio"]) <= 1.0 + BOUND_TOL:
                    failures.append(f"{sub}: ratio {row['ratio']} exceeds 1")
            if summary and not summary.get("ratio", math.inf) <= 1.0 + BOUND_TOL:
                failures.append(f"{sub}: summary ratio {summary.get('ratio')} exceeds 1")
            if not (out / sub / "best_instance.json").is_file():
                failures.append(f"{sub}: best_instance.json missing")
        return failures


def bayes_risk(priors: np.ndarray, masses: np.ndarray, cost: np.ndarray) -> float:
    """``sum_x min_j sum_i c[i, j] g_i D_i(x)``, written independently of the library."""
    weighted = priors[:, None] * masses
    return float((weighted.T @ cost).min(axis=1).sum())


def _check_pipeline(out: Path, code: int, grid: tuple[int, ...], risk_opt: float) -> list[str]:
    bad, rows, summary = _read(out, code, PIPELINE_TRIALS * len(grid))
    for row in rows:
        got = float(row["risk_opt"])
        if abs(got - risk_opt) > RISK_RTOL * max(1.0, abs(risk_opt)):
            bad.append(f"n={row['n']} trial {row['trial']}: risk_opt {got!r}, Bayes risk is {risk_opt!r}")
        elif row["satisfied"] != "True":
            bad.append(f"n={row['n']} trial {row['trial']}: bound not satisfied")
    per_n = summary.get("per_n", [])
    if summary and [entry.get("n") for entry in per_n] != list(grid):
        bad.append(f"summary covers n={[entry.get('n') for entry in per_n]}, expected {list(grid)}")
    for entry in per_n:
        if entry.get("satisfied_fraction") != 1.0:
            bad.append(f"n={entry.get('n')}: satisfied_fraction {entry.get('satisfied_fraction')}")
    return bad


@dataclass(frozen=True)
class PacDeep:
    """PAC pipeline from a config file: small domain, sample sizes up to 1e5.

    k=3 classes on m=16 atoms with a random cost matrix. The estimator's
    per-sample Python loop dominates; ``pdfa`` does nothing.
    """

    n_grid: tuple[int, ...] = (1000, 10000, 100000)
    name = "pac-deep"
    unit = "trials"
    pass_s = 3.1
    k = 3
    m = 16

    @property
    def items(self) -> int:
        return PIPELINE_TRIALS * len(self.n_grid)

    def _config(self, rng: np.random.Generator) -> dict:
        priors = rng.uniform(0.2, 1.0, self.k)
        priors /= priors.sum()
        masses = rng.dirichlet(np.ones(self.m), self.k)
        cost = rng.uniform(0.5, 2.0, (self.k, self.k))
        np.fill_diagonal(cost, 0.0)
        atoms = [f"x{i}" for i in range(self.m)]
        return {
            "priors": priors.tolist(),
            "classes": [{"atoms": atoms, "mass": row.tolist()} for row in masses],
            "cost": cost.tolist(),
            "sample_size": self.n_grid[-1],
            "trials": PIPELINE_TRIALS,
            "epsilon_target": 0.1,
            "delta_target": 0.05,
            "seed": 0,
            "laplace": None,
            "n_grid": list(self.n_grid),
        }

    def prepare(self, rng: np.random.Generator, out: Path) -> list[list[str]]:
        config = self._config(rng)
        seed = str(int(rng.integers(0, 2**31)))
        (out / "config.json").write_text(json.dumps(config))
        return [["pipeline", "--config", str(out / "config.json"), "--seed", seed,
                 "--out-dir", str(out / "pipeline")]]

    def check(self, out: Path, codes: list[int]) -> list[str]:
        config = json.loads((out / "config.json").read_text())
        risk_opt = bayes_risk(
            np.asarray(config["priors"]),
            np.asarray([c["mass"] for c in config["classes"]]),
            np.asarray(config["cost"]),
        )
        return _check_pipeline(out / "pipeline", codes[0], self.n_grid, risk_opt)


def random_pdfa(rng: np.random.Generator) -> dict:
    """A 3-state binary PDFA in the CLI's JSON form; every numerator is at least 1."""
    states, precision = 3, 8
    scale = 1 << precision
    table = []
    for _ in range(states):
        stop = int(rng.integers(scale // 10, scale // 3))
        a = int(rng.integers(1, scale - stop))
        trans = {
            "a": {"p": a / scale, "to": int(rng.integers(0, states))},
            "b": {"p": (scale - stop - a) / scale, "to": int(rng.integers(0, states))},
        }
        table.append({"stop": stop / scale, "trans": trans})
    return {"n": states, "alphabet": ["a", "b"], "precision": precision, "initial": 0, "states": table}


def truncated_mass(machine: dict, max_len: int) -> np.ndarray:
    """Masses of all strings up to ``max_len`` in length-then-lexicographic order, then overflow."""
    alphabet = machine["alphabet"]
    n = machine["n"]
    stop = np.array([s["stop"] for s in machine["states"]])
    prob = np.zeros((n, len(alphabet)))
    target = np.repeat(np.arange(n)[:, None], len(alphabet), axis=1)
    for q, state in enumerate(machine["states"]):
        for j, sym in enumerate(alphabet):
            if sym in state["trans"]:
                prob[q, j] = state["trans"][sym]["p"]
                target[q, j] = state["trans"][sym]["to"]
    states = np.array([machine["initial"]])
    paths = np.array([1.0])
    levels = []
    for length in range(max_len + 1):
        levels.append(paths * stop[states])
        if length < max_len:
            paths = (paths[:, None] * prob[states]).ravel()
            states = target[states].ravel()
    mass = np.concatenate(levels)
    return np.append(mass, max(0.0, 1.0 - float(mass.sum())))


@dataclass(frozen=True)
class PdfaWide:
    """PAC pipeline over two PDFA sources truncated at length 16.

    131,073 atoms per class and small samples: ``truncate``, ``Domain``
    equality on long atom tuples, the full-width L1/KL/argmin/risk
    kernels and the manifest write (which embeds every class mass) carry
    the time; the estimator is cheap.
    """

    n_grid: tuple[int, ...] = (100, 1000)
    max_len: int = 16
    name = "pdfa-wide"
    unit = "trials"
    pass_s = 3.5

    @property
    def items(self) -> int:
        return PIPELINE_TRIALS * len(self.n_grid)

    def prepare(self, rng: np.random.Generator, out: Path) -> list[list[str]]:
        paths = []
        for name in ("pdfa_a.json", "pdfa_b.json"):
            (out / name).write_text(json.dumps(random_pdfa(rng)))
            paths.append(f"pdfa:{out / name}")
        seed = str(int(rng.integers(0, 2**31)))
        return [["pipeline", "--source", ",".join(paths), "--truncate", str(self.max_len),
                 "--n-grid", ",".join(str(n) for n in self.n_grid), "--trials", str(PIPELINE_TRIALS),
                 "--seed", seed, "--out-dir", str(out / "pipeline")]]

    def check(self, out: Path, codes: list[int]) -> list[str]:
        masses = np.stack([
            truncated_mass(json.loads((out / name).read_text()), self.max_len)
            for name in ("pdfa_a.json", "pdfa_b.json")
        ])
        k = len(masses)
        risk_opt = bayes_risk(np.full(k, 1.0 / k), masses, np.ones((k, k)) - np.eye(k))
        return _check_pipeline(out / "pipeline", codes[0], self.n_grid, risk_opt)


WORKLOADS = {w.name: w for w in (Sweep(), Tightness(), PacDeep(), PdfaWide())}
