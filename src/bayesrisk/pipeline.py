"""End-to-end PAC classification trials.

One trial: draw a labeled sample from the true source (label by prior,
atom by that class's distribution), split it by label, estimate each
class distribution by add-lambda counting over the known domain, build
the plug-in predictor from the estimates and the true priors, and score
its exact excess risk by full summation. The experiment layer repeats
trials over a grid of sample sizes and reports how often the excess
misses the (epsilon, delta) target, plus the achieved per-class
divergences.

Every trial also re-checks the relevant risk bound at the divergences it
actually achieved; that check is an unconditional theorem consequence,
so it must hold in 100% of trials, not merely 1 - delta of them.

Trials draw from generators spawned deterministically off the master
seed, so runs are reproducible and trials could be evaluated in
parallel; aggregation is a sequential reduction over the trial index.
Labels and atoms are drawn by inverse CDF, rebuilt on every draw: the
same algorithm, and so the same draws, as ``Generator.choice`` with
``p=``, without re-validating masses the source has already checked.

A trial runs on raw arrays in one workspace per experiment, scored in
either mode by ``bounds._plugin_risk``: a cost-mode trial whose classes
have full support allocates no m-sized array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .bounds import BoundReport, _optimal_risk, _plugin_risk, _theorem_report
from .classify import CostMatrix, LabeledSource, _workspace, as_cost_array
from .distributions import Distribution, Domain, _draw_indices, _exact_unit_mass
from .distributions import _kl_on_support, _l1_distance
from .pdfa import Pdfa, truncate_all


@dataclass(frozen=True)
class TrialConfig:
    """Ground truth, estimator, and targets for a batch of trials.

    ``cost`` selects the mode: a matrix means cost loss, ``None`` means
    log loss. ``laplace`` is the add-lambda estimator weight; left unset
    it defaults to 0 in cost mode and 1 in log-loss mode (log loss needs
    estimates with full support).
    """

    source: LabeledSource
    cost: Optional[CostMatrix]
    sample_size: int
    trials: int
    epsilon_target: float
    delta_target: float
    seed: int = 0
    laplace: Optional[float] = None
    n_grid: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.sample_size < 1:
            raise ValueError("sample_size must be at least 1")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        _check_laplace(self.resolved_laplace)
        if not self.epsilon_target > 0.0:
            raise ValueError("epsilon_target must be positive")
        if not 0.0 < self.delta_target < 1.0:
            raise ValueError("delta_target must lie in (0, 1)")
        if self.n_grid is not None:
            if not self.n_grid or any(n < 1 for n in self.n_grid):
                raise ValueError("n_grid entries must be positive")
            object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))

    @property
    def log_loss_mode(self) -> bool:
        return self.cost is None

    @property
    def resolved_laplace(self) -> float:
        if self.laplace is not None:
            return float(self.laplace)
        return 1.0 if self.log_loss_mode else 0.0


@dataclass(frozen=True)
class TrialOutcome:
    """Split sizes, achieved per-class divergences, and the bound check."""

    counts: tuple[int, ...]
    l1_per_class: tuple[float, ...]
    kl_per_class: tuple[float, ...]
    report: BoundReport

    @property
    def excess(self) -> float:
        return self.report.excess

    @property
    def satisfied(self) -> bool:
        return self.report.satisfied


def _check_laplace(laplace: float) -> None:
    if laplace < 0.0:
        raise ValueError("laplace weight must be non-negative")
    if not math.isfinite(laplace):
        raise ValueError("laplace weight must be finite")


def empirical_estimator(
    samples: Iterable, domain: Domain, laplace: float = 0.0
) -> Distribution:
    """Add-lambda frequency estimate over the known domain.

    ``mass(x) = (count(x) + laplace) / (len(samples) + laplace * m)``;
    with ``laplace == 0`` and no samples the estimate defaults to uniform.
    Samples may be atom identifiers or atom indices in ``[0, m)``.
    """
    _check_laplace(laplace)
    m = domain.size
    idx = np.fromiter(
        (s if isinstance(s, (int, np.integer)) else domain.index(s) for s in samples),
        dtype=np.int64,
    )
    if idx.size and (idx.min() < 0 or idx.max() >= m):
        raise ValueError(f"sample index out of range: atom indices must lie in [0, {m})")
    return Distribution(domain, _estimate(np.empty(m), idx, float(laplace)))


def _estimate(mass: np.ndarray, idx: np.ndarray, laplace: float) -> np.ndarray:
    """Write the add-lambda estimate of the atom indices ``idx`` into ``mass``, unnormalized."""
    mass.fill(0.0)
    np.add.at(mass, idx, 1.0)
    denom = idx.size + laplace * mass.size
    if denom == 0.0:
        mass.fill(1.0 / mass.size)
    else:
        mass += laplace
        mass /= denom
    return mass


def run_trial(
    config: TrialConfig, rng: np.random.Generator, sample_size: Optional[int] = None
) -> TrialOutcome:
    """One sample-split-estimate-classify round with exact scoring.

    A class that drew no samples falls back to the uniform estimate, so
    degenerate splits still produce a total predictor.
    """
    n = config.sample_size if sample_size is None else int(sample_size)
    ws = _workspace(config.source.k, config.source.domain.size)
    return _trial(config, rng, n, _optimal_risk(config.source, config.cost, ws), ws)


def _trial(config: TrialConfig, rng: np.random.Generator, n: int, risk_opt: float, ws) -> TrialOutcome:
    """:func:`run_trial` at sample size ``n``, given the optimal risk, on the workspace ``ws``."""
    source = config.source
    ests, _, _, row, mask = ws
    counts = np.bincount(_draw_indices(source.priors, rng, n), minlength=source.k)
    for d, c, est in zip(source.class_dists, counts, ests):
        _estimate(est, _draw_indices(d.mass, rng, c, row), config.resolved_laplace)
        _exact_unit_mass(est, float(est.sum()))
    pairs = tuple(zip((d.mass for d in source.class_dists), ests))
    l1s = tuple(_l1_distance(p, q, row) for p, q in pairs)
    kls = tuple(_kl_on_support(p, q, np.greater(p, 0.0, out=mask), row) for p, q in pairs)
    costs = None if config.cost is None else as_cost_array(config.cost, source.k)
    risk_plugin = _plugin_risk(source.priors, source.weighted_mass, ests, costs, ws)
    report = _theorem_report(source, config.cost, kls if costs is None else l1s, risk_opt, risk_plugin)
    return TrialOutcome(tuple(int(c) for c in counts), l1s, kls, report)


TRIAL_CSV_COLUMNS = (
    "n",
    "trial",
    "excess",
    "bound",
    "satisfied",
    "risk_opt",
    "risk_plugin",
    "max_l1",
    "max_kl",
    "counts",
)


@dataclass(frozen=True)
class ExperimentSummary:
    """Per-trial rows plus per-sample-size aggregates."""

    mode: str
    n_grid: tuple[int, ...]
    trials: int
    rows: tuple[dict, ...]
    per_n: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "n_grid": list(self.n_grid),
            "trials": self.trials,
            "per_n": [dict(entry) for entry in self.per_n],
        }

    def csv_rows(self) -> list[list]:
        return [[row[col] for col in TRIAL_CSV_COLUMNS] for row in self.rows]


def _quantile(values: Sequence[float], q: float) -> float:
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return math.inf
    return float(np.quantile(finite, q))


def run_pac_experiment(config: TrialConfig) -> ExperimentSummary:
    """Repeat trials across the sample-size grid and aggregate.

    Needs at least 30 trials per grid point for the reported violation
    fraction (the empirical delta) to mean anything.
    """
    if config.trials < 30:
        raise ValueError("at least 30 trials are needed for a meaningful delta estimate")
    grid = config.n_grid or (config.sample_size,)
    streams = np.random.SeedSequence(config.seed).spawn(len(grid) * config.trials)
    ws = _workspace(config.source.k, config.source.domain.size)
    risk_opt = _optimal_risk(config.source, config.cost, ws)
    rows = []
    per_n = []
    for gi, n in enumerate(grid):
        outcomes = []
        for t in range(config.trials):
            rng = np.random.default_rng(streams[gi * config.trials + t])
            outcome = _trial(config, rng, n, risk_opt, ws)
            outcomes.append(outcome)
            rows.append(
                {
                    "n": n,
                    "trial": t,
                    **outcome.report.to_dict(),
                    "max_l1": max(outcome.l1_per_class),
                    "max_kl": max(outcome.kl_per_class),
                    "counts": "|".join(str(c) for c in outcome.counts),
                }
            )
        excesses = [o.report.excess for o in outcomes]
        max_l1s = [max(o.l1_per_class) for o in outcomes]
        max_kls = [max(o.kl_per_class) for o in outcomes]
        per_n.append(
            {
                "n": n,
                "violation_fraction": float(
                    np.mean([e > config.epsilon_target for e in excesses])
                ),
                "satisfied_fraction": float(np.mean([o.report.satisfied for o in outcomes])),
                "mean_excess": float(np.mean(excesses)),
                "median_excess": float(np.median(excesses)),
                "l1_q50": _quantile(max_l1s, 0.5),
                "l1_q90": _quantile(max_l1s, 0.9),
                "kl_q50": _quantile(max_kls, 0.5),
                "kl_q90": _quantile(max_kls, 0.9),
            }
        )
    mode = "logloss" if config.log_loss_mode else "cost"
    return ExperimentSummary(mode, tuple(grid), config.trials, tuple(rows), tuple(per_n))


PdfaSpec = tuple[tuple[Pdfa, ...], int]


def config_to_dict(config: TrialConfig, pdfa: Optional[PdfaSpec] = None) -> dict:
    """JSON form of the config; :func:`config_from_dict` reads it back bit for bit.

    ``pdfa = (machines, max_len)`` says the class distributions are
    ``truncate_all(machines, max_len)``: the machines and ``truncate`` then
    stand in for the class masses, whose count grows exponentially with
    ``max_len``.
    """
    if pdfa is None:
        source = config.source.to_dict()
    else:
        source = {
            "priors": [float(g) for g in config.source.priors],
            "machines": [a.to_dict() for a in pdfa[0]],
            "truncate": pdfa[1],
        }
    return {
        **source,
        "cost": config.cost.to_list() if config.cost is not None else None,
        "sample_size": config.sample_size,
        "trials": config.trials,
        "epsilon_target": config.epsilon_target,
        "delta_target": config.delta_target,
        "seed": config.seed,
        "laplace": config.laplace,
        "n_grid": list(config.n_grid) if config.n_grid else None,
    }


def config_from_dict(data: dict) -> TrialConfig:
    return _config_and_spec(data)[0]


def _config_and_spec(data: dict) -> tuple[TrialConfig, Optional[PdfaSpec]]:
    """The config of a :func:`config_to_dict` dict, plus its ``(machines, max_len)``
    if the classes are PDFA-sourced (else None), each machine parsed once."""
    pdfa = None
    if "machines" in data:
        pdfa = tuple(Pdfa.from_dict(a) for a in data["machines"]), int(data["truncate"])
        source = LabeledSource(np.asarray(data["priors"], dtype=float), truncate_all(*pdfa))
    else:
        source = LabeledSource.from_dict(data)
    config = TrialConfig(
        source=source,
        cost=CostMatrix(data["cost"]) if data.get("cost") else None,
        sample_size=int(data["sample_size"]),
        trials=int(data["trials"]),
        epsilon_target=float(data["epsilon_target"]),
        delta_target=float(data["delta_target"]),
        seed=int(data.get("seed", 0)),
        laplace=None if data.get("laplace") is None else float(data["laplace"]),
        n_grid=tuple(data["n_grid"]) if data.get("n_grid") else None,
    )
    return config, pdfa
