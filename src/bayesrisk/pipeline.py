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
Labels and atoms are drawn by inverse CDF: the same algorithm, and so the
same draws, as ``Generator.choice`` with ``p=``, without re-validating
masses the source has already checked. Trials run in blocks that make
every draw first; each class's CDF is then built once per block, never
held for the whole experiment.

A trial runs on raw arrays in one workspace per experiment, scored in
either mode by ``bounds._plugin_risk``: a cost-mode trial whose classes
have full support allocates no m-sized array. An estimate without
add-lambda smoothing is zero off the atoms its draws hit (its sorted distinct
draws); with at most one draw per 16 of 4,096 or more atoms the kernels work
only there. Each sum runs over the full array, or, on a wide domain whose hits
fall on few of numpy's 128-atom leaves, is rebuilt from the leaf sums of numpy's
summation tree (``distributions._few_leaves``), so each output keeps its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Optional, Sequence

import numpy as np

from .bounds import BoundReport, _plugin_risk, _theorem_report
from .classify import CostMatrix, LabeledSource, _workspace, as_cost_array
from .distributions import Distribution, Domain, _draw_indices, _exact_unit_mass, _json_float, _json_int
from .distributions import _kl_on_support, _l1_distance, _leaf_sums, _sorted_set
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
        for name in ("sample_size", "trials"):
            if _json_int(getattr(self, name), name) < 1:
                raise ValueError(f"{name} must be at least 1")
        _json_int(self.seed, "seed")
        _check_laplace(self.resolved_laplace)
        if not _json_float(self.epsilon_target, "epsilon_target") > 0.0:
            raise ValueError("epsilon_target must be positive")
        if not 0.0 < _json_float(self.delta_target, "delta_target") < 1.0:
            raise ValueError("delta_target must lie in (0, 1)")
        if self.n_grid is not None:
            n_grid = tuple(_json_int(n, "n_grid entry") for n in self.n_grid)
            if not n_grid or any(n < 1 for n in n_grid):
                raise ValueError("n_grid entries must be positive")
            object.__setattr__(self, "n_grid", n_grid)

    @property
    def log_loss_mode(self) -> bool:
        return self.cost is None

    @property
    def resolved_laplace(self) -> float:
        if self.laplace is not None:
            return float(_json_float(self.laplace, "laplace"))
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
    Samples are the domain's atom identifiers or integer (never bool) atom indices in ``[0, m)``.
    """
    _check_laplace(_json_float(laplace, "laplace"))
    m = domain.size
    try:  # Domain.index names an unknown atom in its KeyError
        index = (domain.index(s) if isinstance(s, str) else _json_int(s, "sample atom index") for s in samples)
        idx = np.fromiter(index, dtype=np.int64)
    except KeyError as exc:
        raise ValueError(f"sample {exc.args[0]}") from None
    if idx.size and (idx.min() < 0 or idx.max() >= m):
        raise ValueError(f"sample index out of range: atom indices must lie in [0, {m})")
    _estimate(mass := np.empty(m), idx, float(laplace))
    return Distribution(domain, mass)


def _estimate(mass: np.ndarray, idx: np.ndarray, laplace: float, zero=slice(None)):
    """Write the add-lambda estimate of the atom indices ``idx`` into ``mass``, zero outside the atom
    set ``zero``, unnormalized. Return its atom set: without smoothing and with at most one draw per
    16 of ``_SPARSE_ATOMS`` or more atoms, the sorted distinct draws, which are the atoms of its non-zero
    entries; else every atom, ``slice(None)``. Only then do the hits' indexing pay for the passes saved;
    a sum over the estimate's row is rebuilt from the leaves of its hits only where they are few enough
    (``distributions._few_leaves``)."""
    mass[zero] = 0.0
    np.add.at(mass, idx, 1.0)
    denom = idx.size + laplace * mass.size
    if denom == 0.0:
        mass.fill(1.0 / mass.size)
        return slice(None)
    if laplace or mass.size < _SPARSE_ATOMS or 16 * idx.size > mass.size:
        if laplace:  # counts are >= +0.0, so adding 0.0 would change no bit
            mass += laplace
        mass /= denom
        return slice(None)
    at = _sorted_set(idx)
    mass[at] /= denom
    return at


# Most draws (trials times sample size) in a block of trials; a larger trial is a block of its own.
_BLOCK_DRAWS = 1 << 15
# Fewest atoms at which an estimate goes sparse: a trial at k = 2-3, n = 10-100 took 1.2-1.5x the dense
# one at 1,024-2,048 atoms, about as long at 4,096 and 0.8-0.9x at 8,192 (timed on pipeline._block, 2-CPU VM).
_SPARSE_ATOMS = 4096


def run_trial(
    config: TrialConfig, rng: np.random.Generator, sample_size: Optional[int] = None
) -> TrialOutcome:
    """One sample-split-estimate-classify round with exact scoring.

    A class that drew no samples falls back to the uniform estimate, so
    degenerate splits still produce a total predictor.
    """
    n = config.sample_size if sample_size is None else int(sample_size)
    return next(_block(config, [rng], n, *_fixed(config)))


def _fixed(config: TrialConfig):
    """An experiment's workspace, cost array (``None`` under log loss), optimal risk (:func:`_plugin_risk` of
    the true classes), per class its mass, support (``None`` if full), support size and leaf sums, and the
    leaf sums of the label-0 weighted costs: what a sparse trial's sums start from, taken only if an
    estimate can go sparse (``None`` else)."""
    source, m = config.source, config.source.domain.size
    ws = _workspace(source.k, m)
    sparse = not config.resolved_laplace and m >= _SPARSE_ATOMS
    classes = tuple((d.mass, None if d.mass.min() > 0.0 else d.mass > 0.0, np.count_nonzero(d.mass),
                     _leaf_sums(m, d.mass) if sparse else None) for d in source.class_dists)
    true = np.stack([d.mass for d in source.class_dists], out=ws[0])
    costs = None if config.cost is None else as_cost_array(config.cost, source.k)
    risk_opt = _plugin_risk(source.priors, source.weighted_mass, true, costs, ws)
    label_0 = None if costs is None or not sparse else np.multiply(costs[:, :1], source.weighted_mass, out=ws[1])
    return ws, costs, risk_opt, classes, None if label_0 is None else _leaf_sums(label_0.size, label_0.reshape(-1))


def _block(config: TrialConfig, rngs: Sequence[np.random.Generator], n: int, ws, costs, risk_opt, classes, costs_base):
    """:func:`run_trial`'s outcome at sample size ``n`` for each generator of ``rngs``, given :func:`_fixed`.
    Every draw comes first, each generator making one trial's calls in its order (labels, then class
    0, class 1, ...) into one buffer; each class's CDF, built once in the workspace row, answers the
    block's draws of that class. Then each trial's arithmetic runs on the workspace."""
    source, laplace = config.source, config.resolved_laplace
    ests, _, _, row, _ = ws
    uniforms = np.empty((len(rngs), n))
    for rng, trial_uniforms in zip(rngs, uniforms):
        rng.random(out=trial_uniforms)
    counts = np.array([np.bincount(labels, minlength=source.k) for labels in _draw_indices(source.priors, uniforms)])
    flat, samples = uniforms.reshape(-1), []
    for d, class_counts in zip(source.class_dists, counts.T):
        ends = class_counts.cumsum()
        for rng, start, end in zip(rngs, ends - class_counts, ends):
            rng.random(out=flat[start:end])
        samples.append(np.split(_draw_indices(d.mass, flat[: ends[-1]], row), ends[:-1]))
    del uniforms, flat
    atoms = [slice(None)] * source.k  # each estimate's atom set; the workspace rows hold anything
    for t, trial_counts in enumerate(counts.tolist()):
        for i, (est, idx) in enumerate(zip(ests, samples)):
            atoms[i] = _estimate(est, idx[t], laplace, atoms[i])
            _exact_unit_mass(est, atoms[i])
        l1s = tuple(_l1_distance(p, q, row, at, base) for (p, _, _, base), q, at in zip(classes, ests, atoms))
        kls = tuple(_kl_on_support(p, q, support, row, at, size)
                    for (p, support, size, _), q, at in zip(classes, ests, atoms))
        hits = None if any(isinstance(at, slice) for at in atoms) else atoms
        risk_plugin = _plugin_risk(source.priors, source.weighted_mass, ests, costs, ws, hits, costs_base)
        report = _theorem_report(source.priors, config.cost, kls if costs is None else l1s, risk_opt, risk_plugin)
        yield TrialOutcome(tuple(trial_counts), l1s, kls, report)


@dataclass(frozen=True)
class ExperimentSummary:
    """Per-trial rows plus per-sample-size aggregates.

    ``rows`` are the report's rows, one dict per trial in grid order, their
    keys the CSV columns in order; ``per_n`` is aggregated from them.
    ``to_dict`` is every field but ``rows``.
    """

    mode: str
    n_grid: tuple[int, ...]
    trials: int
    rows: tuple[dict, ...]
    per_n: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "rows"}


def _quantile(values: Sequence[float], q: float) -> float:
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return math.inf
    return float(np.quantile(finite, q))


def run_pac_experiment(config: TrialConfig) -> ExperimentSummary:
    """Repeat trials across the sample-size grid and aggregate.

    Every grid point runs first, each trial making one row; the workspace
    is then freed, and ``per_n`` is aggregated from those rows, so the
    report and the summary come from one source. Needs at least 30 trials
    per grid point for the reported violation fraction (the empirical
    delta) to mean anything.
    """
    if config.trials < 30:
        raise ValueError("at least 30 trials are needed for a meaningful delta estimate")
    grid = config.n_grid or (config.sample_size,)
    streams = np.random.SeedSequence(config.seed).spawn(len(grid) * config.trials)
    fixed = _fixed(config)
    rows = []
    for gi, n in enumerate(grid):
        point = streams[gi * config.trials : (gi + 1) * config.trials]
        per_block = max(1, _BLOCK_DRAWS // n)
        for start in range(0, config.trials, per_block):
            rngs = [np.random.default_rng(s) for s in point[start : start + per_block]]
            for t, outcome in enumerate(_block(config, rngs, n, *fixed), start):
                report = outcome.report
                rows.append({
                    "n": n,
                    "trial": t,
                    "excess": report.excess,
                    "bound": report.bound,
                    "satisfied": report.satisfied,
                    "risk_opt": report.risk_opt,
                    "risk_plugin": report.risk_plugin,
                    "max_l1": max(outcome.l1_per_class),
                    "max_kl": max(outcome.kl_per_class),
                    "counts": "|".join(str(c) for c in outcome.counts),
                })
    del fixed  # np.median's first call imports numpy.ma, which must not add to the workspace's peak
    per_n = []
    for gi, n in enumerate(grid):
        point_rows = rows[gi * config.trials : (gi + 1) * config.trials]
        excesses, max_l1s, max_kls = ([row[key] for row in point_rows] for key in ("excess", "max_l1", "max_kl"))
        per_n.append(
            {
                "n": n,
                "violation_fraction": float(np.mean([e > config.epsilon_target for e in excesses])),
                "satisfied_fraction": float(np.mean([row["satisfied"] for row in point_rows])),
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
        pdfa = tuple(Pdfa.from_dict(a) for a in data["machines"]), _json_int(data["truncate"], "truncate")
        source = LabeledSource(np.asarray(_json_float(data["priors"], "priors"), dtype=float), truncate_all(*pdfa))
    else:
        source = LabeledSource.from_dict(data)
    config = TrialConfig(
        source=source,
        cost=None if data.get("cost") is None else CostMatrix(_json_float(data["cost"], "cost")),
        sample_size=data["sample_size"],
        trials=data["trials"],
        epsilon_target=float(_json_float(data["epsilon_target"], "epsilon_target")),
        delta_target=float(_json_float(data["delta_target"], "delta_target")),
        seed=data.get("seed", 0),
        laplace=None if data.get("laplace") is None else float(_json_float(data["laplace"], "laplace")),
        n_grid=None if data.get("n_grid") is None else tuple(data["n_grid"]),
    )
    return config, pdfa
