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

Trials draw from generators spawned deterministically off the master seed, so
runs are reproducible and trials could be evaluated in parallel. Labels and
atoms are drawn by inverse CDF: the same algorithm, and so the same draws, as
``Generator.choice`` with ``p=``, without re-validating masses the source has
already checked. Trials run in blocks that make every draw first; each class's
CDF is then built once per block, in the experiment's one CDF row, and answers
a trial's uniforms of that class sorted, so its indices come out sorted. Only
their counts are read, so sorting moves no output. A block gives its trials as
columns, a row each, bounded at once by ``bounds._bound_columns`` from their
prior-weighted divergences, as a sweep block is (no bound is taken here); the
report's columns join the blocks', and ``per_n`` is taken from them.

Every estimate is counted once, from the runs of its sorted draws: one pass per
class over a block's draws (``_hits``) gives every trial's hits (its distinct
draws), its add-lambda entries there and its value off them;
``empirical_estimator`` sorts its samples and takes the same pass. A trial on
every atom fills its estimates from those and runs on raw arrays in one
workspace per experiment (the first such trial makes it around the CDF row),
scored by ``bounds._plugin_risk``: a cost-mode trial whose classes have full
support allocates no m-sized array. On ``_BATCH_ATOMS`` atoms or more in cost
mode without smoothing, the pass also tells whether each estimate is sparse (at
most one draw per 16 atoms) with its hits on few enough of numpy's 128-atom
leaves. A cost-mode trial whose every estimate is joins a batch
(``_sparse_batch``): its sums are rebuilt from the leaf sums of numpy's
summation tree (``_pairwise_tree``), one tree pass a batch, its KLs are one
ragged sum at its hits, its labels come from one cost product, and
``_BATCH_FLOATS`` caps each batch array. The optimal risk and base sums are
then built leaf by leaf, the true source's Bayes labels found once per atom into
one byte-sized row (``_true_labels``), so a fully batched run holds no m-float
array but the class masses and the CDF row.
Each output keeps its bits (``test_sparse_trials_equal_the_dense_kernels``).
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .bounds import BoundReport, _bound_columns, _plugin_risk
from .classify import CostMatrix, LabeledSource, _bayes_labels, _workspace, as_cost_array
from .distributions import Distribution, Domain, _draw_indices, _exact_unit_mass, _json_float, _json_int
from .distributions import _kl_on_support, _kl_terms, _l1_distance, _run_sums, _unit_sums
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
        for name in ("sample_size", "trials", "seed"):  # the integers, as Python ints
            object.__setattr__(self, name, _json_int(getattr(self, name), name))
        if self.seed < 0:  # numpy seeds no generator from it
            raise ValueError("seed must be non-negative")
        if self.sample_size < 1:
            raise ValueError("sample_size must be at least 1")
        if self.trials < 30:  # fewer per grid point leave the violation fraction (the empirical delta) meaningless
            raise ValueError("at least 30 trials are needed for a meaningful delta estimate")
        if self.cost is not None:  # a cost for another class count is refused here, not in the run
            as_cost_array(self.cost, self.source.k)
        for name in ("laplace", "epsilon_target", "delta_target"):  # the reals, as Python floats; laplace may be unset
            if name != "laplace" or self.laplace is not None:
                object.__setattr__(self, name, float(_json_float(getattr(self, name), name)))
        _check_laplace(self.resolved_laplace)
        if not self.epsilon_target > 0.0:
            raise ValueError("epsilon_target must be positive")
        if not 0.0 < self.delta_target < 1.0:
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
            return self.laplace
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
    atoms, entries, _, off, _ = _hits(m, np.sort(idx), np.array([idx.size]), float(laplace), False)
    (mass := np.full(m, off[0]))[atoms] = entries
    return Distribution(domain, mass)


def _sparse(n: np.ndarray, m: int):  # whether each unsmoothed estimate of n[t] draws has at most one per 16 atoms
    return (0 < 16 * n) & (16 * n <= m)


# Most draws (trials times sample size) in a block of trials; a larger trial is a block of its own.
_BLOCK_DRAWS = 1 << 15
# Most floats in a batch's slot rows, or in its arrays of hits (about 8 of k floats a hit); table in CHANGES.md.
_BATCH_FLOATS = 1 << 15


# numpy sums a float row of more than _LEAF entries as the sum of its first n // 2 entries, rounded down to
# a multiple of _LANES, plus the sum of the rest; a leaf, a row of at most _LEAF, it sums in _LANES
# interleaved accumulators (Higham, Accuracy and Stability of Numerical Algorithms, section 4.2).
_LEAF, _LANES = 128, 8


@lru_cache(maxsize=16)  # an experiment sums rows of two lengths, m and k * m
def _pairwise_tree(n: int, built=None):
    """numpy's summation tree of a float row of length ``n``: its height, and its leaves' starts, lengths
    and slots in a perfect binary tree of that height, summed pairwise level by level. A subtree less tall
    than its level takes the left half below it; the free slots hold 0.0, which adds no bit to any sum of
    numpy's, never -0.0 (its sums start from 0.0). Subtrees are built once each into ``built``, not kept."""
    built = {} if built is None else built
    if n <= _LEAF:
        built[n] = 0, np.zeros(1, int), np.array([n]), np.zeros(1, int)
    elif n not in built:
        half = n // 2 // _LANES * _LANES
        (left, *lows), (right, *highs) = (_pairwise_tree.__wrapped__(size, built) for size in (half, n - half))
        height = max(left, right) + 1
        offsets = np.array([[half], [0], [1 << height - 1]])
        built[n] = height, *(np.concatenate(pair) for pair in zip(lows, highs + offsets))
    return built[n]


# A sum rebuilt from leaf sums costs about what a full pass over _TREE_ATOMS atoms costs, plus _LEAF_PASSES
# atoms of a full pass for each atom of the leaves it sums afresh (the unit-mass, L1 and cost-risk sums of
# 32,768-262,144 entries, each timed rebuilt against full pass on a 2-CPU VM).
_TREE_ATOMS, _LEAF_PASSES = 1 << 16, 6
_BATCH_ATOMS = _TREE_ATOMS + _LEAF_PASSES * _LEAF  # 66,304: no shorter row is rebuilt, no PAC trial on it batched
# Most floats in a leaf matrix of _patched_sums (_BATCH_FLOATS bounds the other arrays of a batch).
_LEAF_FLOATS = 1 << 14


def _hits(m: int, draws: np.ndarray, counts: np.ndarray, laplace: float, batch: bool):
    """Each trial's add-lambda estimate over ``m`` atoms from one class's ``draws``, a sorted run of ``counts[t]``
    draws a trial, in one pass: its hits (each run's distinct draws), its entries there, ``(count + laplace) / (n +
    laplace * m)``, each run's bounds in those, and its value off its hits, ``laplace / (n + laplace * m)`` or ``1 /
    m`` for an empty unsmoothed run: a row filled with that value and written at the hits holds the formula's bits.
    Only where trials can ``batch`` (else ``None``), whether each estimate is sparse (:func:`_sparse`) with hits on
    few enough of numpy's leaves that summing those afresh costs less than a full pass over a length-``m`` row
    (none below ``_BATCH_ATOMS`` atoms)."""
    starts = counts.cumsum() - counts
    first = _firsts(draws, starts)
    bounds, atoms, entries = first.searchsorted(np.append(starts, draws.size)), draws[first], np.empty(first.size)
    np.subtract(first[1:], first[:-1], out=entries[:-1])  # each hit's count, then plus laplace over its denominator
    entries[-1:] = draws.size - first[-1:]
    del first
    denom = counts + laplace * m
    entries += laplace  # counts are >= +0.0, so adding 0.0 changes no bit
    entries /= denom.repeat(np.diff(bounds))
    off, few = np.divide(laplace, denom, out=np.full(counts.size, 1.0 / m), where=denom > 0.0), None
    if batch:
        leaves = np.diff(_firsts(_pairwise_tree(m)[1].searchsorted(atoms, "right"), bounds[:-1]).searchsorted(bounds))
        few = _sparse(counts, m) & (leaves <= (m - _TREE_ATOMS) // (_LEAF_PASSES * _LEAF))
    return atoms, entries, bounds, off, few


def _firsts(values: np.ndarray, starts: np.ndarray = np.zeros(1, np.intp)) -> np.ndarray:
    """The positions in ``values`` of each run's first entry, runs starting at ``starts`` (one run if not given), and
    of each other entry that differs from the one before it."""
    first = np.ones(values.size, bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    first[starts[starts < values.size]] = True
    return np.flatnonzero(first)


def _leaf_sums(n: int, row) -> np.ndarray:
    """numpy's sums of every leaf of the length-``n`` float ``row``, or of the row that the :func:`_patched_sums`
    background ``row`` makes leaf by leaf, at their slots."""
    height, starts = _pairwise_tree(n)[:2]
    none, out = np.zeros(len(starts) + 1, np.intp), np.zeros(1 << height)  # none: the plan of a row changed nowhere
    background = row if callable(row) else lambda _, *at: _on_leaves(row, *at)
    _patched_sums(n, (none[1:], np.arange(len(starts)), none, none[:0]), none[:0], out[None], background)
    return out


def _tree_sum(sums: np.ndarray) -> np.ndarray:
    """numpy's sum of each row whose leaf sums, at their slots, are the last axis of ``sums``."""
    while sums.shape[-1] > 1:
        sums = sums[..., ::2] + sums[..., 1::2]
    return sums[..., 0]


def _on_leaves(row: np.ndarray, starts: np.ndarray, length: int) -> np.ndarray:
    """The contiguous 1-D ``row`` on the runs of ``length`` atoms at ``starts``, a run a row."""
    return np.ndarray((row.size - length + 1, length), row.dtype, row, 0, row.strides * 2)[starts]


def _leaf_plan(n: int, rows: np.ndarray, atoms: np.ndarray):
    """The leaves of length-``n`` rows that hold ``atoms``, sorted within each of their non-decreasing ``rows``: the
    row and leaf of each (row, leaf) pair, each pair's first atom and then the atom count, each atom's offset."""
    starts = _pairwise_tree(n)[1]
    leaf = starts.searchsorted(atoms, "right") - 1
    pair = rows * len(starts) + leaf
    first = _firsts(pair)
    return rows[first], leaf[first], np.append(first, len(atoms)), atoms - starts[leaf]


def _patched_sums(n: int, plan, values: np.ndarray, out: np.ndarray, background=None, chosen=None) -> np.ndarray:
    """numpy's sums of length-``n`` rows that are ``background(rows, starts, length)`` (zero if ``None``) but at
    the atoms of a :func:`_leaf_plan`, where they are ``values``: the plan's leaves (or those of its pairs ``chosen``)
    are summed afresh into the slot rows ``out``, at most ``_LEAF_FLOATS`` entries at a time, and joined."""
    rows, leaves, bounds, offsets = plan
    _, starts, lengths, slots = _pairwise_tree(n)
    if chosen is not None or ((size := lengths[leaves])[1:] < size[:-1]).any():  # pairs in runs of one length
        pairs = np.arange(len(leaves)) if chosen is None else chosen
        pairs = pairs[np.argsort(lengths[leaves[pairs]], kind="stable")]
        count = bounds[pairs + 1] - bounds[pairs]
        hit = np.arange(count.sum()) + np.repeat(bounds[pairs] - count.cumsum() + count, count)
        rows, leaves, bounds = rows[pairs], leaves[pairs], np.concatenate(([0], count.cumsum()))
        offsets, values = offsets[hit], values[hit]
    size = lengths[leaves]
    cuts = sorted({*range(0, len(size), _LEAF_FLOATS // _LEAF), *(np.flatnonzero(size[1:] != size[:-1]) + 1)})
    for p0, p1 in zip(cuts, [*cuts[1:], len(size)]):
        cut, leaf, length = bounds[p0 : p1 + 1], leaves[p0:p1], int(size[p0])  # the atoms from cut[0] to cut[-1]
        on_leaves = np.zeros((p1 - p0, length)) if background is None else background(rows[p0:p1], starts[leaf], length)
        on_leaves[np.arange(p1 - p0).repeat(cut[1:] - cut[:-1]), offsets[cut[0] : cut[-1]]] = values[cut[0] : cut[-1]]
        out[rows[p0:p1], slots[leaf]] = on_leaves.sum(axis=1)
        del on_leaves  # else two matrices would be alive as the next one is made
    return _tree_sum(out)


def _cost_leaves(masses, priors, costs, labels=None):
    """A background of :func:`_patched_sums`: the flattened ``(k, m)`` entries ``costs[i, label] * weighted[i, x]``
    of ``classify._cost_risk`` on its leaves, in their bits, ``weighted[i]`` being ``masses[i] * priors[i]`` and
    ``label`` the true source's Bayes label at ``x`` in the row ``labels`` (:func:`_true_labels`; 0 if ``None``). A
    leaf gathers only its own class's masses and labels and takes its costs from its class's row; a leaf across a
    class's end is made on its own: no array is longer than the leaves asked for, times k."""
    m = masses[0].size

    def on_leaves(_, starts, length):
        (of, at), entries = np.divmod(starts, m), np.empty((len(starts), length))
        across = np.flatnonzero(at > m - length)  # its atoms end class ``of`` and start the next: redone below
        at = np.minimum(at, m - length)
        for i in set(of.tolist()):
            own = of == i
            on_class = _on_leaves(masses[i], at[own], length)
            on_class *= priors[i]
            on_class *= costs[i, 0] if labels is None else costs[i].take(_on_leaves(labels, at[own], length))
            entries[own] = on_class
        for p in across:
            rows, atoms = np.divmod(starts[p] + np.arange(length), m)
            weighted = np.stack([mass[atoms] for mass in masses])[rows, np.arange(length)] * priors[rows]
            entries[p] = costs[rows, 0 if labels is None else labels[atoms]] * weighted
        return entries

    return on_leaves


def _true_labels(masses, priors, costs) -> np.ndarray:
    """The Bayes label of the weighted true classes ``masses[i] * priors[i]`` at each atom, in the smallest integer
    type that holds k - 1, from one product (``classify._gathered_scores``) per run of ``_LEAF_FLOATS`` atoms."""
    labels, step = np.empty(masses[0].size, np.min_scalar_type(len(masses) - 1)), _LEAF_FLOATS
    for lo in range(0, labels.size, step):
        weighted = np.stack([mass[lo : lo + step] * prior for mass, prior in zip(masses, priors)])
        _bayes_labels(costs, weighted, None, labels[lo : lo + step], np.empty(weighted.shape[1], labels.dtype))
    return labels


def run_trial(
    config: TrialConfig, rng: np.random.Generator, sample_size: Optional[int] = None
) -> TrialOutcome:
    """One sample-split-estimate-classify round with exact scoring.

    A class that drew no samples falls back to the uniform estimate, so
    degenerate splits still produce a total predictor.
    """
    if (n := _json_int(config.sample_size if sample_size is None else sample_size, "sample_size")) < 1:
        raise ValueError("sample_size must be at least 1")
    block = _block(config, [rng], n, *_fixed(config))
    return TrialOutcome(*(tuple(block[key][0].tolist()) for key in ("counts", "l1s", "kls")),
                        BoundReport.from_columns(block)[0])


def _fixed(config: TrialConfig):
    """An experiment's workspace (four slots, at first only the CDF row of every block, at index 2), cost array
    (``None`` under log loss), optimal risk (:func:`_plugin_risk` of the true classes), per class its mass, support
    (``None`` if full), support size and leaf sums, and the leaf sums of the flattened label-0 weighted costs: what a
    batch's sums start from, taken only where trials can batch (``None`` else). There the optimal risk and those sums
    are built leaf by leaf (:func:`_cost_leaves`) before the CDF row, and no weighted masses are made."""
    source, (k, m) = config.source, (config.source.k, config.source.domain.size)
    costs = None if config.cost is None else config.cost.costs  # its shape checked with the config
    batch = costs is not None and not config.resolved_laplace and m >= _BATCH_ATOMS
    masses = [d.mass for d in source.class_dists]
    classes = tuple((p, None if p.min() > 0.0 else p > 0.0, np.count_nonzero(p), _leaf_sums(m, p) if batch else None)
                    for p in masses)
    bayes = _cost_leaves(masses, source.priors, costs, _true_labels(masses, source.priors, costs)) if batch else None
    risk_opt = float(_tree_sum(_leaf_sums(k * m, bayes)) if batch
                     else _plugin_risk(source.weighted_mass, source.weighted_mass, costs))
    del bayes  # and its row of labels
    base = _leaf_sums(k * m, _cost_leaves(masses, source.priors, costs)) if batch else None
    return [None, None, np.empty(m), None], costs, risk_opt, classes, base


def _block(config: TrialConfig, rngs: Sequence[np.random.Generator], n: int, ws, costs, risk_opt, classes, costs_base):
    """The trials at sample size ``n`` of the generators of ``rngs``, given :func:`_fixed`, as columns: their split
    sizes ``counts`` and per-class ``l1s`` and ``kls``, ``(trials, k)`` arrays, then :func:`_bound_columns`' fields.
    Every draw comes first, each generator making one trial's calls in its order (labels, then class 0, class 1,
    ...) into one buffer; each class's CDF, built once in the CDF row, answers the block's draws of that class, each
    trial's uniforms sorted first so that its indices are. One pass per class (:func:`_hits`) counts every trial's
    estimate, and the class's draws go. Where trials can batch, the pass gives each its verdict too; a trial with
    every estimate sparse on few leaves joins a batch (:func:`_sparse_batch`), written at its trials' rows. Any
    other fills its estimates from its hits into the workspace (the first one makes it, ``[ests, scores, row,
    spare]`` around the CDF row) and runs on every atom. The block's prior-weighted divergences are bounded once."""
    source, laplace, trials = config.source, config.resolved_laplace, len(rngs)
    k, m = source.k, source.domain.size
    uniforms = np.empty((trials, n))
    for rng, trial_uniforms in zip(rngs, uniforms):
        rng.random(out=trial_uniforms)
    counts = np.array([np.bincount(labels, minlength=k) for labels in _draw_indices(source.priors, uniforms)])
    runs = np.zeros((k, trials + 1), int)  # each class's draws, trial by trial
    runs[:, 1:] = counts.T.cumsum(axis=1)
    flat, hits, runs = uniforms.reshape(-1), [], runs.tolist()
    for d, run, class_counts in zip(source.class_dists, runs, counts.T):
        for rng, start, end in zip(rngs, run, run[1:]):
            rng.random(out=flat[start:end])
            flat[start:end].sort()  # the trial's indices then come out sorted, the search walking the CDF in order
        draws = _draw_indices(d.mass, flat[: run[-1]], ws[2])
        hits.append(_hits(m, draws, class_counts, laplace, costs_base is not None))
    del uniforms, flat, trial_uniforms, draws  # the loop's last view would keep the uniforms' buffer alive
    sparse = np.logical_and.reduce([few for *_, few in hits]).tolist() if costs_base is not None else [False] * trials
    sizes = sum(np.diff(at_ends) for _, _, at_ends, *_ in hits)  # each trial's hits, over its classes
    slots, batch, batched, used = max(k << _pairwise_tree(m)[0], 1 << _pairwise_tree(k * m)[0]), [], [], 0  # slot rows
    l1s, kls, risks = np.empty((trials, k)), np.empty((trials, k)), np.empty(trials)
    for t in range(trials):
        if sparse[t]:
            charge = max(slots, 8 * k * int(sizes[t]))  # or its hits' arrays
            if batch and used + charge > _BATCH_FLOATS:  # a trial the batch has no room for ends it
                l1s[batched], kls[batched], risks[batched] = _sparse_batch(config, batch, costs, classes, costs_base)
                batch, batched, used = [], [], 0
            batch.append([(at[lo[t] : lo[t + 1]], q[lo[t] : lo[t + 1]]) for at, q, lo, *_ in hits])
            batched.append(t)
            used += charge
            continue
        if ws[0] is None:  # the first dense trial makes the workspace around the CDF row
            ws[:] = np.empty((k, m)), *_workspace((k, m), costs, row=ws[2])
        ests, row = ws[0], ws[2]
        for est, (at, q, lo, off, _) in zip(ests, hits):
            est.fill(off[t])
            est[at[lo[t] : lo[t + 1]]] = q[lo[t] : lo[t + 1]]
        _exact_unit_mass(ests)
        l1s[t] = [_l1_distance(p, q, row) for (p, *_), q in zip(classes, ests)]
        kls[t] = [_kl_on_support(p, q, support, row) for (p, support, *_), q in zip(classes, ests)]
        ests *= source.priors[:, None]
        risks[t] = _plugin_risk(source.weighted_mass, ests, costs, ws[1:])
    if batch:
        l1s[batched], kls[batched], risks[batched] = _sparse_batch(config, batch, costs, classes, costs_base)
    weighted, ks = ((kls if costs is None else l1s) * source.priors).ravel(), np.full(trials, k)
    columns = _bound_columns(np.full(trials, risk_opt), risks, weighted, ks, None if costs is None else costs[None])
    return {"counts": counts, "l1s": l1s, "kls": kls, **columns}


def _sparse_batch(config: TrialConfig, batch, costs, classes, costs_base) -> tuple:
    """The per-class L1s and KLs, ``(trials, k)`` arrays, and the plug-in risks of a ``batch`` of cost-mode trials,
    each given per class as its estimate's atom set (:func:`_hits`') and entries there, on few leaves. Each sum,
    the unit masses, the L1s and the risks (from one cost product), is numpy's over the full row, rebuilt in
    lockstep (:func:`_patched_sums`); a risk's leaves are summed afresh only where a hit's plug-in label is not 0.
    The hits lie on the support, and an estimate is 0 off them: a KL is inf where the support outnumbers the hits,
    else its row's sum at the hits (:func:`_run_sums`)."""
    source, trials, (k, m) = config.source, len(batch), (config.source.k, config.source.domain.size)
    estimates = [hits[i] for i in range(k) for hits in batch]  # a row per class and trial, class by class
    atom, q = (np.concatenate(part) for part in zip(*estimates))
    bounds = np.cumsum([0, *(at.size for at, _ in estimates)])  # each row's hits
    row = np.arange(k * trials).repeat(bounds[1:] - bounds[:-1])
    plan, width = _leaf_plan(m, row, atom), 1 << _pairwise_tree(m)[0]
    totals = _patched_sums(m, plan, q, sums := np.zeros((k * trials, width)))
    if not _unit_sums(totals):  # as _exact_unit_mass, each changed leaf summed afresh
        chosen = np.flatnonzero(totals[plan[0]] != 1.0)
        q /= totals[row]
        for _ in range(4):
            residual = _patched_sums(m, plan, q, sums, chosen=chosen) - 1.0
            if not len(off := np.flatnonzero(residual)):
                break
            top = np.array([bounds[r] + q[bounds[r] : bounds[r + 1]].argmax() for r in off])
            q[top] -= residual[off]
            chosen = plan[2].searchsorted(top, "right") - 1
    true, ends = [p for p, *_ in classes], bounds[::trials]  # each class's hits
    diff = (at_hits := np.concatenate([p[atom[lo:hi]] for p, lo, hi in zip(true, ends[:-1], ends[1:])])) - q
    sums.reshape(k, trials, width)[:] = np.array([base for *_, base in classes])[:, None]

    def true_on_leaves(rows, starts, length):  # the rows run class by class
        of = rows // trials
        return np.concatenate([_on_leaves(true[i], starts[of == i], length) for i in range(of[0], of[-1] + 1)])

    l1s = _patched_sums(m, plan, np.abs(diff, out=diff), sums, true_on_leaves).reshape(k, trials)
    kls = _run_sums(_kl_terms(at_hits, q, diff), counts := np.diff(bounds).reshape(k, trials))
    kls = np.where(np.array([c[2] for c in classes])[:, None] > counts, math.inf, np.where(kls > 0.0, kls, 0.0))
    union = np.sort(columns := row % trials * m + atom)  # each trial's hit columns, as trial * m + atom
    union = union[_firsts(union)]  # np.unique's, without its first call's import of numpy.ma
    weighted = np.zeros((k, len(union)))
    weighted[row // trials, union.searchsorted(columns)] = source.priors[row // trials] * q
    labels = _bayes_labels(costs, weighted, None, np.empty(len(union), np.intp), np.empty(len(union), np.intp))
    del atom, q, at_hits, row, plan, diff, columns, sums, weighted  # before the risks' arrays are made
    union, labels = union[moved := labels != 0], labels[moved]  # a column labelled 0 holds the background's entries
    trial, atom = np.divmod(union, m)
    cols = np.bincount(trial, minlength=trials)  # the risks' hits: trial by trial, class by class, atom by atom
    order = np.arange(len(union)) + (k - 1) * (cols.cumsum() - cols)[trial] + np.outer(range(k), cols[trial])
    flat_atoms, entries = np.empty(k * len(union), np.intp), np.empty(k * len(union))
    flat_atoms[order] = np.arange(0, k * m, m)[:, None] + atom
    entries[order] = costs.take(labels, axis=1) * (np.stack([p[atom] for p in true]) * source.priors[:, None])
    plan = _leaf_plan(k * m, np.arange(trials).repeat(k * cols), flat_atoms)
    del labels, trial, atom, order, flat_atoms
    label_0 = _cost_leaves(true, source.priors, costs)
    risks = _patched_sums(k * m, plan, entries, np.repeat(costs_base[None], trials, 0), label_0)
    return l1s.T, kls.T, risks


@dataclass(frozen=True)
class ExperimentSummary:
    """The report's columns plus per-sample-size aggregates.

    ``columns`` maps each CSV column, in order, to its values, one Python
    scalar per trial in grid order; ``per_n`` is aggregated from them.
    ``to_dict`` is every field but ``columns``.
    """

    mode: str
    n_grid: tuple[int, ...]
    trials: int
    columns: dict
    per_n: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "columns"}


def _quantile(values: Sequence[float], q: Optional[float]) -> float:
    """``np.quantile`` (linear) of the finite ``values`` at ``q`` (inf if none), or if ``q`` is None ``np.median`` of
    them all, in numpy's arithmetic on the sorted values, without the numpy.ma import of either's first call."""
    if not (ordered := sorted(values if q is None else (v for v in values if math.isfinite(v)))):
        return math.inf
    n, low = len(ordered), math.floor(at := (len(ordered) - 1) * (0.5 if q is None else q))  # the virtual index
    a, b, gamma = ordered[low], ordered[min(low + 1, n - 1)], at - low
    if q is None:  # the mean of the middle one or two
        return a if n % 2 else (a + b) / 2
    return a + (b - a) * gamma if gamma < 0.5 else b - (b - a) * (1 - gamma)  # numpy's _lerp


def run_pac_experiment(config: TrialConfig) -> ExperimentSummary:
    """Repeat trials across the sample-size grid and aggregate.

    Every grid point runs first, a block of trials at a time, each block
    giving its columns; the CDF row and any workspace are then freed, the
    blocks are joined into the report's columns, and ``per_n`` is aggregated
    from slices of those, so the report and the summary come from one
    source. The config has been checked when it was built, its floor of 30
    trials per grid point included, so this checks no input.
    """
    grid, trials = config.n_grid or (config.sample_size,), config.trials
    streams = np.random.SeedSequence(config.seed).spawn(len(grid) * trials)
    fixed, blocks = _fixed(config), []
    for gi, n in enumerate(grid):
        point = streams[gi * trials : (gi + 1) * trials]
        per_block = max(1, _BLOCK_DRAWS // n)
        for start in range(0, trials, per_block):
            rngs = [np.random.default_rng(s) for s in point[start : start + per_block]]
            blocks.append(_block(config, rngs, n, *fixed))
    del fixed
    joined = {key: np.concatenate([block[key] for block in blocks]) for key in blocks[0]}
    columns = {"n": [n for n in grid for _ in range(trials)], "trial": list(range(trials)) * len(grid),
               **{key: joined[key].tolist() for key in ("excess", "bound", "satisfied", "risk_opt", "risk_plugin")},
               "max_l1": joined["l1s"].max(axis=1).tolist(), "max_kl": joined["kls"].max(axis=1).tolist(),
               "counts": ["|".join(map(str, counts)) for counts in joined["counts"].tolist()]}
    per_n = []
    for gi, n in enumerate(grid):
        point = {key: values[gi * trials : (gi + 1) * trials] for key, values in columns.items()}
        per_n.append(
            {
                "n": n,
                "violation_fraction": float(np.mean([e > config.epsilon_target for e in point["excess"]])),
                "satisfied_fraction": float(np.mean(point["satisfied"])),
                "mean_excess": float(np.mean(point["excess"])),
                "median_excess": _quantile(point["excess"], None),
                "l1_q50": _quantile(point["max_l1"], 0.5),
                "l1_q90": _quantile(point["max_l1"], 0.9),
                "kl_q50": _quantile(point["max_kl"], 0.5),
                "kl_q90": _quantile(point["max_kl"], 0.9),
            }
        )
    mode = "logloss" if config.log_loss_mode else "cost"
    return ExperimentSummary(mode, tuple(grid), trials, columns, tuple(per_n))


# TrialConfig's fields after the source and the cost, which have JSON forms of their own: its settings.
_SETTINGS = tuple(f for f in fields(TrialConfig) if f.name not in ("source", "cost"))


def config_from_dict(data: dict) -> TrialConfig:
    """The config of a JSON dict: the source's form (or, PDFA-sourced, ``machines`` and ``truncate`` in place of the
    class masses, which ``truncate_all`` then makes, each machine parsed once), ``cost`` (a matrix or ``None``), then
    the settings by field name, each read as :class:`TrialConfig` reads it."""
    if "machines" in data:
        machines = tuple(Pdfa.from_dict(a) for a in data["machines"])
        classes = truncate_all(machines, _json_int(data["truncate"], "truncate"))
        source = LabeledSource(np.asarray(_json_float(data["priors"], "priors"), dtype=float), classes)
    else:
        source = LabeledSource.from_dict(data)
    cost = None if data.get("cost") is None else CostMatrix(_json_float(data["cost"], "cost"))
    settings = {f.name: data[f.name] for f in _SETTINGS if f.name in data or f.default is MISSING}
    return TrialConfig(source, cost, **settings)
