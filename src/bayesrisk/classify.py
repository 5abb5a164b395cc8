"""Plug-in Bayes classifiers and their exact risks.

A labeled source is a mixture: class priors ``g_1..g_k`` plus one
class-conditional distribution per label on a shared domain. Two losses
are supported:

- cost-matrix loss, ``risk(f) = sum_x sum_i c[i, f(x)] * g_i * D_i(x)``,
  minimized pointwise by ``argmin_j sum_i c[i, j] * g_i * D_i(x)``;
- log loss for stochastic rules,
  ``risk(f) = sum_x D(x) * sum_i -log2(f_i(x)) * Pr_i(x)`` where
  ``Pr_i(x) = g_i * D_i(x) / D(x)`` is the label posterior.

Risks are exact summations over the domain, never sampled, so the bound
checks built on them carry no statistical noise. Labels are 0-based
indices; argmin ties break toward the smallest label, and atoms with zero
mixture mass (which contribute nothing to any risk) get the smallest
label from classifiers and the uniform row from stochastic rules.

Class priors are exact inputs throughout; only the class-conditional
distributions are ever estimated. The public functions check their input,
then run private ``(k, m)`` array kernels that ``bounds`` also calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .distributions import SUM_TOL, Distribution, Domain, _json_float
from .distributions import _few_leaves, _leaf_sums, _on_leaves, _tree_sum


@dataclass(frozen=True, eq=False)
class LabeledSource:
    """Class priors plus per-class distributions; induces the joint over atoms x labels."""

    priors: np.ndarray
    class_dists: tuple[Distribution, ...]

    def __post_init__(self) -> None:
        priors = np.asarray(self.priors, dtype=float).copy()
        dists = tuple(self.class_dists)
        if len(dists) < 2:
            raise ValueError("a labeled source needs at least two classes")
        if priors.shape != (len(dists),):
            raise ValueError("one prior per class distribution required")
        if not np.isfinite(priors).all() or (priors <= 0.0).any():
            raise ValueError("every class prior must be positive")
        # Half the unit-sum tolerance: the mixture's sum carries the priors' error plus rounding.
        if abs(float(priors.sum()) - 1.0) > SUM_TOL / 2:
            raise ValueError("class priors must sum to 1")
        domain = dists[0].domain
        for d in dists[1:]:
            if d.domain != domain:
                raise ValueError("all class distributions must share one domain")
        priors.flags.writeable = False
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "class_dists", dists)

    @property
    def k(self) -> int:
        return len(self.class_dists)

    @property
    def domain(self) -> Domain:
        return self.class_dists[0].domain

    @cached_property
    def weighted_mass(self) -> np.ndarray:
        """(k, m) matrix ``W[i, x] = g_i * D_i(x)``; read-only."""
        w = np.stack([d.mass for d in self.class_dists])
        w *= self.priors[:, None]
        w.flags.writeable = False
        return w

    def mixture_distribution(self) -> Distribution:
        """The marginal over atoms, ``D(x) = sum_i g_i * D_i(x)``."""
        return Distribution(self.domain, self.weighted_mass.sum(axis=0))

    def to_dict(self) -> dict:
        return {
            "priors": [float(g) for g in self.priors],
            "classes": [d.to_dict() for d in self.class_dists],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LabeledSource":
        return cls(
            np.asarray(_json_float(data["priors"], "priors"), dtype=float),
            tuple(Distribution.from_dict(c) for c in data["classes"]),
        )


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """k x k non-negative misclassification costs; ``costs[i, j]`` prices truth ``i`` labeled ``j``."""

    costs: np.ndarray

    def __post_init__(self) -> None:
        costs = np.asarray(self.costs, dtype=float).copy()
        if costs.ndim != 2 or costs.shape[0] != costs.shape[1] or not costs.size:
            raise ValueError("cost matrix must be square and non-empty")
        if not np.isfinite(costs).all() or (costs < 0.0).any():
            raise ValueError("costs must be finite and non-negative")
        if float(costs.max()) <= 0.0:
            raise ValueError("cost matrix must have at least one positive entry")
        costs.flags.writeable = False
        object.__setattr__(self, "costs", costs)

    @classmethod
    def zero_one(cls, k: int) -> "CostMatrix":
        """Unit cost for every misclassification, zero on the diagonal."""
        return cls(np.ones((k, k)) - np.eye(k))

    @property
    def k(self) -> int:
        return self.costs.shape[0]

    @property
    def max_cost(self) -> float:
        return float(self.costs.max())

    def to_list(self) -> list[list[float]]:
        return [[float(v) for v in row] for row in self.costs]


CostLike = Union[CostMatrix, np.ndarray, Sequence[Sequence[float]]]


def as_cost_array(cost: CostLike, k: int) -> np.ndarray:
    """Coerce to a validated (k, k) float array.

    Unlike :class:`CostMatrix`, an all-zero matrix is accepted here: risk
    evaluation and the linearity property are well defined for it even
    though it makes every classifier trivially optimal. A :class:`CostMatrix`
    checked its read-only costs when it was built, so only its shape is
    checked here.
    """
    checked = isinstance(cost, CostMatrix)
    arr = cost.costs if checked else np.asarray(cost, dtype=float)
    if arr.shape != (k, k):
        raise ValueError(f"cost matrix has shape {arr.shape}, expected ({k}, {k})")
    if not checked and (not np.isfinite(arr).all() or (arr < 0.0).any()):
        raise ValueError("costs must be finite and non-negative")
    return arr


@dataclass(frozen=True, eq=False)
class Classifier:
    """Total label table over a domain."""

    domain: Domain
    labels: np.ndarray

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=int).copy()
        if labels.shape != (self.domain.size,):
            raise ValueError("one label per domain atom required")
        if (labels < 0).any():
            raise ValueError("labels must be non-negative indices")
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    def label(self, atom: str) -> int:
        return int(self.labels[self.domain.index(atom)])


@dataclass(frozen=True, eq=False)
class StochasticRule:
    """Per-atom probability vector over the k labels."""

    domain: Domain
    table: np.ndarray

    def __post_init__(self) -> None:
        table = np.asarray(self.table, dtype=float).copy()
        if table.ndim != 2 or table.shape[0] != self.domain.size:
            raise ValueError("rule table must have one row per domain atom")
        if not np.isfinite(table).all() or (table < 0.0).any():
            raise ValueError("rule rows must be non-negative")
        if (np.abs(table.sum(axis=1) - 1.0) > SUM_TOL).any():
            raise ValueError("every rule row must sum to 1")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    @property
    def k(self) -> int:
        return self.table.shape[1]

    def row(self, atom: str) -> np.ndarray:
        return self.table[self.domain.index(atom)]


def bayes_classifier(source: LabeledSource, cost: CostLike) -> Classifier:
    """Pointwise cost-minimizing label table for the given source.

    ``labels[x] = argmin_j sum_i c[i, j] * g_i * D_i(x)``, ties to the smallest label, which
    also covers atoms with zero mixture mass (all scores zero there).
    """
    _, scores, labels, _, less = _workspace(source.k, source.domain.size)
    labels = _bayes_labels(as_cost_array(cost, source.k), source.weighted_mass, scores, labels, less)
    return Classifier(source.domain, labels)


def _workspace(k: int, m: int) -> tuple[np.ndarray, ...]:
    """Buffers for the kernels: estimates and scores ``(k, m)``, labels, a float and a bool row."""
    return np.empty((k, m)), np.empty((k, m)), np.empty(m, np.intp), np.empty(m), np.empty(m, bool)


def _bayes_labels(costs, weighted, scores, labels, less, cols=slice(None)) -> np.ndarray:
    """The Bayes labels of the ``(k, m)`` weighted masses at the columns ``cols``, written into the
    start of ``labels`` via the buffers ``scores`` ``(k, m)`` and ``less`` ``(m,)``. Ties go to the
    smallest label: an atom moves to label j only where j scores strictly less than the running
    minimum, kept in row 0. The product is the full one: a gathered one may differ in its bits."""
    np.matmul(costs.T, weighted, out=scores)
    if not isinstance(cols, slice):
        scores, labels, less = scores.take(cols, axis=1), labels[: len(cols)], less[: len(cols)]
    labels.fill(0)
    for j in range(1, len(scores)):
        np.less(scores[j], scores[0], out=less)
        np.copyto(labels, j, where=less)
        np.minimum(scores[0], scores[j], out=scores[0])
    return labels


def risk(f: Classifier, source: LabeledSource, cost: CostLike) -> float:
    """Expected cost of ``f`` on the source, by exact summation."""
    if f.domain != source.domain:
        raise ValueError("classifier and source domains differ")
    costs = as_cost_array(cost, source.k)
    if (f.labels >= source.k).any():
        raise ValueError("classifier labels exceed the source's class count")
    return _cost_risk(costs, f.labels, source.weighted_mass)


def _cost_risk(costs, labels, weighted, out=None, cols=slice(None), base=None) -> float:
    """:func:`risk` of labels in ``[0, k)`` at the columns ``cols``, label 0 elsewhere, on the ``(k, m)``
    weighted masses: the sum of ``costs[i, label] * weighted[i, x]`` over the flattened array. Outside
    ``cols`` it is ``costs[:, :1] * weighted``, whose leaf sums (:func:`_leaf_sums`) are ``base``: only the
    leaves of ``cols`` are summed afresh if :func:`_few_leaves` finds them few, else the array summed is the same."""
    if isinstance(cols, slice):
        weighted_costs = costs.take(labels, axis=1, out=out, mode="clip")  # "clip" fills out directly
        weighted_costs *= weighted
        return float(weighted_costs.sum())
    k, m = weighted.shape
    at_cols = costs.take(labels, axis=1) * weighted.take(cols, axis=1)
    hits = (np.arange(0, k * m, m)[:, None] + cols).ravel()
    leaves = _few_leaves(k * m, hits)
    if leaves is None:
        weighted_costs = np.multiply(costs[:, :1], weighted, out=out)
        weighted_costs[:, cols] = at_cols
        return float(weighted_costs.sum())
    at_hits, flat = at_cols.ravel(), weighted.reshape(-1)

    def on_leaves(starts, length):
        values = _on_leaves(flat, starts, length)
        values *= costs[starts // m, 0][:, None]
        for i in np.flatnonzero(starts // m != (starts + length - 1) // m):  # a leaf across a class's end
            index = starts[i] + np.arange(length)
            values[i] = costs[index // m, 0] * flat[index]
        near = slice(*hits.searchsorted([starts[0], starts[-1] + length]))  # the hits from the first leaf to the last
        leaf = starts.searchsorted(hits[near], "right") - 1
        offset = hits[near] - starts[leaf]
        on = offset < length  # the hits on these leaves
        values[leaf[on], offset[on]] = at_hits[near][on]
        return values

    return _tree_sum(_leaf_sums(k * m, on_leaves, leaves, base.copy()))


def posterior(source: LabeledSource, atom: str) -> np.ndarray:
    """Label posterior ``[g_i * D_i(x) / D(x)]_i`` at one atom."""
    col = source.weighted_mass[:, source.domain.index(atom)]
    total = float(col.sum())
    if total == 0.0:
        raise ValueError(f"atom outside mixture support: {atom!r}")
    return col / total


def posterior_rule(source: LabeledSource) -> StochasticRule:
    """Tabulated label posterior; the log-loss optimal stochastic rule.

    Atoms with zero mixture mass get the uniform row: their log-loss
    weight is zero, so any fixed choice is sound and this one keeps the
    table total.
    """
    _, table, _, mix, covered = _workspace(source.k, source.domain.size)
    _posterior(source.weighted_mass, table, mix, covered)
    return StochasticRule(source.domain, table.T)


def _posterior(weighted, table, mix, covered) -> None:
    """Write :func:`posterior_rule`'s table, transposed to ``(k, m)``, of the ``(k, m)`` weighted
    masses into ``table``, via the rows ``mix`` (the mixture) and ``covered`` (bool)."""
    np.sum(weighted, axis=0, out=mix)
    np.greater(mix, 0.0, out=covered)
    table.fill(1.0 / len(table))
    np.divide(weighted, mix, out=table, where=covered)


def plugin_rule(estimated: LabeledSource) -> StochasticRule:
    """Posterior rule computed from estimated class distributions.

    The caller supplies the true (known) priors inside ``estimated``; only
    the class-conditional distributions are estimates.
    """
    return posterior_rule(estimated)


def logloss_risk(rule: StochasticRule, source: LabeledSource) -> float:
    """Expected negative log2-likelihood of the true label under ``rule``.

    ``sum_x D(x) sum_i -log2(rule_i(x)) * Pr_i(x)`` with ``0 log 0 := 0``;
    ``math.inf`` when the rule puts zero probability somewhere the source
    puts posterior mass.
    """
    if rule.domain != source.domain:
        raise ValueError("rule and source domains differ")
    if rule.k != source.k:
        raise ValueError("rule and source class counts differ")
    return _logloss_risk(rule.table.T, source.weighted_mass)


def _logloss_risk(table, weighted) -> float:
    """:func:`logloss_risk` of the ``(k, m)`` rule ``table`` on the ``(k, m)`` weighted masses.
    Both are gathered where the weights are positive, atom by atom, as a ``StochasticRule`` lays
    out its table, so the sum's order, and its bits, do not depend on ``table``'s layout."""
    weighted = weighted.T
    on = weighted > 0.0
    vals = table.T[on]
    if (vals == 0.0).any():
        return math.inf
    return max(0.0, float(-(weighted[on] * np.log2(vals)).sum()))
