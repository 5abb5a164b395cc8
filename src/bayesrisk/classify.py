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

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .distributions import SUM_TOL, Distribution, Domain, _json_float, _run_sums


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
    costs = as_cost_array(cost, source.k)
    scores, row, labels = _workspace((source.k, source.domain.size), costs)
    return Classifier(source.domain, _bayes_labels(costs, source.weighted_mass, scores, labels, row.view(np.intp)))


def _workspace(shape: tuple, costs, row=None) -> tuple[np.ndarray, ...]:
    """The buffers the kernels of ``(..., k, m)`` masses read under the cost arrays ``costs`` (log loss if ``None``):
    scores of that shape and, each of that shape without its ``k``, a float row (``row`` if given; under costs, viewed
    as intp, the Bayes labels' scan row) and the Bayes labels (intp) under costs or the covered atoms (bool) else."""
    rows = shape[:-2] + shape[-1:]
    return np.empty(shape), np.empty(rows) if row is None else row, np.empty(rows, bool if costs is None else np.intp)


def _bayes_labels(costs, weighted, scores, labels, less) -> np.ndarray:
    """The Bayes labels of the ``(..., k, m)`` weighted masses under the ``(..., k, k)`` costs, written into ``labels``
    via the buffers ``scores`` (``None`` for a batch's few columns: :func:`_gathered_scores` multiplies them) and
    ``less`` ``(..., m)``, integers. Ties go to the smallest label: an atom moves to label j only where j scores
    strictly less than row 0's minimum, and every label is below j then, so the move is ``max(labels, j * less)``."""
    scores = _gathered_scores(costs, weighted) if scores is None else np.matmul(
        costs.swapaxes(-1, -2), weighted, out=scores)
    labels.fill(0)
    for j in range(1, scores.shape[-2]):
        np.less(scores[..., j, :], scores[..., 0, :], out=less)
        less *= j
        np.maximum(labels, less, out=labels)
        np.minimum(scores[..., 0, :], scores[..., j, :], out=scores[..., 0, :])
    return labels


def _gathered_scores(costs, weighted) -> np.ndarray:
    """``costs.T @ weighted`` at a batch of sparse trials' hit columns, in the full product's bits (test_classify
    pins it): a lone column, whose product takes another BLAS kernel, is multiplied beside a zero column."""
    lone = weighted.shape[1] == 1
    return np.matmul(costs.T, np.pad(weighted, ((0, 0), (0, 1))) if lone else weighted)[:, : weighted.shape[1]]


def risk(f: Classifier, source: LabeledSource, cost: CostLike) -> float:
    """Expected cost of ``f`` on the source, by exact summation."""
    if f.domain != source.domain:
        raise ValueError("classifier and source domains differ")
    costs = as_cost_array(cost, source.k)
    if (f.labels >= source.k).any():
        raise ValueError("classifier labels exceed the source's class count")
    return float(_cost_risk(costs, f.labels.copy(), source.weighted_mass))


def _cost_risk(costs, labels, weighted, out=None, on=True) -> np.ndarray:
    """:func:`risk` of labels in ``[0, k)``, one per instance of the ``(..., k, m)`` weighted masses (``costs`` and
    ``labels`` broadcast to them): the sum of ``costs[i, label] * weighted[i, x]`` over the flattened instance, its
    rows on their prefixes of the mask ``on`` (``True``: whole rows). The terms are written into ``out`` (allocated if
    not given), one take a class from the flattened costs, with ``labels`` made flat indices into them in place."""
    k = costs.shape[-1]
    weighted_costs = np.empty(labels.shape[:-1] + weighted.shape[-2:]) if out is None else out
    labels += np.arange(0, costs.size, k * k).reshape(costs.shape[:-2] + (1,))
    for i in range(k):
        costs.reshape(-1).take(labels, out=weighted_costs[..., i, :], mode="clip")  # "clip" fills out directly
        labels += k
    weighted_costs *= weighted
    if on is True:  # summed in place: a gather would copy every term of a wide PAC trial
        return weighted_costs.reshape(*weighted_costs.shape[:-2], -1).sum(axis=-1)
    counts = np.count_nonzero(cut := np.broadcast_to(on, weighted_costs.shape), axis=(-2, -1))
    return _run_sums(weighted_costs[cut], counts, weighted_costs.reshape(counts.size, -1))  # gathered, laid out anew


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
    table, mix, covered = _workspace((source.k, source.domain.size), None)
    _posterior(source.weighted_mass, table, mix, covered)
    return StochasticRule(source.domain, table.T)


def _posterior(weighted, table, mix, covered) -> None:
    """Write :func:`posterior_rule`'s table, transposed to ``(k, m)``, of each instance of the ``(..., k, m)``
    weighted masses into ``table``, via the rows ``mix`` (the mixtures) and ``covered`` (bool), ``(..., m)``."""
    np.sum(weighted, axis=-2, out=mix)
    np.greater(mix, 0.0, out=covered)
    table.fill(1.0 / table.shape[-2])
    np.divide(weighted, mix[..., None, :], out=table, where=covered[..., None, :])


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
    return float(_logloss_risk(rule.table.T, source.weighted_mass))


def _logloss_risk(table, weighted, scratch=None) -> np.ndarray:
    """:func:`logloss_risk` of ``(k, m)`` rule tables on weighted masses, one per instance of the ``(..., k, m)``
    ``table`` (``weighted`` broadcast to it, zero where padded). Both are gathered where the weights are positive,
    atom by atom, as a ``StochasticRule`` lays out its table, so the sum's order, and its bits, do not depend on
    ``table``'s layout; a zero of the rule there makes the risk infinite. It is summed in a spent ``scratch`` if any."""
    weighted, table = np.swapaxes(weighted, -1, -2), np.swapaxes(table, -1, -2)
    on = weighted > 0.0
    terms, weights = table[np.broadcast_to(on, table.shape)], weighted[on]
    with np.errstate(divide="ignore"):
        np.log2(terms, out=terms)
    terms.reshape(-1, len(weights))[:] *= weights
    counts = np.broadcast_to(np.count_nonzero(on, axis=(-2, -1)), table.shape[:-2])
    risks = -_run_sums(terms, counts, None if scratch is None else scratch.reshape(counts.size, -1))
    return np.where(risks > 0.0, risks, 0.0)
