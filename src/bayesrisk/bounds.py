"""Risk-bound computation, verification, and tightness probing.

Two bounds are checked against exact excess risks:

- cost loss: if every class satisfies ``L1(D_i, D'_i) <= eps / g_i`` then
  the plug-in classifier's risk exceeds the Bayes risk by at most
  ``eps * k * max_ij c_ij``, and by at most the data-dependent
  ``R = sum_i (max_j c_ij - min_j c_ij) g_i L1_i``, itself within that bound;
- log loss: if every class satisfies ``KL(D_i || D'_i) <= eps / g_i``
  then the plug-in rule's log-loss risk exceeds the optimum by at most
  ``k * eps``, and the excess obeys the exact identity
  ``excess = sum_i g_i * KL(D_i || D'_i) - KL(D || D')`` with ``D, D'``
  the prior-weighted mixtures.

Checkers invert the hypothesis: the effective ``eps`` is
``max_i g_i * divergence_i``, the tightest budget for which the
hypothesis holds, which makes every check as strict as possible. An
infinite per-class KL gives an infinite bound (vacuous hypothesis,
trivially satisfied) so randomized sweeps stay total. A sweep draws its
instances in draw blocks, every draw of a block first, and computes them in
batches of consecutive draw blocks: each row kernel once per batch, on its class
rows zero-padded to one width and cut by one prefix mask. Every risk,
in the checks, the PAC trial and the tightness search, is ``_plugin_risk`` on
raw ``(k, m)`` masses, stacked; the optimal risk is that scorer on the true classes.
A batch's checks are columns (``_checks``), their budget, excess, bound, slack and
verdict from ``_bound_columns`` alone, as a PAC trial's are; report objects are
built from their rows only for a violation, a replay and the public checks. Every
verdict "value <= bound" is decided by ``_within``, the one place ``BOUND_TOL`` is read.

The two-atom constructions reproduce the matching lower bounds: the cost
construction leaves slack exactly ``2 * gamma * max_cost`` against the
k=2 bound, and the log-loss construction meets its bound exactly when
the estimated mixture coincides with the true one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from .classify import CostLike, CostMatrix, LabeledSource, as_cost_array
from .classify import _bayes_labels, _cost_risk, _logloss_risk, _posterior, _workspace
from .distributions import Distribution, Domain, _costs, _exact_unit_mass, _json_float, _json_int, _kl_on_support
from .distributions import _l1_distance, _moves, _ragged_sums, _scaled, _sources, _trusted, _unit_rows

# Tolerance of every "value <= bound" verdict, read only by _within.
BOUND_TOL = 1e-9
# Tolerance of checks exact in real arithmetic: optimality, closed forms, smoothing's hypothesis.
EXACT_TOL = 1e-12

L1 = "L1"
KL = "KL"

# Bytes one block of sweep instances may hold, each charged _ROW_COPIES of k_max class rows at m_max atoms plus
# _INSTANCE_BYTES (by tracemalloc on blocks whose every k is k_max, k_max = 2-10, m_max = 2-300: 4.0-4.6 copies at m_max
# >= 64, at most 1.6 KiB past 5 copies, and up to 150 KiB of numpy's ufunc buffers a block). The block size they give
# is part of a sweep's stream: its draws are made a block at a time.
_BLOCK_BYTES = 1 << 20
_ROW_COPIES, _INSTANCE_BYTES = 5, 2560
# Draw blocks computed and checked at once, a batch (smoothing's too): the most whose 3,000-instance CLI sweep peaks
# under three blocks' bytes (2.9 MB by tracemalloc; 5 peak at 3.4 MB). 1 to 6 took the 10k default sweeps 0.36 s /
# 0.57 s (theorem 1 / 2) to 0.29 s / 0.38 s, 4 0.34 s / 0.43 s.
_BATCH_BLOCKS = 4


@dataclass(frozen=True)
class PerturbationBudget:
    """Divergence budget: per-class divergence is allowed up to ``epsilon / g_i``."""

    metric: str
    epsilon: float

    def __post_init__(self) -> None:
        if self.metric not in (L1, KL):
            raise ValueError(f"metric must be one of {L1!r}, {KL!r}")
        if not math.isfinite(_json_float(self.epsilon, "budget epsilon")) or self.epsilon < 0.0:
            raise ValueError("budget epsilon must be finite and non-negative")


class ReportRows:
    """A frozen report dataclass's row forms: its CSV ``columns``, every field but those ``not_in_row``; the reports of
    rows of columns; and ``to_dict``, every field to its value (the instance dict, in declaration order)."""

    not_in_row = ()

    @classmethod
    def columns(cls) -> list:
        return [f.name for f in fields(cls) if f.name not in cls.not_in_row]

    @classmethod
    def from_columns(cls, columns: dict, rows=slice(None)) -> list:
        """The reports of the ``rows`` of ``columns``, arrays holding every field but those whose one float every row
        holds; the rows are built from the arrays' ``tolist``, as the CSV's are."""
        values = [columns[f.name] for f in fields(cls)]
        return [cls(*row) for row in zip(*(repeat(v) if isinstance(v, float) else v[rows].tolist() for v in values))]

    def to_dict(self) -> dict:
        return self.__dict__.copy()


@dataclass(frozen=True)
class BoundReport(ReportRows):
    """Exact risks of the optimal and plug-in predictors against one bound."""

    not_in_row = ("epsilon",)

    risk_opt: float
    risk_plugin: float
    excess: float
    bound: float
    slack: float
    satisfied: bool
    epsilon: float

    def __post_init__(self) -> None:
        if not (self.excess >= -EXACT_TOL):
            raise ValueError(f"negative excess {self.excess!r}: optimality violated")
        if self.satisfied != _within(self.excess, self.bound):
            raise ValueError("satisfied flag inconsistent with excess and bound")


def _within(value, bound):
    """The verdict ``value <= bound`` up to ``BOUND_TOL``, true for an infinite bound;
    elementwise for an array ``value`` or ``bound``."""
    return (bound == math.inf) | (value <= bound + BOUND_TOL)


def theorem1_bound(epsilon: float, k: int, cost: CostLike) -> float:
    """Cost-loss excess bound ``epsilon * k * max_ij c_ij``, the log-loss bound times the largest cost; elementwise for
    instances: arrays of budgets and class counts and the ``(n, w, w)`` array of their costs, each in its corner and
    zero past it, valid as :func:`_costs` drew them or as ``as_cost_array`` checked them."""
    bound = theorem2_bound(epsilon, k)
    return bound * (cost.max(axis=(1, 2)) if isinstance(epsilon, np.ndarray) else float(as_cost_array(cost, k).max()))


def theorem2_bound(epsilon: float, k: int) -> float:
    """Log-loss excess bound ``k * epsilon`` (bits); elementwise for arrays of budgets and class counts."""
    if not np.all((epsilon if isinstance(epsilon, np.ndarray) else _json_float(epsilon, "epsilon")) >= 0.0):
        raise ValueError("epsilon must be non-negative")
    return (k if isinstance(epsilon, np.ndarray) else _json_int(k, "k")) * epsilon


def _divergences(true: np.ndarray, est: np.ndarray, metric: str, on=True, scratch=None) -> np.ndarray:
    """Each row's L1 (``L1``) or KL (``KL``, inf off the estimate's support) of ``(n, m)`` masses on the mask ``on``;
    an L1's terms are written into ``scratch`` if given."""
    return _l1_distance(true, est, scratch, on) if metric == L1 else _kl_on_support(true, est, true > 0.0)


def _as_arrays(true_source: LabeledSource, est_dists: Sequence[Distribution], metric: str):
    """An instance's priors, ``(2, k, m)`` masses (the true classes in row 0, the checked estimates in
    row 1) and per-class :func:`_divergences` under ``metric``: the inverse of :func:`_as_objects`."""
    est = tuple(est_dists)
    if len(est) != true_source.k:
        raise ValueError("one estimated distribution per class required")
    for d in est:
        if d.domain != true_source.domain:
            raise ValueError("estimates must live on the source's domain")
    masses = np.array([[d.mass for d in true_source.class_dists], [e.mass for e in est]])
    return true_source.priors, masses, _divergences(*masses, metric)


def _plugin_risk(weighted, scored, costs, ws=None, on=True) -> np.ndarray:
    """Risks, on true classes of weighted masses ``weighted``, of the Bayes classifiers under the cost arrays
    ``costs`` (posterior rules if ``None``) of the weighted estimates ``scored``: one per ``(k, m)`` instance of the
    stacked ``scored``, to which ``weighted``, ``costs`` and the rows' prefix mask ``on`` (``True``: whole rows)
    broadcast. ``ws`` is a :func:`_workspace` of ``scored``'s shape and loss, allocated if not given."""
    scores, row, spare = ws or _workspace(scored.shape, costs)
    if costs is None:
        _posterior(scored, scores, row, spare)
        return _logloss_risk(scores, weighted, scores)
    return _cost_risk(costs, _bayes_labels(costs, scored, scores, spare, row.view(np.intp)), weighted, scores, on)


def _bound_columns(risk_opt, risk_plugin, weighted, ks, costs) -> dict:
    """The :class:`BoundReport` fields, as columns, of instances with risks ``risk_opt`` and ``risk_plugin``, ``ks[i]``
    prior-weighted divergences in turn in ``weighted`` (the largest its budget) and costs in the corner of ``costs[i]``
    (log loss if ``None``; one of ``(1, k, k)`` serves all): every verdict's bound is taken here, in one call. An excess
    below ``-EXACT_TOL`` (or nan) is the report's ``ValueError``."""
    eps = np.maximum.reduceat(weighted, np.cumsum(ks) - ks)
    bound = theorem2_bound(eps, ks) if costs is None else theorem1_bound(eps, ks, costs)
    excess = risk_plugin - risk_opt
    if not (optimal := excess >= -EXACT_TOL).all():
        raise ValueError(f"negative excess {float(excess[~optimal][0])!r}: optimality violated")
    with np.errstate(invalid="ignore"):  # inf - inf: an infinite bound's slack is inf whatever the excess
        slack = np.where(bound == math.inf, math.inf, bound - excess)
    return {"risk_opt": risk_opt, "risk_plugin": risk_plugin, "excess": excess, "bound": bound, "slack": slack,
            "satisfied": _within(excess, bound), "epsilon": eps}


def _checks(priors, masses, divergences, costs, ks, on=True, identity=True) -> dict:
    """The instances' checks under their ``costs`` (log loss if ``None``), as columns: :func:`_bound_columns`', the
    refined cost bound ``refined`` (nan under log loss), the identity's ``rhs`` under log loss and its ``identity_gap``
    (``None`` without ``identity`` or for an infinite KL), and ``ok``, under costs also ``excess <= refined <= bound``.
    Instance ``i`` has its ``ks[i]`` rows in turn in ``priors``, ``divergences`` and both ``(rows, width)`` arrays of
    ``masses`` (true classes, then estimates), on the rows' prefix mask ``on``, and its costs in the corner of
    ``costs[i]``. A class count's instances are scored at once, in place, in runs of at most ``ceil(n / _BATCH_BLOCKS) *
    max(ks)`` class rows of the ``n`` instances."""
    starts, weighted = np.cumsum(ks) - ks, priors * divergences
    risks, kls = np.empty((2, len(ks))), np.empty(len(ks))
    refined, most = np.full(len(ks), math.nan), -(-len(ks) // _BATCH_BLOCKS) * int(ks.max())
    for k, of_k in ((k, np.flatnonzero(ks == k)) for k in set(ks.tolist())):
        for run in (of_k[at : at + most // k] for at in range(0, len(of_k), most // k)):
            rows = (starts[run, None] + np.arange(k)).ravel()
            scored = np.array([m[rows] for m in masses]).reshape(2, len(run), k, -1)
            scored *= priors[rows].reshape(len(run), k, 1)
            group = None if costs is None else costs[run, :k, :k]
            cut = on if on is True else on[rows].reshape(len(run), k, -1)
            risks[:, run] = _plugin_risk(scored[0], scored, group, on=cut)
            if group is not None:  # R = sum_i (max_j c_ij - min_j c_ij) g_i L1_i, between the excess and the bound
                refined[run] = (np.ptp(group, axis=2) * weighted[rows].reshape(len(run), k)).sum(axis=1)
            elif identity:  # a run's mixtures, not the batch's, are held
                kls[run] = _mixture_kl(scored.sum(axis=-2), cut if cut is True else cut[:, 0])
    columns = {**_bound_columns(*risks, weighted, ks, costs), "refined": refined}
    rhs = np.full(len(ks), math.nan)
    if costs is None and identity:
        flat = weighted.tolist()  # Python's sum, left to right, of each instance's terms, as its own check takes it
        sums = np.array([sum(flat[a : a + k]) for a, k in zip(starts.tolist(), ks.tolist())])
        np.subtract(sums, kls, out=rhs, where=np.logical_and.reduceat(np.isfinite(divergences), starts))
    gap, has = np.abs(columns["excess"] - rhs), ~np.isnan(rhs)
    ok = columns["satisfied"] & (~has | _within(gap, 0.0))
    ok &= costs is None or _within(columns["excess"], refined) & _within(refined, columns["bound"])
    return {**columns, "rhs": np.where(has, rhs, None), "identity_gap": np.where(has, gap, None), "ok": ok}


def _check(priors, masses, divergences, cost, identity=True) -> tuple:
    """The one instance of :func:`_as_arrays`' arrays checked, as the sweeps, replays and ``lower-bounds`` decide it:
    ``(report, rhs, identity_gap, ok)`` from its :func:`_checks` row, a block of one."""
    cost = None if cost is None else as_cost_array(cost, len(priors))[None]
    columns = _checks(priors, masses, divergences, cost, np.array([len(priors)]), identity=identity)
    return *BoundReport.from_columns(columns), *(columns[name].tolist()[0] for name in ("rhs", "identity_gap", "ok"))


def _mixture_kl(mixtures, on=True) -> np.ndarray:
    """The identity's KL from each true mixture to its estimated one, the rows of the ``(2, n, m)`` ``mixtures``
    (the classes' weighted sums), each made unit on its row of the ``(n, m)`` prefix mask ``on`` (``True``: whole)."""
    rows = mixtures.reshape(-1, mixtures.shape[-1])
    p, q = _exact_unit_mass(rows, np.broadcast_to(on, mixtures.shape).reshape(rows.shape)).reshape(mixtures.shape)
    return _kl_on_support(p, q, p > 0.0)


def check_theorem1(
    true_source: LabeledSource, est_dists: Sequence[Distribution], cost: CostLike
) -> BoundReport:
    """Exactly evaluate the cost-loss bound for one (source, estimates, cost) instance.

    The effective budget is ``eps = max_i g_i * L1(D_i, D'_i)``; the report
    compares the exact excess risk of the plug-in classifier against
    ``eps * k * max_ij c_ij``. The guarantee is unconditional, so
    ``satisfied`` is True on every valid instance.
    """
    return _check(*_as_arrays(true_source, est_dists, L1), cost)[0]


def check_theorem2(true_source: LabeledSource, est_dists: Sequence[Distribution]) -> BoundReport:
    """Exactly evaluate the log-loss bound for one (source, estimates) instance.

    ``eps = max_i g_i * KL(D_i || D'_i)``; infinite per-class KL yields an
    infinite bound (the hypothesis is vacuous there).
    """
    return _check(*_as_arrays(true_source, est_dists, KL), None, identity=False)[0]


def excess_logloss_identity(
    true_source: LabeledSource, est_dists: Sequence[Distribution]
) -> tuple[float, float]:
    """Both sides of the exact excess-log-loss identity.

    Returns ``(lhs, rhs)`` where ``lhs`` is the plug-in rule's excess
    log-loss risk and ``rhs = sum_i g_i * KL(D_i || D'_i) - KL(D || D')``
    with the prior-weighted mixtures ``D, D'``. The two agree to float
    round-off whenever every per-class KL is finite.
    """
    report, rhs, *_ = _check(*_as_arrays(true_source, est_dists, KL), None)
    if rhs is None:
        raise ValueError(
            "per-class KL divergence is infinite: estimate supports must cover the true class supports"
        )
    return report.excess, rhs


def _two_atom_masses(epsilon_prime: float, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """The two-atom, two-class instance's equal priors and ``(2, 2, 2)`` masses: the true classes put
    ``1/2 +- epsilon_prime`` on the atoms and the estimates lean ``gamma`` the other way."""
    _json_float(epsilon_prime, "epsilon_prime"), _json_float(gamma, "gamma")
    if not (epsilon_prime >= 0.0 and gamma >= 0.0 and epsilon_prime + gamma < 0.5):  # false for nan and inf
        raise ValueError(
            f"parameter out of range: need epsilon_prime >= 0, gamma >= 0, "
            f"epsilon_prime + gamma < 1/2; got ({epsilon_prime!r}, {gamma!r})"
        )
    true, est = [0.5 + epsilon_prime, 0.5 - epsilon_prime], [0.5 - gamma, 0.5 + gamma]
    masses = np.array([[true, true[::-1]], [est, est[::-1]]])
    _exact_unit_mass(masses.reshape(-1, 2))
    return np.array([0.5, 0.5]), masses


def example1_construction(
    epsilon_prime: float, gamma: float
) -> tuple[LabeledSource, tuple[Distribution, Distribution], CostMatrix]:
    """Two-atom, two-class instance whose plug-in classifier flips every label.

    True classes put mass ``1/2 +- epsilon_prime`` on the two atoms; the
    estimates lean ``gamma`` the other way, so under 0/1 cost the optimal
    risk is ``1/2 - epsilon_prime``, the plug-in risk is
    ``1/2 + epsilon_prime``, and the cost bound is approached within
    ``2 * gamma`` as ``gamma`` shrinks.
    """
    return (*_as_objects(*_two_atom_masses(epsilon_prime, gamma)), CostMatrix.zero_one(2))


def example2_construction(
    epsilon_prime: float, gamma: float
) -> tuple[LabeledSource, tuple[Distribution, Distribution]]:
    """The same two-atom instance in the log-loss setting.

    The true and estimated mixtures both equal the uniform distribution,
    so the excess log-loss equals the per-class KL divergence exactly and
    the log-loss bound is met with zero slack.
    """
    return _as_objects(*_two_atom_masses(epsilon_prime, gamma))


def _bisect(fits, hi: float, steps: int) -> float:
    """The largest point of ``[0, hi]`` found to ``fits`` in ``steps`` halvings,
    with ``fits(0)`` assumed."""
    lo = 0.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _into_budget(metric: str, true: np.ndarray, est: np.ndarray, limits: np.ndarray, on=True, scratch=None):
    """Pull each row ``q`` of the ``(n, m)`` unit masses ``est`` whose :func:`_divergences` from its row ``p``
    of ``true`` (L1's terms written into ``scratch`` if given) is over its entry of ``limits`` back toward ``p``, in
    place and at unit mass: under L1 to ``p + t * (q - p)``, ``t`` the limit over the distance (non-negative in floats:
    rounding is monotone, so q - p >= -p, t * (q - p) >= -p, sum >= 0), rows on the prefix mask ``on``; under KL to
    ``(1 - t) * p + t * q``, ``t`` bisected in 50 steps, on whole rows."""
    divergences = _divergences(true, est, metric, on, scratch)
    over = np.flatnonzero(divergences > limits)
    if metric == KL:
        for i, limit in zip(over.tolist(), limits[over].tolist()):
            p, q = true[i], est[i]
            support = None if p.min() > 0.0 else p > 0.0  # a full support is not re-checked at each step

            def fits(t: float) -> bool:
                blend = (1.0 - t) * p + t * q
                return _kl_on_support(p, _exact_unit_mass(blend), support) <= limit

            t = _bisect(fits, 1.0, 50)
            est[i] = _exact_unit_mass((1.0 - t) * p + t * q)
    elif len(over):
        p, cut = true[over], on if on is True else on[over]
        est[over] = _exact_unit_mass(p + (limits[over] / divergences[over])[:, None] * (est[over] - p), cut)
    return est


def _perturb_rows(true: np.ndarray, budgets: np.ndarray, noise: np.ndarray, on=True, out=None) -> np.ndarray:
    """:func:`random_l1_perturbation` of each row of the ``(n, m)`` unit masses ``true`` at its budget, on its row
    of normal ``noise`` (zeros if not drawn; spent in place), rows on the prefix mask ``on``, into ``out`` if given."""
    sizes = np.count_nonzero(np.broadcast_to(on, true.shape), axis=1)
    np.subtract(noise, (_ragged_sums(noise, on) / sizes)[:, None], out=noise, where=on)  # zeros past the cut kept
    norms = _ragged_sums(est := np.abs(noise, out=out), on)  # est holds |noise| first, then the estimates
    est[:], moved = true, np.flatnonzero(norms)
    if len(moved):  # _unit_rows refuses an empty block
        at = slice(None) if len(moved) == len(true) else moved  # every row, as in a sweep: views, not copies
        t, limits, cut = true[at], budgets[moved], on if on is True else on[at]
        cand = np.multiply(noise[at], (limits / norms[moved])[:, None], out=est[at])
        cand += t
        # np.maximum(x, 0.0) is np.clip(x, 0.0, None) without its Python wrapper; the spent noise holds L1's terms.
        est[at] = _into_budget(L1, t, _unit_rows(np.maximum(cand, 0.0, out=cand), cut, cand), limits, cut, noise[at])
    return est


def _floor_rows(rough: np.ndarray, lams: np.ndarray, on=True, out=None) -> np.ndarray:
    """:func:`support_safe_perturbation`'s mix of each row of ``rough`` with uniform at ``lams``, on the mask ``on``,
    written into ``out`` (fresh if ``None``; it may be ``rough``)."""
    mixed = np.multiply(rough, (1.0 - lams)[:, None], out=out)
    floor = (lams / np.count_nonzero(np.broadcast_to(on, rough.shape), axis=1))[:, None]
    return _exact_unit_mass(np.add(mixed, floor, out=mixed, where=on), on)  # zero past the cut, as rough is


def _moved(true: np.ndarray, metric: str, budgets, noise, lams, on=True, out=None) -> np.ndarray:
    """The estimates of the ``(k, m)`` unit masses ``true`` (on the prefix mask ``on``) on the draws of ``_moves``,
    written into ``out`` (fresh if ``None``): each row perturbed within its L1 budget and, under KL, mixed with uniform
    to full support at its floor weight, the raw ``lams`` on ``[0.2 * 0.05, 0.05]``."""
    est = _perturb_rows(true, budgets, noise, on, out)
    return _floor_rows(est, _scaled(lams, 0.2 * 0.05, 0.05), on, est) if metric == KL else est


def _perturbed(d: Distribution, budget: float, rng: np.random.Generator, metric: str) -> Distribution:
    """:func:`_moved` of the one distribution ``d``."""
    if not 0.0 <= _json_float(budget, "L1 budget") <= 2.0:
        raise ValueError("L1 budget must lie in [0, 2]")
    est = _moved(d.mass[None], metric, *_moves(rng, np.ones((1, d.domain.size), bool), budget, metric == KL))
    return Distribution._frozen(d.domain, est[0])


def random_l1_perturbation(
    d: Distribution, budget: float, rng: np.random.Generator
) -> Distribution:
    """Random valid distribution within L1 distance ``budget`` of ``d``.

    A zero-sum signed transfer vector of L1 norm ``budget`` is added,
    clipped to keep non-negativity, and renormalized; if clipping pushed
    the distance past the budget the result is pulled back along the
    segment toward ``d``, which scales the L1 distance linearly.
    """
    return _perturbed(d, budget, rng, L1)


def support_safe_perturbation(d: Distribution, budget: float, rng: np.random.Generator) -> Distribution:
    """Randomly perturbed estimate with full support (finite KL guaranteed): the draw of
    :func:`random_l1_perturbation`, then a mix with uniform at a random weight in ``[0.2 * 0.05, 0.05]``."""
    return _perturbed(d, budget, rng, KL)


def _as_objects(priors: np.ndarray, masses: np.ndarray) -> tuple:
    """The source holding the first ``(k, m)`` unit masses of the ``(n, k, m)`` ``masses`` and, for
    ``n == 2``, the estimates holding the second, on ``Domain.indexed(m)``; ``masses`` becomes read-only."""
    masses.flags.writeable = False
    domain = Domain.indexed(masses.shape[2])
    true, *est = (tuple(Distribution._frozen(domain, row) for row in rows) for rows in masses)
    return LabeledSource(priors, true), *est


def random_source(rng: np.random.Generator, k: int, m: int) -> LabeledSource:
    """Random labeled source over ``Domain.indexed(m)`` with priors bounded away from zero."""
    if _json_int(k, "k") < 2 or _json_int(m, "m") < 1:
        raise ValueError("k must be at least 2 and m at least 1")
    priors, weights = _sources(rng, np.ones((k, m), bool), np.array([k]))
    return _as_objects(priors, _unit_rows(weights)[None])[0]


def random_cost(rng: np.random.Generator, k: int) -> CostMatrix:
    """Random cost matrix: 0/1, dense random, or scaled zero-diagonal."""
    return _trusted(CostMatrix, costs=_costs(rng, np.array([k]))[0])  # unchecked: valid by construction


def _instances_per_block(k_max: int, m_max: int) -> int:
    """The instances a theorem sweep's draw block holds at sizes ``k_max`` and ``m_max``, checked here, as many as
    ``_BLOCK_BYTES`` fit at their charge (68 at the defaults)."""
    if _json_int(k_max, "k_max") < 2 or _json_int(m_max, "m_max") < 2:
        raise ValueError("k_max and m_max must be at least 2")
    return max(1, _BLOCK_BYTES // (_ROW_COPIES * 8 * k_max * m_max + _INSTANCE_BYTES))


def _theorem_sweep(rng: np.random.Generator, n: int, k_max: int, m_max: int, metric: str):
    """The metric's sweep of ``n`` instances in trial order, a :func:`_sweep_block` of each batch of ``_BATCH_BLOCKS``
    draw blocks (fewer in the last), their :func:`_block_draws` made in turn and :func:`_joined`; sizes checked at the
    call. Every draw block but the last holds :func:`_instances_per_block` instances, so the block size, and with it
    ``_BLOCK_BYTES``, is part of the stream's definition: a run's instances are a prefix of a longer run's only over
    its whole draw blocks. The batch length is not: an instance keeps its bits in any batch."""
    size = _instances_per_block(k_max, m_max)
    step = _BATCH_BLOCKS * size
    return (_sweep_block(_joined([_block_draws(rng, min(size, n - at), k_max, m_max, metric)
                                  for at in range(start, min(n, start + step), size)]), metric)
            for start in range(0, n, step))


def _block_draws(rng: np.random.Generator, n: int, k_max: int, m_max: int, metric: str) -> list:
    """The draws of a draw block of ``n`` instances, field major, one generator call for each kind of draw: every
    instance's ``k``, every ``m``, the sources' priors, gamma-shape indices and class weights (:func:`_sources`), every
    class's budget (a raw uniform), noise and under KL floor weight (:func:`_moves`), then under L1 every cost kind and
    the random costs' uniforms (:func:`_costs`). Returns ``[ks, ms, on, priors, weights, budgets, noise, lams, costs]``:
    the class rows' prefix mask ``on``, made here once per block, the rows zero past it and the costs padded."""
    ks, ms = rng.integers(2, k_max + 1, n), rng.integers(2, m_max + 1, n)
    on = np.arange(ms.max()) < np.repeat(ms, ks)[:, None]  # each class row's prefix: its instance's atoms
    sources, moves = _sources(rng, on, ks), _moves(rng, on, None, metric == KL)
    return [ks, ms, on, *sources, *moves, _costs(rng, ks) if metric == L1 else None]


def _joined(blocks: list) -> list:
    """The :func:`_block_draws` of consecutive draw blocks as those of one block of all their instances, in the first
    block's list: each field's arrays in draw order, the class rows and the costs zero-padded to the widest. A block's
    array is let go once written, so no field is held twice."""
    if len(blocks) == 1:
        return blocks[0]
    for field in [f for f, drawn in enumerate(blocks[0]) if drawn is not None]:
        shapes = np.array([block[field].shape for block in blocks])
        out, at = np.zeros((shapes[:, 0].sum(), *shapes[:, 1:].max(axis=0)), blocks[0][field].dtype), 0
        for block in blocks:
            part, block[field] = block[field], None
            out[(slice(at, at := at + len(part)), *map(slice, part.shape[1:]))] = part
        out.flags.writeable, blocks[0][field] = part.flags.writeable, out  # the costs stay read-only
    return blocks[0]


def _block_arrays(draws: list, metric: str) -> tuple:
    """A draw block's or a batch's :func:`_block_draws` made into its instances, unchecked: :func:`_checks`' arguments,
    every ``m``, and the function giving instance ``j``'s :func:`_as_arrays` arrays and cost. The class rows and costs
    keep their draw order and bits through each row kernel; ``draws`` is emptied, each draw let go once spent."""
    ks, ms, on, priors, weights, budgets, noise, lams, costs = draws
    draws.clear()
    masses = (_unit_rows(weights, on, weights), np.empty(on.shape))  # the true rows, in place, then the estimates
    _moved(masses[0], metric, _scaled(budgets, 0.0, 2.0 if metric == L1 else 1.5), noise, lams, on, masses[1])
    del noise
    divergences, ends = _divergences(*masses, metric, on), np.cumsum(ks).tolist()

    def instance(j: int) -> tuple:
        rows = slice(ends[j] - ks[j], ends[j])
        cost = None if costs is None else _trusted(CostMatrix, costs=costs[j, : ks[j], : ks[j]])  # valid as drawn
        return priors[rows], np.array([m[rows, : ms[j]] for m in masses]), divergences[rows], cost

    return (priors, masses, divergences, costs, ks, on), ms, instance


def _sweep_block(draws: list, metric: str) -> tuple:
    """:func:`_block_arrays` checked: the ``k``, ``m`` and :func:`_checks` columns in draw order, and the function."""
    arrays, ms, instance = _block_arrays(draws, metric)
    return {"k": arrays[4], "m": ms, **_checks(*arrays)}, instance


def _sweep_instance(rng: np.random.Generator, k_max: int, m_max: int, metric: str) -> tuple:
    """The arrays and cost of the instance of a sweep of one instance, a draw block of one, unchecked."""
    _instances_per_block(k_max, m_max)  # the sizes checked
    return _block_arrays(_block_draws(rng, 1, k_max, m_max, metric), metric)[2](0)


def random_theorem1_instance(
    rng: np.random.Generator, k_max: int = 5, m_max: int = 64
) -> tuple[LabeledSource, tuple[Distribution, ...], CostMatrix]:
    """The instance of a theorem-1 sweep of one instance: a draw block of one (:func:`_block_draws`)."""
    priors, masses, _, cost = _sweep_instance(rng, k_max, m_max, L1)
    return (*_as_objects(priors, masses), cost)


def random_theorem2_instance(
    rng: np.random.Generator, k_max: int = 5, m_max: int = 64
) -> tuple[LabeledSource, tuple[Distribution, ...]]:
    """The instance of a theorem-2 sweep of one instance: a draw block of one (:func:`_block_draws`)."""
    return _as_objects(*_sweep_instance(rng, k_max, m_max, KL)[:2])


# ---------------------------------------------------------------------------
# Tightness search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TightnessResult:
    """Best instance found by the search and its excess/bound ratio."""

    source: LabeledSource
    est_dists: tuple[Distribution, ...]
    excess: float
    bound: float
    ratio: float


def _climb(
    masses: np.ndarray, excess, epsilon: float, rng: np.random.Generator
) -> tuple[float, np.ndarray]:
    """Coordinate hill climbing with step halving (20 levels from 0.1 * budget).

    ``masses`` is a (2, k, m) array, the true classes in row 0 and the raw
    estimates in row 1; ``excess(masses, i, projected)`` scores such an array
    and returns it projected, redoing only class ``i`` of the projection
    ``projected`` of a move's start (every class if ``projected`` is None).
    Returns the best score and the best array projected.
    """
    best_val, best_projected = excess(masses, slice(None), None)
    best = masses
    _, k, m = masses.shape
    for level in range(20):
        step = 0.1 * epsilon * 0.5**level
        if step <= 0.0:
            break
        for _ in range(2):
            accepted = False
            if m <= 6:
                pairs = [(a, b) for a in range(m) for b in range(m) if a != b]
            else:
                pairs = [tuple(rng.choice(m, size=2, replace=False)) for _ in range(24)]
            for i in range(k):
                for row in (1, 0):
                    for a, b in pairs:  # move up to step of mass from atom a to atom b, if a holds any
                        if (moved := min(step, float(best[row, i, a]))) <= 0.0:
                            continue
                        trial = best.copy()
                        trial[row, i, a] -= moved
                        trial[row, i, b] += moved
                        val, projected = excess(trial, slice(i, i + 1), best_projected)
                        if val > best_val + 1e-15:
                            best_val, best, best_projected = val, trial, projected
                            accepted = True
            if not accepted:
                break
    return best_val, best_projected


def _seed_masses(metric: str, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """A ``k == m == 2`` search's first start, :func:`_two_atom_masses`: under L1 at ``(0.9 s, 0.1 s)``,
    ``s = min(epsilon, 0.45)``; under KL at tilt ``1e-3`` and the class separation, bisected, whose
    per-class KL uses the whole per-class budget ``2 * epsilon``."""
    if metric == L1:
        s = min(epsilon, 0.45)
        return _two_atom_masses(0.9 * s, 0.1 * s)
    gamma = 1e-3

    def fits(ep: float) -> bool:
        (true, _), (est, _) = _two_atom_masses(ep, gamma)[1]
        return _kl_on_support(true, est, true > 0.0) <= 2.0 * epsilon

    hi = 0.5 - gamma - 1e-9
    return _two_atom_masses(hi if fits(hi) else _bisect(fits, hi, 60), gamma)


def _check_search(k: int, m: int, iterations: int) -> None:
    """:func:`tightness_search`'s checks of its sizes, which the CLI also runs before it makes its out-dir."""
    if _json_int(iterations, "iterations") < 1:
        raise ValueError("iterations must be at least 1")
    if _json_int(k, "k") < 2 or _json_int(m, "m") < 1:
        raise ValueError("k must be at least 2 and m at least 1")


def tightness_search(
    k: int,
    m: int,
    cost: Optional[CostLike],
    budget: PerturbationBudget,
    iterations: int,
    rng: np.random.Generator,
) -> TightnessResult:
    """Random-restart coordinate search maximizing excess risk within the budget.

    ``iterations`` counts restarts; each restart climbs with step halving.
    When ``k == m == 2`` the first restart starts from the analytic
    two-atom lower-bound family, which already attains ratio
    ``(epsilon - gamma) / epsilon`` with ``gamma = epsilon / 10`` in the
    L1 metric. The returned ratio never exceeds 1 (plus float tolerance)
    because the bound is a theorem. Every instance is priors and ``(2, k, m)``
    masses from its first draw on; only the best one becomes objects.
    """
    _check_search(k, m, iterations)
    if budget.metric == L1 and cost is None:
        raise ValueError("the L1 metric needs a cost matrix")
    if budget.metric != L1:
        cost = None  # log loss ignores any cost matrix
    bound = theorem2_bound(budget.epsilon, k) if cost is None else theorem1_bound(budget.epsilon, k, cost)

    if budget.epsilon == 0.0 or bound == 0.0:
        uniform = np.full((2, k, m), 1.0 / m)
        _exact_unit_mass(uniform.reshape(-1, m))
        return TightnessResult(*_as_objects(np.full(k, 1.0 / k), uniform), 0.0, bound, 0.0)

    costs = None if cost is None else as_cost_array(cost, k)

    def excess(priors: np.ndarray, masses: np.ndarray, classes, projected) -> tuple[float, np.ndarray]:
        """The excess risk of ``masses`` with every row at unit mass and the estimates in the budget, and that
        projection: a copy of ``projected`` with the ``classes`` redone (each class's rows project on their own)."""
        projected = (masses if projected is None else projected).copy()
        changed = projected[:, classes]
        changed[:] = masses[:, classes]
        _exact_unit_mass(changed.reshape(-1, m))
        _into_budget(budget.metric, *changed, budget.epsilon / priors[classes])
        scored = projected * priors[:, None]
        risk_opt, risk_plugin = _plugin_risk(scored[0], scored, costs).tolist()
        value = risk_plugin - risk_opt
        return value if math.isfinite(value) else -math.inf, projected

    best_val = -math.inf
    best = None
    for restart in range(iterations):
        if restart == 0 and k == 2 and m == 2:
            priors, masses = _seed_masses(budget.metric, budget.epsilon)
        else:
            priors = (np.full(k, 1.0 / k) if rng.random() < 0.5  # or a random source's, its weights drawn and left
                      else _sources(rng, np.ones((k, m), bool), np.array([k]))[0])
            true = _unit_rows(rng.standard_gamma(0.6, (k, m)) + 1e-300)
            radius = min(budget.epsilon / priors.min(), 2.0) if budget.metric == L1 else 1.0
            # One class at a time, so that under KL each class's floor weight follows its noise.
            moves = [_moves(rng, np.ones((1, m), bool), radius, budget.metric == KL) for _ in range(k)]
            # The estimates start from the true rows rescaled a second time. _exact_unit_mass is not
            # idempotent (it can move a row it left one ulp off), and the recorded searches rest on it.
            masses = np.array([true, _moved(_exact_unit_mass(true.copy()), budget.metric,
                                            *map(np.concatenate, zip(*moves)))])
        val, projected = _climb(masses, partial(excess, priors), budget.epsilon, rng)
        if val > best_val:
            best_val = val
            best = priors, projected

    source, est = _as_objects(*best)
    excess = max(best_val, 0.0)
    ratio = excess / bound if bound > 0.0 else 0.0
    return TightnessResult(source, est, excess, bound, ratio)
