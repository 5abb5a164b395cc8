"""Risk-bound computation, verification, and tightness probing.

Two bounds are checked against exact excess risks:

- cost loss: if every class satisfies ``L1(D_i, D'_i) <= eps / g_i`` then
  the plug-in classifier's risk exceeds the Bayes risk by at most
  ``eps * k * max_ij c_ij``;
- log loss: if every class satisfies ``KL(D_i || D'_i) <= eps / g_i``
  then the plug-in rule's log-loss risk exceeds the optimum by at most
  ``k * eps``, and the excess obeys the exact identity
  ``excess = sum_i g_i * KL(D_i || D'_i) - KL(D || D')`` with ``D, D'``
  the prior-weighted mixtures.

Checkers invert the hypothesis: the effective ``eps`` is
``max_i g_i * divergence_i``, the tightest budget for which the
hypothesis holds, which makes every check as strict as possible. An
infinite per-class KL gives an infinite bound (vacuous hypothesis,
trivially satisfied) so randomized sweeps stay total. A sweep makes its
instances in blocks: every draw first, then each row kernel once per domain
size, on the stacked rows of the block's instances of that size. Every risk,
in the checks, the PAC trial and the tightness search, is ``_plugin_risk`` on
raw ``(k, m)`` masses; the optimal risk is that scorer on the true classes.
Every verdict "value <= bound" is decided by ``_within``, the one place
``BOUND_TOL`` is read.

The two-atom constructions reproduce the matching lower bounds: the cost
construction leaves slack exactly ``2 * gamma * max_cost`` against the
k=2 bound, and the log-loss construction meets its bound exactly when
the estimated mixture coincides with the true one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .classify import CostLike, CostMatrix, LabeledSource, as_cost_array
from .classify import _bayes_labels, _cost_risk, _logloss_risk, _posterior, _workspace
from .distributions import Distribution, Domain, _json_float, _json_int
from .distributions import _exact_unit_mass, _kl_on_support, _l1_distance, _sorted_set, _trusted, _unit_rows

# Tolerance of every "value <= bound" verdict, read only by _within.
BOUND_TOL = 1e-9
# Tolerance of checks exact in real arithmetic: optimality, closed forms, smoothing's hypothesis.
EXACT_TOL = 1e-12

L1 = "L1"
KL = "KL"

# Bytes one block of sweep instances may hold, each charged its largest class weights plus
# _INSTANCE_BYTES for its other arrays and objects (1.1-1.7 KiB at k = m = 2 by tracemalloc).
_BLOCK_BYTES = 1 << 20
_INSTANCE_BYTES = 2048


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


def report_rows(*excluded: str):
    """Class decorator giving a frozen report dataclass row forms derived from its fields.

    ``to_dict`` maps every field to its value; ``row`` maps every field but
    ``excluded`` to its value, in declaration order: a CSV row whose keys
    are its columns. Both copy the instance dict, which holds exactly the
    fields in that order: the dataclass's ``__init__`` sets them so, and a
    frozen instance takes no other attribute.
    """

    def derive(cls):
        def to_dict(self) -> dict:
            return self.__dict__.copy()

        def row(self) -> dict:
            values = self.__dict__.copy()
            for name in excluded:
                del values[name]
            return values

        cls.to_dict, cls.row = to_dict, row
        return cls

    return derive


@report_rows("epsilon")
@dataclass(frozen=True)
class BoundReport:
    """Exact risks of the optimal and plug-in predictors against one bound."""

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


def _within(value, bound: float):
    """The verdict ``value <= bound`` up to ``BOUND_TOL``, true for an infinite bound;
    elementwise for an array ``value``."""
    return bound == math.inf or value <= bound + BOUND_TOL


def theorem1_bound(epsilon: float, k: int, cost: CostLike) -> float:
    """Cost-loss excess bound ``epsilon * k * max_ij c_ij``."""
    if not epsilon >= 0.0:
        raise ValueError("epsilon must be non-negative")
    return epsilon * k * float(as_cost_array(cost, k).max())


def theorem2_bound(epsilon: float, k: int) -> float:
    """Log-loss excess bound ``k * epsilon`` (bits)."""
    if not epsilon >= 0.0:
        raise ValueError("epsilon must be non-negative")
    return k * epsilon


def _divergences(true: np.ndarray, est: np.ndarray, metric: str) -> np.ndarray:
    """Each row's L1 distance (``L1``) or KL (``KL``, inf off the estimate's support), of ``(n, m)`` masses."""
    return _l1_distance(true, est) if metric == L1 else _kl_on_support(true, est, true > 0.0)


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


def _plugin_risk(priors, weighted, est, costs, ws=None, hits=None, base=None) -> float:
    """Risk, on true classes of weighted masses ``weighted``, of the Bayes classifier under the
    cost array ``costs`` (the posterior rule under log loss if ``costs is None``) built from the
    true ``priors`` and the ``(k, m)`` estimated masses ``est``, which become their weighted
    masses. The rest is written into the workspace ``ws``, allocated afresh if not given. ``hits``, each
    class's sorted atoms outside which its estimate is zero, limits the weighting and the label scan, and
    the cost risk's sum to their leaves, given ``base`` as :func:`_cost_risk` takes it."""
    _, scores, labels, row, mask = ws or _workspace(*est.shape)
    if hits is None:
        est *= priors[:, None]
    else:
        for e, g, h in zip(est, priors, hits):
            e[h] *= g
    if costs is None:
        _posterior(est, scores, row, mask)
        return _logloss_risk(scores, weighted)
    cols = slice(None) if hits is None else _sorted_set(np.concatenate(hits))
    labels = _bayes_labels(costs, est, scores, labels, mask, cols)
    return _cost_risk(costs, labels, weighted, scores, cols, base)


def _theorem_report(
    priors: np.ndarray, cost: Optional[CostLike], divergences, risk_opt: float, risk_plugin: float
) -> BoundReport:
    """The cost-loss bound's report from per-class L1 distances, or with
    ``cost is None`` the log-loss bound's report from per-class KLs."""
    eps = float((priors * divergences).max())
    if cost is None:
        bound = theorem2_bound(eps, len(priors))
    else:
        bound = theorem1_bound(eps, len(priors), cost)
    excess = risk_plugin - risk_opt
    slack = math.inf if bound == math.inf else bound - excess
    return BoundReport(risk_opt, risk_plugin, excess, bound, slack, _within(excess, bound), eps)


def _scored(priors, masses, divergences, cost):
    """The bound's report for :func:`_as_arrays`' arrays under ``cost`` (log loss if ``None``), with
    the weighted true and estimated masses."""
    true, est = masses
    weighted = true * priors[:, None]
    costs = None if cost is None else as_cost_array(cost, len(priors))
    est = est.copy()  # the scorer weights it in place
    risk_plugin = _plugin_risk(priors, weighted, est, costs)
    risk_opt = _plugin_risk(priors, weighted, true.copy(), costs)
    return _theorem_report(priors, cost, divergences, risk_opt, risk_plugin), weighted, est


def _check(priors, masses, divergences, cost) -> tuple[BoundReport, Optional[float]]:
    """:func:`_scored`'s report, and under log loss with every per-class KL finite, the identity's
    ``rhs`` from the same KLs (``None`` otherwise)."""
    report, weighted, est = _scored(priors, masses, divergences, cost)
    if not (cost is None and np.isfinite(divergences).all()):
        return report, None
    return report, sum((priors * divergences).tolist()) - _mixture_kl(weighted, est)


def _mixture_kl(weighted, est) -> float:
    """The identity's KL from the true mixture, ``weighted``'s column sums, to ``est``'s, each made unit."""
    p, q = _exact_unit_mass(np.array([weighted.sum(axis=0), est.sum(axis=0)]))
    return _kl_on_support(p, q, p > 0.0)


def _verdict(priors, masses, divergences, cost) -> tuple[BoundReport, Optional[float], bool]:
    """One instance's verdict, as the sweeps, replays and ``lower-bounds`` decide it:
    ``(report, identity_gap, ok)`` for :func:`_check`'s arguments. ``identity_gap`` is
    ``|excess - rhs|`` where :func:`_check` gives the identity's ``rhs`` (``None`` otherwise);
    ``ok`` needs the bound satisfied and any gap within the gate."""
    report, rhs = _check(priors, masses, divergences, cost)
    gap = None if rhs is None else abs(report.excess - rhs)
    return report, gap, report.satisfied and (gap is None or _within(gap, 0.0))


def check_theorem1(
    true_source: LabeledSource, est_dists: Sequence[Distribution], cost: CostLike
) -> BoundReport:
    """Exactly evaluate the cost-loss bound for one (source, estimates, cost) instance.

    The effective budget is ``eps = max_i g_i * L1(D_i, D'_i)``; the report
    compares the exact excess risk of the plug-in classifier against
    ``eps * k * max_ij c_ij``. The guarantee is unconditional, so
    ``satisfied`` is True on every valid instance.
    """
    return _scored(*_as_arrays(true_source, est_dists, L1), cost)[0]


def check_theorem2(true_source: LabeledSource, est_dists: Sequence[Distribution]) -> BoundReport:
    """Exactly evaluate the log-loss bound for one (source, estimates) instance.

    ``eps = max_i g_i * KL(D_i || D'_i)``; infinite per-class KL yields an
    infinite bound (the hypothesis is vacuous there).
    """
    return _scored(*_as_arrays(true_source, est_dists, KL), None)[0]


def excess_logloss_identity(
    true_source: LabeledSource, est_dists: Sequence[Distribution]
) -> tuple[float, float]:
    """Both sides of the exact excess-log-loss identity.

    Returns ``(lhs, rhs)`` where ``lhs`` is the plug-in rule's excess
    log-loss risk and ``rhs = sum_i g_i * KL(D_i || D'_i) - KL(D || D')``
    with the prior-weighted mixtures ``D, D'``. The two agree to float
    round-off whenever every per-class KL is finite.
    """
    report, rhs = _check(*_as_arrays(true_source, est_dists, KL), None)
    if rhs is None:
        raise ValueError(
            "per-class KL divergence is infinite: estimate supports must cover the true class supports"
        )
    return report.excess, rhs


def _two_atom_masses(epsilon_prime: float, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """The two-atom, two-class instance's equal priors and ``(2, 2, 2)`` masses: the true classes put
    ``1/2 +- epsilon_prime`` on the atoms and the estimates lean ``gamma`` the other way."""
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


def _into_budget(metric: str, true: np.ndarray, est: np.ndarray, limits: np.ndarray) -> np.ndarray:
    """Pull each row ``q`` of the ``(n, m)`` unit masses ``est`` whose :func:`_divergences` from its row ``p``
    of ``true`` is over its entry of ``limits`` back toward ``p``, in place and at unit mass: under L1 to
    ``p + t * (q - p)``, ``t`` the limit over the distance (non-negative in floats: rounding is monotone, so
    q - p >= -p, t * (q - p) >= -p, sum >= 0); under KL to ``(1 - t) * p + t * q``, ``t`` bisected in 50 steps."""
    divergences = _divergences(true, est, metric)
    over = np.flatnonzero(divergences > limits)
    if metric == KL:
        for i, limit in zip(over.tolist(), limits[over].tolist()):
            p, q, support = true[i], est[i], true[i] > 0.0

            def fits(t: float) -> bool:
                blend = (1.0 - t) * p + t * q
                return _kl_on_support(p, _exact_unit_mass(blend), support) <= limit

            t = _bisect(fits, 1.0, 50)
            est[i] = _exact_unit_mass((1.0 - t) * p + t * q)
    elif len(over):
        p = true[over]
        est[over] = _exact_unit_mass(p + (limits[over] / divergences[over])[:, None] * (est[over] - p))
    return est


def _draw_noise(rng: np.random.Generator, budget: float, row: np.ndarray) -> None:
    """:func:`random_l1_perturbation`'s draw, into ``row``: none for a zero budget or one atom."""
    if budget != 0.0 and len(row) != 1:
        rng.standard_normal(out=row)


def _perturb_rows(true: np.ndarray, budgets: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """:func:`random_l1_perturbation` of each row of the ``(n, m)`` unit masses ``true`` at its
    budget, on its row of normal ``noise`` (zeros if not drawn; centred in place)."""
    noise -= (noise.sum(axis=1) / true.shape[1])[:, None]
    norms = np.abs(noise).sum(axis=1)
    every = bool(norms.all())  # then the rows are taken as views and the candidates are the result
    moved = slice(None) if every else np.flatnonzero(norms)
    if not (every or len(moved)):
        return true.copy()
    t, limits = true[moved], budgets[moved]
    # np.maximum(x, 0.0) is np.clip(x, 0.0, None) without its Python wrapper.
    cand = _unit_rows(np.maximum(t + noise[moved] * (limits / norms[moved])[:, None], 0.0))
    _into_budget(L1, t, cand, limits)
    if every:
        return cand
    est = true.copy()
    est[moved] = cand
    return est


def _floor_rows(rough: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """:func:`support_safe_perturbation`'s mix of each row of ``rough`` with uniform at ``lams``."""
    return _exact_unit_mass((1.0 - lams)[:, None] * rough + (lams / rough.shape[1])[:, None])


def _draw_moves(rng: np.random.Generator, k: int, m: int, metric: str, budget):
    """The draws that move ``k`` classes of ``m`` atoms, ``(budgets, noise, lams)``, class by class in
    the public generators' order: its budget ``budget()``, its noise (:func:`_draw_noise`) and under
    KL its floor weight in ``[0.2 * 0.05, 0.05]``."""
    budgets, noise, lams = np.empty(k), np.zeros((k, m)), np.empty(k)
    for i in range(k):
        budgets[i] = budget()
        _draw_noise(rng, budgets[i], noise[i])
        if metric == KL:
            lams[i] = rng.uniform(0.2 * 0.05, 0.05)
    return budgets, noise, lams


def _moved(true: np.ndarray, metric: str, budgets, noise, lams) -> np.ndarray:
    """The estimates of the ``(k, m)`` unit masses ``true`` on :func:`_draw_moves`' draws: each row
    perturbed within its L1 budget and, under KL, mixed with uniform to full support."""
    est = _perturb_rows(true, budgets, noise)
    return _floor_rows(est, lams) if metric == KL else est


def _perturbed(d: Distribution, budget: float, rng: np.random.Generator, metric: str) -> Distribution:
    """:func:`_moved` of the one distribution ``d``."""
    if not 0.0 <= _json_float(budget, "L1 budget") <= 2.0:
        raise ValueError("L1 budget must lie in [0, 2]")
    moves = _draw_moves(rng, 1, d.domain.size, metric, lambda: budget)
    return Distribution._frozen(d.domain, _moved(d.mass[None], metric, *moves)[0])


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


def _draw_source(rng: np.random.Generator, k: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`random_source`'s draws: normalized priors and ``(k, m)`` class weights off zero."""
    priors = rng.uniform(0.05, 1.0, k)
    priors /= priors.sum()
    alpha = (0.3, 1.0, 3.0)[rng.integers(0, 3)]
    return priors, rng.gamma(alpha, 1.0, (k, m)) + 1e-300


def _as_objects(priors: np.ndarray, masses: np.ndarray) -> tuple:
    """The source holding the first ``(k, m)`` unit masses of the ``(n, k, m)`` ``masses`` and, for
    ``n == 2``, the estimates holding the second, on ``Domain.indexed(m)``; ``masses`` becomes read-only."""
    masses.flags.writeable = False
    domain = Domain.indexed(masses.shape[2])
    true, *est = (tuple(Distribution._frozen(domain, row) for row in rows) for rows in masses)
    return LabeledSource(priors, true), *est


def random_source(rng: np.random.Generator, k: int, m: int) -> LabeledSource:
    """Random labeled source over ``Domain.indexed(m)`` with priors bounded away from zero."""
    if k < 2 or m < 1:
        raise ValueError("k must be at least 2 and m at least 1")
    priors, weights = _draw_source(rng, k, m)
    return _as_objects(priors, _unit_rows(weights)[None])[0]


def random_cost(rng: np.random.Generator, k: int) -> CostMatrix:
    """Random cost matrix: 0/1, dense random, or scaled zero-diagonal."""
    kind = int(rng.integers(0, 3))
    if kind == 0:
        c = np.ones((k, k)) - np.eye(k)
    elif kind == 1:
        c = rng.uniform(0.0, 1.0, (k, k))
        c[0, 1] += 1.0
    else:
        c = rng.uniform(0.1, 5.0, (k, k))
        np.fill_diagonal(c, 0.0)
    c.flags.writeable = False
    return _trusted(CostMatrix, costs=c)  # unchecked: valid by construction, and a sweep makes one per instance


def _random_instances(rng: np.random.Generator, n: int, k_max: int, m_max: int, metric: str):
    """The metric's sweep of ``n`` instances in trial order, each as :func:`_as_arrays` gives it plus
    its cost (``None`` under KL). A block of instances, as many as ``_BLOCK_BYTES`` holds at ``k_max``
    classes of ``m_max`` atoms, makes every draw first, in the public generators' order (k, m, source,
    :func:`_draw_moves` at a uniform budget, under L1 the cost); then each row kernel runs once per
    domain size, on the stacked rows of its instances, and keeps each row's bits."""
    if k_max < 2 or m_max < 2:
        raise ValueError("k_max and m_max must be at least 2")
    budget = partial(rng.uniform, 0.0, 2.0 if metric == L1 else 1.5)
    per_block = max(1, _BLOCK_BYTES // (8 * k_max * m_max + _INSTANCE_BYTES))
    for start in range(0, n, per_block):
        drawn, sizes = [], {}
        for _ in range(min(per_block, n - start)):
            k, m = int(rng.integers(2, k_max + 1)), int(rng.integers(2, m_max + 1))
            priors, weights = _draw_source(rng, k, m)
            sizes.setdefault(m, []).append((len(drawn), weights, *_draw_moves(rng, k, m, metric, budget)))
            drawn.append([priors, None, None, random_cost(rng, k) if metric == L1 else None])
        for group in sizes.values():
            order, weights, *moves = zip(*group)
            true = _unit_rows(np.concatenate(weights))
            masses = np.stack((true, _moved(true, metric, *map(np.concatenate, moves))))
            cuts = np.cumsum([len(w) for w in weights[:-1]])
            for j, *rows in zip(order, np.split(masses, cuts, axis=1), np.split(_divergences(*masses, metric), cuts)):
                drawn[j][1:3] = rows
        yield from map(tuple, drawn)


def random_theorem1_instance(
    rng: np.random.Generator, k_max: int = 5, m_max: int = 64
) -> tuple[LabeledSource, tuple[Distribution, ...], CostMatrix]:
    priors, masses, _, cost = next(_random_instances(rng, 1, k_max, m_max, L1))
    return (*_as_objects(priors, masses), cost)


def random_theorem2_instance(
    rng: np.random.Generator, k_max: int = 5, m_max: int = 64
) -> tuple[LabeledSource, tuple[Distribution, ...]]:
    return _as_objects(*next(_random_instances(rng, 1, k_max, m_max, KL))[:2])


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


def _transfer(mass: np.ndarray, a: int, b: int, step: float) -> bool:
    moved = min(step, float(mass[a]))
    if moved <= 0.0:
        return False
    mass[a] -= moved
    mass[b] += moved
    return True


def _climb(
    masses: np.ndarray, excess, epsilon: float, rng: np.random.Generator
) -> tuple[float, np.ndarray]:
    """Coordinate hill climbing with step halving (20 levels from 0.1 * budget).

    ``masses`` is a (2, k, m) array, the true classes in row 0 and the raw
    estimates in row 1; ``excess`` scores such an array.
    """
    best_val = excess(masses)
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
                    for a, b in pairs:
                        trial = best.copy()
                        if not _transfer(trial[row, i], a, b, step):
                            continue
                        val = excess(trial)
                        if val > best_val + 1e-15:
                            best_val = val
                            best = trial
                            accepted = True
            if not accepted:
                break
    return best_val, best


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
    if _json_int(iterations, "iterations") < 1:
        raise ValueError("iterations must be at least 1")
    if k < 2 or m < 1:
        raise ValueError("k must be at least 2 and m at least 1")
    if budget.metric == L1 and cost is None:
        raise ValueError("the L1 metric needs a cost matrix")
    if budget.metric == L1:
        bound = theorem1_bound(budget.epsilon, k, cost)
    else:
        bound = theorem2_bound(budget.epsilon, k)
        cost = None  # log loss ignores any cost matrix

    if budget.epsilon == 0.0 or bound == 0.0:
        uniform = np.full((2, k, m), 1.0 / m)
        _exact_unit_mass(uniform.reshape(-1, m))
        return TightnessResult(*_as_objects(np.full(k, 1.0 / k), uniform), 0.0, bound, 0.0)

    costs = None if cost is None else as_cost_array(cost, k)

    def unit_masses(priors: np.ndarray, masses: np.ndarray) -> np.ndarray:
        """A copy of ``masses`` with every row at unit mass and the estimates in the budget."""
        masses = masses.copy()
        _exact_unit_mass(masses.reshape(-1, m))
        _into_budget(budget.metric, *masses, budget.epsilon / priors)
        return masses

    def excess(priors: np.ndarray, masses: np.ndarray) -> float:
        true, est = unit_masses(priors, masses)
        weighted = true * priors[:, None]
        value = _plugin_risk(priors, weighted, est, costs) - _plugin_risk(priors, weighted, true, costs)
        return value if math.isfinite(value) else -math.inf

    best_val = -math.inf
    best = None
    for restart in range(iterations):
        if restart == 0 and k == 2 and m == 2:
            priors, masses = _seed_masses(budget.metric, budget.epsilon)
        else:
            priors = np.full(k, 1.0 / k) if rng.random() < 0.5 else _draw_source(rng, k, m)[0]
            true = _unit_rows(rng.gamma(0.6, 1.0, (k, m)) + 1e-300)
            radius = min(budget.epsilon / priors.min(), 2.0) if budget.metric == L1 else 1.0
            moves = _draw_moves(rng, k, m, budget.metric, lambda: radius)
            # The estimates start from the true rows rescaled a second time. _exact_unit_mass is not
            # idempotent (it can move a row it left one ulp off), and the recorded searches rest on it.
            masses = np.array([true, _moved(_exact_unit_mass(true.copy()), budget.metric, *moves)])
        val, masses = _climb(masses, partial(excess, priors), budget.epsilon, rng)
        if val > best_val:
            best_val = val
            best = priors, masses

    source, est = _as_objects(best[0], unit_masses(*best))
    excess = max(best_val, 0.0)
    ratio = excess / bound if bound > 0.0 else 0.0
    return TightnessResult(source, est, excess, bound, ratio)
