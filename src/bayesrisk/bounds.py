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
trivially satisfied) so randomized sweeps stay total. Every risk, in the
checks, the PAC trial and the tightness search, is ``_plugin_risk`` on raw
``(k, m)`` masses; the optimal risk is that scorer on the true classes.

The two-atom constructions reproduce the matching lower bounds: the cost
construction leaves slack exactly ``2 * gamma * max_cost`` against the
k=2 bound, and the log-loss construction meets its bound exactly when
the estimated mixture coincides with the true one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from .classify import CostLike, CostMatrix, LabeledSource, as_cost_array
from .classify import _bayes_labels, _cost_risk, _logloss_risk, _posterior, _workspace
from .distributions import Distribution, Domain, kl_divergence, make_distribution
from .distributions import _exact_unit_mass, _kl_on_support, _l1_distance

BOUND_TOL = 1e-9
EXCESS_TOL = 1e-12

L1 = "L1"
KL = "KL"


@dataclass(frozen=True)
class PerturbationBudget:
    """Divergence budget: per-class divergence is allowed up to ``epsilon / g_i``."""

    metric: str
    epsilon: float

    def __post_init__(self) -> None:
        if self.metric not in (L1, KL):
            raise ValueError(f"metric must be one of {L1!r}, {KL!r}")
        if not math.isfinite(self.epsilon) or self.epsilon < 0.0:
            raise ValueError("budget epsilon must be finite and non-negative")


def report_rows(*excluded: str):
    """Class decorator giving a report dataclass row forms derived from its fields.

    ``to_dict`` maps every field to its value; ``CSV_COLUMNS`` and
    ``csv_row`` cover every field but ``excluded``, in declaration order.
    The names are resolved once per class, not per row.
    """

    def derive(cls):
        names = tuple(f.name for f in fields(cls))
        columns = tuple(n for n in names if n not in excluded)
        every, csv_values = attrgetter(*names), attrgetter(*columns)

        def to_dict(self) -> dict:
            return dict(zip(names, every(self)))

        def csv_row(self) -> list:
            return list(csv_values(self))

        cls.CSV_COLUMNS, cls.to_dict, cls.csv_row = columns, to_dict, csv_row
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
        if not (self.excess >= -EXCESS_TOL):
            raise ValueError(f"negative excess {self.excess!r}: optimality violated")
        expected = self.bound == math.inf or self.excess <= self.bound + BOUND_TOL
        if self.satisfied != expected:
            raise ValueError("satisfied flag inconsistent with excess and bound")


def theorem1_bound(epsilon: float, k: int, cost: CostLike) -> float:
    """Cost-loss excess bound ``epsilon * k * max_ij c_ij``."""
    if epsilon < 0.0:
        raise ValueError("epsilon must be non-negative")
    return epsilon * k * float(as_cost_array(cost, k).max())


def theorem2_bound(epsilon: float, k: int) -> float:
    """Log-loss excess bound ``k * epsilon`` (bits)."""
    if epsilon < 0.0:
        raise ValueError("epsilon must be non-negative")
    return k * epsilon


def _check_estimates(true_source: LabeledSource, est_dists: Sequence[Distribution]) -> tuple[Distribution, ...]:
    est = tuple(est_dists)
    if len(est) != true_source.k:
        raise ValueError("one estimated distribution per class required")
    for d in est:
        if d.domain != true_source.domain:
            raise ValueError("estimates must live on the source's domain")
    return est


def _plugin_risk(priors, weighted, est, costs, ws=None) -> float:
    """Risk, on true classes of weighted masses ``weighted``, of the Bayes classifier under the
    cost array ``costs`` (the posterior rule under log loss if ``costs is None``) built from the
    true ``priors`` and the ``(k, m)`` estimated masses ``est``, which become their weighted
    masses. The rest is written into the workspace ``ws``, allocated afresh if not given."""
    _, scores, labels, row, mask = ws or _workspace(*est.shape)
    est *= priors[:, None]
    if costs is None:
        _posterior(est, scores, row, mask)
        return _logloss_risk(scores, weighted)
    _bayes_labels(costs, est, scores, labels, mask)
    return _cost_risk(costs, labels, weighted, scores)


def _optimal_risk(source: LabeledSource, cost: Optional[CostLike], ws=None) -> float:
    """Risk of the optimal predictor, the Bayes classifier under ``cost`` or the posterior rule
    under log loss (``cost is None``): :func:`_plugin_risk` of the true classes themselves."""
    est = np.stack([d.mass for d in source.class_dists], out=None if ws is None else ws[0])
    costs = None if cost is None else as_cost_array(cost, source.k)
    return _plugin_risk(source.priors, source.weighted_mass, est, costs, ws)


def _theorem_report(
    true_source: LabeledSource,
    cost: Optional[CostLike],
    divergences: Sequence[float],
    risk_opt: float,
    risk_plugin: float,
) -> BoundReport:
    """The cost-loss bound's report from per-class L1 distances, or with
    ``cost is None`` the log-loss bound's report from per-class KLs."""
    eps = max(float(g) * v for g, v in zip(true_source.priors, divergences))
    if cost is None:
        bound = theorem2_bound(eps, true_source.k)
    else:
        bound = theorem1_bound(eps, true_source.k, cost)
    excess = risk_plugin - risk_opt
    satisfied = bound == math.inf or excess <= bound + BOUND_TOL
    slack = math.inf if bound == math.inf else bound - excess
    return BoundReport(risk_opt, risk_plugin, excess, bound, slack, satisfied, eps)


def check_theorem1(
    true_source: LabeledSource, est_dists: Sequence[Distribution], cost: CostLike
) -> BoundReport:
    """Exactly evaluate the cost-loss bound for one (source, estimates, cost) instance.

    The effective budget is ``eps = max_i g_i * L1(D_i, D'_i)``; the report
    compares the exact excess risk of the plug-in classifier against
    ``eps * k * max_ij c_ij``. The guarantee is unconditional, so
    ``satisfied`` is True on every valid instance.
    """
    est = _check_estimates(true_source, est_dists)
    l1s = [_l1_distance(d.mass, e.mass) for d, e in zip(true_source.class_dists, est)]
    costs = as_cost_array(cost, true_source.k)
    masses = np.stack([e.mass for e in est])
    risk_plugin = _plugin_risk(true_source.priors, true_source.weighted_mass, masses, costs)
    return _theorem_report(true_source, cost, l1s, _optimal_risk(true_source, costs), risk_plugin)


def check_theorem2(true_source: LabeledSource, est_dists: Sequence[Distribution]) -> BoundReport:
    """Exactly evaluate the log-loss bound for one (source, estimates) instance.

    ``eps = max_i g_i * KL(D_i || D'_i)``; infinite per-class KL yields an
    infinite bound (the hypothesis is vacuous there).
    """
    return _logloss_check(true_source, _check_estimates(true_source, est_dists), identity=False)[0]


def _logloss_check(
    true_source: LabeledSource, est: tuple[Distribution, ...], identity: bool = True
) -> tuple[BoundReport, Optional[float]]:
    """The log-loss bound's report and, if ``identity`` is set and every per-class KL is
    finite, the identity's ``rhs`` from the same KLs (``None`` otherwise)."""
    kls = [_kl_on_support(d.mass, e.mass, d.mass > 0.0) for d, e in zip(true_source.class_dists, est)]
    weighted = np.stack([e.mass for e in est])  # the scorer weights it in place
    risk_plugin = _plugin_risk(true_source.priors, true_source.weighted_mass, weighted, None)
    report = _theorem_report(true_source, None, kls, _optimal_risk(true_source, None), risk_plugin)
    if not (identity and all(math.isfinite(v) for v in kls)):
        return report, None
    # The estimated mixture q is rescaled as mixture_distribution rescales the true one, p.
    p, q = true_source.mixture_distribution().mass, weighted.sum(axis=0)
    mix_kl = _kl_on_support(p, _exact_unit_mass(q, float(q.sum())), p > 0.0)
    return report, sum(float(g) * v for g, v in zip(true_source.priors, kls)) - mix_kl


def excess_logloss_identity(
    true_source: LabeledSource, est_dists: Sequence[Distribution]
) -> tuple[float, float]:
    """Both sides of the exact excess-log-loss identity.

    Returns ``(lhs, rhs)`` where ``lhs`` is the plug-in rule's excess
    log-loss risk and ``rhs = sum_i g_i * KL(D_i || D'_i) - KL(D || D')``
    with the prior-weighted mixtures ``D, D'``. The two agree to float
    round-off whenever every per-class KL is finite.
    """
    report, rhs = _logloss_check(true_source, _check_estimates(true_source, est_dists))
    if rhs is None:
        raise ValueError(
            "per-class KL divergence is infinite: estimate supports must cover the true class supports"
        )
    return report.excess, rhs


def _two_atom_instance(
    epsilon_prime: float, gamma: float
) -> tuple[LabeledSource, tuple[Distribution, Distribution]]:
    ok = (
        math.isfinite(epsilon_prime)
        and math.isfinite(gamma)
        and epsilon_prime >= 0.0
        and gamma >= 0.0
        and epsilon_prime + gamma < 0.5
    )
    if not ok:
        raise ValueError(
            f"parameter out of range: need epsilon_prime >= 0, gamma >= 0, "
            f"epsilon_prime + gamma < 1/2; got ({epsilon_prime!r}, {gamma!r})"
        )
    domain = Domain(("x0", "x1"))
    d0 = Distribution(domain, np.array([0.5 + epsilon_prime, 0.5 - epsilon_prime]))
    d1 = Distribution(domain, np.array([0.5 - epsilon_prime, 0.5 + epsilon_prime]))
    e0 = Distribution(domain, np.array([0.5 - gamma, 0.5 + gamma]))
    e1 = Distribution(domain, np.array([0.5 + gamma, 0.5 - gamma]))
    source = LabeledSource(np.array([0.5, 0.5]), (d0, d1))
    return source, (e0, e1)


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
    source, est = _two_atom_instance(epsilon_prime, gamma)
    return source, est, CostMatrix.zero_one(2)


def example2_construction(
    epsilon_prime: float, gamma: float
) -> tuple[LabeledSource, tuple[Distribution, Distribution]]:
    """The same two-atom instance in the log-loss setting.

    The true and estimated mixtures both equal the uniform distribution,
    so the excess log-loss equals the per-class KL divergence exactly and
    the log-loss bound is met with zero slack.
    """
    return _two_atom_instance(epsilon_prime, gamma)


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


def _project_into_budget(metric: str, p: np.ndarray, q: np.ndarray, limit: float) -> np.ndarray:
    """Pull the unit mass ``q`` toward ``p`` until its divergence from ``p`` fits: ``q`` itself
    if it already fits, else a fresh blend at unit mass."""
    if metric == L1:
        distance = _l1_distance(p, q)
        if distance <= limit:
            return q
        # Non-negative in floats for p, q >= 0 and t = limit / distance <= 1:
        # rounding is monotone, so q - p >= -p, t * (q - p) >= -p, and the sum >= 0.
        blend = p + limit / distance * (q - p)
    else:
        support = p > 0.0
        if _kl_on_support(p, q, support) <= limit:
            return q

        def fits(t: float) -> bool:
            blend = (1.0 - t) * p + t * q
            return _kl_on_support(p, _exact_unit_mass(blend, float(blend.sum())), support) <= limit

        t = _bisect(fits, 1.0, 50)
        blend = (1.0 - t) * p + t * q
    return _exact_unit_mass(blend, float(blend.sum()))


def random_l1_perturbation(
    d: Distribution, budget: float, rng: np.random.Generator
) -> Distribution:
    """Random valid distribution within L1 distance ``budget`` of ``d``.

    A zero-sum signed transfer vector of L1 norm ``budget`` is added,
    clipped to keep non-negativity, and renormalized; if clipping pushed
    the distance past the budget the result is pulled back along the
    segment toward ``d``, which scales the L1 distance linearly.
    """
    if not 0.0 <= budget <= 2.0:
        raise ValueError("L1 budget must lie in [0, 2]")
    m = d.domain.size
    if budget == 0.0 or m == 1:
        return d
    v = rng.standard_normal(m)
    v -= v.sum() / m
    norm = float(np.abs(v).sum())
    if norm == 0.0:
        return d
    v *= budget / norm
    cand = make_distribution(d.domain, np.clip(d.mass + v, 0.0, None)).mass
    return Distribution._frozen(d.domain, _project_into_budget(L1, d.mass, cand, budget))


def support_safe_perturbation(
    d: Distribution,
    budget: float,
    rng: np.random.Generator,
    floor: float = 0.05,
) -> Distribution:
    """Randomly perturbed estimate with full support (finite KL guaranteed)."""
    rough = random_l1_perturbation(d, budget, rng)
    lam = float(rng.uniform(0.2 * floor, floor))
    return Distribution._own(d.domain, (1.0 - lam) * rough.mass + lam / d.domain.size)


def random_source(
    rng: np.random.Generator, k: int, m: int, domain: Optional[Domain] = None
) -> LabeledSource:
    """Random labeled source with priors bounded away from zero."""
    if domain is None:
        domain = Domain.indexed(m)
    priors = rng.uniform(0.05, 1.0, k)
    priors /= priors.sum()
    alpha = float(rng.choice([0.3, 1.0, 3.0]))
    dists = tuple(
        make_distribution(domain, rng.gamma(alpha, 1.0, m) + 1e-300) for _ in range(k)
    )
    return LabeledSource(priors, dists)


def random_cost(rng: np.random.Generator, k: int) -> CostMatrix:
    """Random cost matrix: 0/1, dense random, or scaled zero-diagonal."""
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return CostMatrix.zero_one(k)
    if kind == 1:
        c = rng.uniform(0.0, 1.0, (k, k))
        c[0, 1] += 1.0
        return CostMatrix(c)
    c = rng.uniform(0.1, 5.0, (k, k))
    np.fill_diagonal(c, 0.0)
    return CostMatrix(c)


def _random_instance(
    rng: np.random.Generator, k_max: int, m_max: int, perturb, max_budget: float
) -> tuple[LabeledSource, tuple[Distribution, ...]]:
    """Draw k, then m, then the source, then per class a budget and its perturbation."""
    k = int(rng.integers(2, k_max + 1))
    m = int(rng.integers(2, m_max + 1))
    source = random_source(rng, k, m)
    est = tuple(
        perturb(d, float(rng.uniform(0.0, max_budget)), rng) for d in source.class_dists
    )
    return source, est


def random_theorem1_instance(
    rng: np.random.Generator, k_max: int = 5, m_max: int = 64
) -> tuple[LabeledSource, tuple[Distribution, ...], CostMatrix]:
    source, est = _random_instance(rng, k_max, m_max, random_l1_perturbation, 2.0)
    return source, est, random_cost(rng, source.k)


def random_theorem2_instance(
    rng: np.random.Generator, k_max: int = 5, m_max: int = 64
) -> tuple[LabeledSource, tuple[Distribution, ...]]:
    return _random_instance(rng, k_max, m_max, support_safe_perturbation, 1.5)


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
                pairs = [
                    tuple(rng.choice(m, size=2, replace=False)) for _ in range(24)
                ]
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


def _seed_l1_lower_bound(epsilon: float) -> tuple[LabeledSource, tuple[Distribution, ...]]:
    s = min(epsilon, 0.45)
    source, est, _ = example1_construction(0.9 * s, 0.1 * s)
    return source, est


def _seed_kl_lower_bound(epsilon: float) -> tuple[LabeledSource, tuple[Distribution, ...]]:
    # Bisect the class separation until the per-class KL of the mirrored
    # two-atom instance uses the whole per-class budget 2 * epsilon.
    gamma = 1e-3

    def fits(ep: float) -> bool:
        src, est = example2_construction(ep, gamma)
        return kl_divergence(src.class_dists[0], est[0]) <= 2.0 * epsilon

    hi = 0.5 - gamma - 1e-9
    return example2_construction(hi if fits(hi) else _bisect(fits, hi, 60), gamma)


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
    because the bound is a theorem.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    if budget.metric == L1 and cost is None:
        raise ValueError("the L1 metric needs a cost matrix")
    domain = Domain.indexed(m)
    if budget.metric == L1:
        bound = theorem1_bound(budget.epsilon, k, cost)
    else:
        bound = theorem2_bound(budget.epsilon, k)
        cost = None  # log loss ignores any cost matrix

    uniform = np.full(m, 1.0 / m)
    if budget.epsilon == 0.0 or bound == 0.0:
        dists = tuple(Distribution(domain, uniform) for _ in range(k))
        source = LabeledSource(np.full(k, 1.0 / k), dists)
        return TightnessResult(source, dists, 0.0, bound, 0.0)

    costs = None if cost is None else as_cost_array(cost, k)

    def unit_masses(priors: np.ndarray, masses: np.ndarray) -> np.ndarray:
        """A copy of ``masses`` with every row at unit mass and the estimates in the budget."""
        masses = masses.copy()
        for row in masses.reshape(-1, m):
            _exact_unit_mass(row, float(row.sum()))
        for t, e, g in zip(*masses, priors):
            e[:] = _project_into_budget(budget.metric, t, e, budget.epsilon / float(g))
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
            seed = _seed_l1_lower_bound if budget.metric == L1 else _seed_kl_lower_bound
            source, est = seed(budget.epsilon)
            priors = np.asarray(source.priors)
            masses = np.array([[d.mass for d in source.class_dists], [d.mass for d in est]])
        else:
            priors = (
                np.full(k, 1.0 / k)
                if rng.random() < 0.5
                else np.asarray(random_source(rng, k, m, domain).priors)
            )
            true_masses = [
                make_distribution(domain, rng.gamma(0.6, 1.0, m) + 1e-300).mass
                for _ in range(k)
            ]
            if budget.metric == L1:
                perturb, radius = random_l1_perturbation, min(budget.epsilon / priors.min(), 2.0)
            else:
                perturb, radius = support_safe_perturbation, 1.0
            est_masses = [perturb(Distribution(domain, t), radius, rng).mass for t in true_masses]
            masses = np.array([true_masses, est_masses])
        val, masses = _climb(masses, partial(excess, priors), budget.epsilon, rng)
        if val > best_val:
            best_val = val
            best = priors, masses

    priors, (true, est) = best[0], unit_masses(*best)
    source = LabeledSource(priors, tuple(Distribution._frozen(domain, t) for t in true))
    est = tuple(Distribution._frozen(domain, e) for e in est)
    excess = max(best_val, 0.0)
    ratio = excess / bound if bound > 0.0 else 0.0
    return TightnessResult(source, est, excess, bound, ratio)
