"""An exact referee for theorems 1 and 2 and the smoothing certificate, independent of ``bayesrisk``.

Every finite float is a dyadic rational, so reading an instance's float priors,
masses and costs as :class:`fractions.Fraction` loses nothing, and every sum,
product and comparison of theorem 1 (the cost-loss bound) below is exact.
Theorem 2 (the log-loss bound) and the smoothing certificate need logarithms:
they are computed in :mod:`decimal` at ``PREC`` digits from the floats read
exactly (``Decimal(float)``), with a bound on the rounding error, and a verdict
is undecided where that error could reach the bound. The referee shares no code
with the package: it recomputes the Bayes labels, the risks, the per-class
divergences and the bounds from the inputs alone.
"""

import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction

PREC = 50


def _exact(values):
    return [Fraction(v) for v in values]


def bayes_labels(priors, masses, costs):
    """The exact Bayes labels of the classes ``masses`` (k rows over m atoms) under ``priors`` and the
    ``k x k`` ``costs``: per atom the label j minimizing ``sum_i costs[i][j] * priors[i] * masses[i][x]``,
    ties to the smallest label."""
    k = len(priors)
    weighted = [[g * d for d in row] for g, row in zip(priors, masses)]
    labels = []
    for column in zip(*weighted):
        scores = [sum(costs[i][j] * column[i] for i in range(k)) for j in range(k)]
        labels.append(scores.index(min(scores)))
    return labels


def cost_risk(labels, priors, masses, costs):
    """The exact risk ``sum_x sum_i costs[i][labels[x]] * priors[i] * masses[i][x]``."""
    return sum(c[label] * g * d for g, c, row in zip(priors, costs, masses) for label, d in zip(labels, row))


def theorem1(priors, true, est, costs):
    """The exact ``(excess, bound, estimate labels)`` of a theorem-1 instance, read from its floats: the
    plug-in classifier's risk (labels from the estimates and the true priors) minus the Bayes risk,
    both on the true classes, and the bound ``max_i g_i * L1_i * k * max_ij c_ij``."""
    priors = _exact(priors)
    true, est, costs = ([_exact(row) for row in rows] for rows in (true, est, costs))
    plugin = bayes_labels(priors, est, costs)
    excess = cost_risk(plugin, priors, true, costs) - cost_risk(bayes_labels(priors, true, costs), priors, true, costs)
    l1 = [sum(abs(p - q) for p, q in zip(p_row, q_row)) for p_row, q_row in zip(true, est)]
    bound = max(g * d for g, d in zip(priors, l1)) * len(priors) * max(max(row) for row in costs)
    return excess, bound, plugin


def refined(priors, true, est, costs):
    """The exact data-dependent cost bound ``R = sum_i (max_j c_ij - min_j c_ij) * g_i * L1_i`` of a theorem-1
    instance, read from its floats. At each atom the plug-in label minimizes the estimated score, so the excess there
    is at most ``sum_i (c_i,plugin - c_i,optimal) * g_i * (D_i - D'_i)``, and summed over atoms at most R; with
    non-negative costs R is at most the bound. Neither step needs unit rows."""
    priors = _exact(priors)
    true, est, costs = ([_exact(row) for row in rows] for rows in (true, est, costs))
    return sum((max(c) - min(c)) * g * sum(abs(p - q) for p, q in zip(p_row, q_row))
               for g, c, p_row, q_row in zip(priors, costs, true, est))


def _unit(row):
    """The float ``row`` read exactly, then scaled to unit sum."""
    row = [Decimal(x) for x in row]
    total = sum(row)
    return [x / total for x in row]


def _nats(terms, depth):
    """``(sum of -w * ln(r), error)`` over the pairs ``(w, r)`` of ``terms``, ``+inf`` if some ``r`` is 0 at
    ``w > 0``. ``error`` bounds the sum's rounding error to first order, twice over: each ``w`` and ``r`` is
    taken as made in at most ``depth`` roundings, and every rounding (``ln`` and each sum's additions too)
    as off by one unit in the last of ``PREC`` digits."""
    total = spread = size = Decimal(0)
    count = 0
    for w, r in terms:
        if not w:
            continue
        if not r:
            return Decimal("Infinity"), Decimal(0)
        ln = r.ln()
        total -= w * ln
        spread += w * (depth + 2 * abs(ln))
        size += abs(w * ln)
        count += 1
    return total, 2 * Decimal(10) ** (1 - PREC) * (spread + (count + depth) * size)


def theorem2(priors, true, est):
    """The ``(excess, bound, radius)`` in bits of a theorem-2 instance, read from its floats: the excess log
    loss of the plug-in posterior rule (from the estimates and the true priors; uniform at an atom where no
    estimate has mass) over the Bayes posterior, the bound ``k * max_i g_i * KL(D_i || D'_i)``, and a bound
    on the rounding error of ``bound - excess``. Each class row is first scaled to unit sum: a float row sums
    to 1 only within a few ulps, and the theorem (through Gibbs' inequality) needs unit rows. Read raw,
    ``_two_atom_masses(0.1, 1e-6)``'s estimates sum to ``1 + 2**-54``, and their excess passes the bound by
    8.0e-17."""
    with localcontext(Context(prec=PREC)):
        g = [Decimal(x) for x in priors]
        p, q = [_unit(row) for row in true], [_unit(row) for row in est]
        k, m = len(g), len(p[0])
        depth = 4 * (m + k + 4)
        mix, est_mix = ([sum(gi * row[x] for gi, row in zip(g, rows)) for x in range(m)] for rows in (p, q))
        # at each atom of positive weight, the estimated posterior g_i q_i / est_mix over the true g_i p_i / mix
        ratios = ((gi * pi[x], qi[x] * mix[x] / (pi[x] * est_mix[x]) if est_mix[x] else mix[x] / (k * gi * pi[x]))
                  for gi, pi, qi in zip(g, p, q) for x in range(m) if pi[x])
        excess, excess_error = _nats(ratios, depth)
        kls = [_nats(((a, b / a) for a, b in zip(pi, qi) if a), depth) for pi, qi in zip(p, q)]
        ln2 = Decimal(2).ln()
        bound = k * max(gi * kl for gi, (kl, _) in zip(g, kls)) / ln2
        if bound.is_infinite():
            return excess / ln2, bound, Decimal(0)
        rounding = 4 * Decimal(10) ** (1 - PREC) * (bound + abs(excess))  # the divisions by ln 2 and the slack
        return excess / ln2, bound, (excess_error + k * sum(gi * e for gi, (_, e) in zip(g, kls))) / ln2 + rounding


def smoothing(true, est, xi, description_length, min_mass):
    """The ``(kl, certificate, floor certificate, radius)`` in bits of a smoothing trial over the uniform base,
    read from its floats: ``KL(p || s)`` of the true row ``p`` against the smoothed estimate
    ``s = (1 - xi) * q + xi / m``, both scaled to unit sum, the certificate ``3 xi (1 + L - log2 xi)`` of the
    description length ``L``, its floor variant ``3 xi (1 - log2(xi * min_mass))``, and a bound on the rounding
    error of the slack ``certificate - kl`` of either."""
    with localcontext(Context(prec=PREC)):
        xi, m = Decimal(xi), len(true)
        p, s = _unit(true), _unit([(1 - xi) * Decimal(q) + xi / m for q in est])
        kl, kl_error = _nats(((a, b / a) for a, b in zip(p, s) if a), 4 * (m + 4))
        ln2 = Decimal(2).ln()
        kl /= ln2
        certificate = 3 * xi * (1 + description_length - xi.ln() / ln2)
        floor = 3 * xi * (1 - (xi * Decimal(min_mass)).ln() / ln2)
        # every term of either certificate is positive, so each of its few roundings is within an ulp of it
        rounding = 8 * Decimal(10) ** (1 - PREC) * (kl + certificate + floor)
        return kl, certificate, floor, kl_error / ln2 + rounding


def verdict(excess, bound, radius=0):
    """``"satisfied"`` if ``excess <= bound`` holds however far within ``radius`` the computed slack
    ``bound - excess`` is from the true one, ``"violated"`` if it holds for none, ``"undecided"`` else.
    Theorem 1's exact values take radius 0: no tolerance. An infinite bound is satisfied."""
    if bound == math.inf:
        return "satisfied"
    slack = bound - excess
    return "satisfied" if slack >= radius else "violated" if slack < -radius else "undecided"
