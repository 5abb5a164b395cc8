"""An exact referee for theorem 1 (the cost-loss bound), independent of ``bayesrisk``.

Every finite float is a dyadic rational, so reading an instance's float priors,
masses and costs as :class:`fractions.Fraction` loses nothing, and every sum,
product and comparison below is exact. The referee shares no code with the
package: it recomputes the Bayes labels, the cost risks, the per-class L1
distances and the bound from the inputs alone.
"""

from fractions import Fraction


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


def verdict(excess, bound):
    """``"satisfied"`` if the exact ``excess`` is at most ``bound``, else ``"violated"``: no tolerance."""
    return "satisfied" if excess <= bound else "violated"
