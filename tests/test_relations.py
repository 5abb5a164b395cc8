"""Metamorphic relations: two runs of one check whose results must agree by a rule that neither run can test alone.

A relation sees what a comparison of one computation with one formula cannot: a fixed tolerance that does not
scale with the instance, a dropped factor, a wrong index.
"""

import math

import numpy as np

from bayesrisk import bounds

POWERS = (-40, -30, -1, 1, 30, 40)


def theorem1_instances(n: int, seed: int):
    """The ``bounds._check`` arrays and cost of each instance of a theorem-1 sweep of ``n`` instances."""
    for columns, instance in bounds._theorem_sweep(np.random.default_rng(seed), n, 5, 64, bounds.L1):
        yield from (instance(j) for j in range(len(columns["ok"])))


def scaling_flips(n: int = 200, seed: int = 3) -> int:
    """Check each instance of a theorem-1 sweep with its costs as drawn and times ``2**j`` for each ``j`` of
    ``POWERS``. Scaling by a power of two far from the float range's ends is exact, so every Bayes label stays, and
    every risk, the excess and the bound scale by exactly ``2**j``: each is asserted to equal ``math.ldexp`` of the
    unscaled value. Returns how many scaled checks' verdicts differ from the unscaled one."""
    flips = 0
    for priors, masses, divergences, cost in theorem1_instances(n, seed):
        report, _, _, ok = bounds._check(priors, masses, divergences, cost)
        for j in POWERS:
            scaled, _, _, scaled_ok = bounds._check(priors, masses, divergences, np.ldexp(cost.costs, j))
            for name in ("risk_opt", "risk_plugin", "excess", "bound"):
                assert getattr(scaled, name) == math.ldexp(getattr(report, name), j), (name, j)
            flips += scaled_ok != ok
    return flips


def test_scaling_the_costs_by_a_power_of_two_scales_every_risk_and_keeps_the_verdict():
    """Costs times 2**-40 to 2**40 on 200 sweep-drawn instances: every risk, excess and bound scaled exactly, and no
    verdict changed. A verdict that moved with the scale would show a tolerance fixed in absolute terms deciding it."""
    assert scaling_flips() == 0
