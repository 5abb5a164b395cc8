"""Metamorphic relations: two runs of one check whose results must agree by a rule that neither run can test alone.

A relation sees what a comparison of one computation with one formula cannot: a fixed tolerance that does not
scale with the instance, a dropped factor, a wrong index.
"""

import math

import numpy as np
import pytest

from bayesrisk import bounds

POWERS = (-40, -30, -1, 1, 30, 40)
UNIT = 2.0**-53  # the unit roundoff of a float


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


def gamma(n: int) -> float:
    """``n u / (1 - n u)``: a sum of ``n`` non-negative terms, in any order, is within that of its real value, times
    that value."""
    return n * UNIT / (1 - n * UNIT)


def checked(priors, masses, cost) -> tuple:
    """The report and verdict of ``bounds._check`` on an instance's masses, its L1s taken from those masses."""
    report, _, _, ok = bounds._check(priors, masses, bounds._divergences(*masses, bounds.L1), cost)
    return report, ok


def permuted(rng: np.random.Generator, priors, masses: np.ndarray, costs):
    """The instance with its ``(2, k, m)`` masses' atoms in a random order, the same in every class."""
    return priors, masses[..., rng.permutation(masses.shape[-1])], costs


def padded(rng: np.random.Generator, priors, masses: np.ndarray, costs):
    """The instance with 1 to m zero-mass atoms put in at random places of its masses, the same in every class."""
    m = masses.shape[-1]
    return priors, np.insert(masses, rng.integers(0, m + 1, rng.integers(1, m + 1)), 0.0, axis=-1), costs


def split(rng: np.random.Generator, priors, masses: np.ndarray, costs):
    """The instance with 1 to m random atoms each split into two of half its mass, the same in every class: the halves
    keep the atom's Bayes label, and their terms of each sum add up to the atom's."""
    m = masses.shape[-1]
    at = rng.choice(m, rng.integers(1, m + 1), replace=False)
    halved = masses.copy()
    halved[..., at] /= 2.0
    return priors, np.concatenate((halved, halved[..., at]), axis=-1), costs


def permuted_classes(rng: np.random.Generator, priors, masses: np.ndarray, costs):
    """The instance with its classes in a random order, the priors, the masses' class rows and the cost's rows and
    columns moved with them; ``None`` where some atom's true or estimated weighted scores ``costs.T @ (masses *
    priors)`` have two equal smallest entries, since there the smallest-label rule, not the scores, picks the label."""
    order = rng.permutation(len(priors))
    scores = np.sort(costs.T @ (masses * priors[:, None]), axis=-2)
    if (scores[..., 0, :] == scores[..., 1, :]).any():
        return None
    return priors[order], masses[:, order], costs[np.ix_(order, order)]


def relation_misses(transform, names: tuple, n: int = 200, seed: int = 3) -> tuple:
    """Check each instance of a theorem-1 sweep of ``n`` instances, and again as ``transform`` moves it (unless it
    gives ``None``). The two are equal in reals, and each value of ``names`` is a sum of non-negative terms: ``k * m``
    of them for a risk or the excess, ``m`` for the bound (an L1 times factors the two share), with ``m`` the wider
    atom count. So the two floats differ by at most ``gamma`` of that count times their sum. Returns how many values
    miss that, by name, how many instances' verdicts (``ok`` and ``satisfied``) differ, and how many were checked."""
    rng, misses, flips, count = np.random.default_rng(seed), dict.fromkeys(names, 0), 0, 0
    for priors, masses, _, cost in theorem1_instances(n, seed):
        if (moved := transform(rng, priors, masses, cost.costs)) is None:
            continue
        (report, ok), (other, other_ok), count = checked(priors, masses, cost), checked(*moved), count + 1
        for name in names:
            a, b = getattr(report, name), getattr(other, name)
            terms = moved[1].shape[-1] * (1 if name == "bound" else len(priors))
            misses[name] += abs(a - b) > gamma(terms) * (a + b)
        flips += (other_ok, other.satisfied) != (ok, report.satisfied)
    return misses, flips, count


@pytest.mark.parametrize("transform", [permuted, padded, split])
def test_permuting_or_padding_the_atoms_keeps_every_risk_the_bound_and_the_verdict(transform):
    """Permuting the atoms of 200 sweep-drawn theorem-1 instances, padding their classes with zero-mass atoms, or
    splitting atoms in two halves, moves each risk and the bound by no more than a reordered sum may, and changes no
    verdict."""
    names = ("risk_opt", "risk_plugin", "bound")
    assert relation_misses(transform, names) == (dict.fromkeys(names, 0), 0, 200)


def test_permuting_the_classes_keeps_every_risk_the_bound_and_the_verdict():
    """Permuting the classes of the same instances, with their priors and the cost's rows and columns, away from
    argmin ties, moves each risk and the bound by no more than a reordered sum may, and changes no verdict. At least
    100 of the 200 instances are tie-free, so the relation cannot pass by checking nothing."""
    names = ("risk_opt", "risk_plugin", "bound")
    misses, flips, count = relation_misses(permuted_classes, names)
    assert (misses, flips) == (dict.fromkeys(names, 0), 0) and count >= 100


@pytest.mark.xfail(strict=True, reason="the excess is one risk minus the other: its error scales with the risks")
@pytest.mark.parametrize("transform", [permuted, padded, split, permuted_classes])
def test_permuting_or_padding_the_atoms_keeps_the_excess(transform):
    """The same relations for the excess, whose terms (each atom's plug-in cost less its optimal one) are
    non-negative. It is the difference of the two risks' sums, each rounded on its own, so on an instance whose
    excess is small against its risks a reordering, of the atoms or of the classes, moves it by more than ``gamma``
    times the excess."""
    assert relation_misses(transform, ("excess",))[0] == {"excess": 0}
