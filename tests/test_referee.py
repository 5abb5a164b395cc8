"""Theorem 1 against an exact referee: the float report agrees with rational arithmetic on the same floats."""

from fractions import Fraction

import numpy as np
import pytest

import referee
from bayesrisk import bounds
from bayesrisk.classify import CostMatrix

SCALES = (1e-9, 1.0, 1e9)
ZERO_ONE = np.ones((2, 2)) - np.eye(2)


def float_report(priors, masses, costs):
    source, est = bounds._as_objects(priors, masses.copy())
    return bounds.check_theorem1(source, est, CostMatrix(costs))


def relative_error(value, exact):
    return abs(Fraction(value) - exact) / abs(exact)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("gamma", (1e-6, 1e-3, 1e-2))
def test_two_atom_construction_agrees_with_the_referee(gamma, scale):
    priors, masses = bounds._two_atom_masses(0.1, gamma)
    costs = ZERO_ONE * scale
    report = float_report(priors, masses, costs)
    excess, bound, _ = referee.theorem1(priors, *masses, costs)
    assert report.satisfied and referee.verdict(excess, bound) == "satisfied"
    assert relative_error(report.excess, excess) <= 1e-12
    assert relative_error(report.bound, bound) <= 1e-12


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("gamma", (1e-6, 1e-3, 1e-2))
def test_the_referee_can_fail(gamma, scale):
    """Half the exact bound is below the construction's excess, whose slack is 2 * gamma * max cost."""
    priors, masses = bounds._two_atom_masses(0.1, gamma)
    excess, bound, _ = referee.theorem1(priors, *masses, ZERO_ONE * scale)
    assert referee.verdict(excess, bound / 2) == "violated"


def test_random_sweep_verdicts_equal_the_exact_ones():
    checked = 0
    for scale in SCALES:
        for priors, masses, _, cost in bounds._random_instances(np.random.default_rng(0), 50, 5, 64, bounds.L1):
            costs = cost.costs * scale
            excess, bound, _ = referee.theorem1(priors, *masses, costs)
            assert float_report(priors, masses, costs).satisfied == (referee.verdict(excess, bound) == "satisfied")
            checked += 1
    assert checked == 150


def test_referee_breaks_ties_toward_the_smallest_label():
    half = Fraction(1, 2)
    assert referee.bayes_labels([half, half], [[half, half], [half, half]], [[0, 1], [1, 0]]) == [0, 0]
    assert referee.bayes_labels([half, half], [[1, 0], [0, 1]], [[0, 1], [1, 0]]) == [0, 1]
