"""Theorems 1 and 2 against an exact referee: the float report agrees with rational arithmetic (theorem 1), or
with 50-digit decimal arithmetic wherever it can decide (theorem 2), on the same floats."""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import referee
from bayesrisk import bounds, smoothing
from test_rows import smoothed, swept
from bayesrisk.classify import CostMatrix
from bayesrisk.distributions import Domain, QuantizedClassSpec

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
    """Each float verdict is the exact one, at three cost scales; the exact refined bound R lies between the exact
    excess and bound, and the sweep's ``refined`` column is R to 1e-12 of it."""
    checked = 0
    for scale in SCALES:
        for columns, instance in bounds._theorem_sweep(np.random.default_rng(0), 50, 5, 64, bounds.L1):
            for j, swept_refined in enumerate(columns["refined"].tolist()):
                priors, masses, _, cost = instance(j)
                costs = cost.costs * scale
                excess, bound, _ = referee.theorem1(priors, *masses, costs)
                assert float_report(priors, masses, costs).satisfied == (referee.verdict(excess, bound) == "satisfied")
                assert excess <= referee.refined(priors, *masses, costs) <= bound
                assert relative_error(swept_refined, referee.refined(priors, *masses, cost.costs)) <= 1e-12
                checked += 1
    assert checked == 150


def test_referee_breaks_ties_toward_the_smallest_label():
    half = Fraction(1, 2)
    assert referee.bayes_labels([half, half], [[half, half], [half, half]], [[0, 1], [1, 0]]) == [0, 0]
    assert referee.bayes_labels([half, half], [[1, 0], [0, 1]], [[0, 1], [1, 0]]) == [0, 1]


@pytest.mark.parametrize("gamma", (1e-6, 1e-3, 1e-2))
def test_log_loss_construction_has_zero_slack_and_half_its_bound_fails(gamma):
    """The log-loss construction meets its bound exactly, so no decided verdict may call it violated; its
    excess, the per-class KL, is twice half the bound."""
    source, est = bounds.example2_construction(0.1, gamma)
    true, est = [d.mass for d in source.class_dists], [d.mass for d in est]
    excess, bound, radius = referee.theorem2(source.priors, true, est)
    assert referee.verdict(excess, bound, radius) in ("undecided", "satisfied")
    assert referee.verdict(excess, bound / 2, radius) == "violated"


def test_random_log_loss_verdicts_and_identity_equal_the_referee():
    """Every decided verdict is the float one, and the identity's right-hand side is the exact excess."""
    decided = 0
    for (priors, masses, _, _), _ in swept(bounds._theorem_sweep(np.random.default_rng(0), 50, 5, 64, bounds.KL)):
        excess, bound, radius = referee.theorem2(priors, *masses)
        source, est = bounds._as_objects(priors, masses.copy())
        exact = referee.verdict(excess, bound, radius)
        if exact != "undecided":
            assert bounds.check_theorem2(source, est).satisfied == (exact == "satisfied")
            decided += 1
        _, rhs = bounds.excess_logloss_identity(source, est)
        assert abs(Decimal(rhs) - excess) <= Decimal("1e-12") * abs(excess)
    assert decided == 50


@pytest.mark.parametrize("m", (8, 64))
def test_smoothing_verdicts_equal_the_referee(m):
    """Every decided verdict of a smoothing sweep's KL against either certificate is the float one, at the
    default domain size and at 64 atoms, 8 bits an atom, and the radius decides a slack of 1e-12 of the KL. The
    float certificates are the exact ones to a few ulps. The float KL sums terms of both signs whose sizes add
    up to as much as 4,451 times its own (at 8 atoms), each the log of a ratio near 1: its largest relative gap
    from the exact KL over these rows was 7.0e-10 at 8 atoms and 2.9e-11 at 64, so it is held to 1e-8."""
    spec = QuantizedClassSpec(Domain.indexed(m), 8)
    params = smoothing.SmoothingParams(0.5, spec.description_length)
    base = smoothing.base_mixture(spec)
    decided = 0
    for true, est, report in smoothed(smoothing._sweep(spec, params, base, 25, np.random.default_rng(m))):
        kl, certificate, floor, radius = referee.smoothing(true, est, params.xi, spec.description_length,
                                                           base.min_mass)
        for exact_bound, float_bound in ((certificate, report.certificate), (floor, report.certificate_floor)):
            assert abs(Decimal(float_bound) - exact_bound) <= Decimal("1e-15") * exact_bound
            exact = referee.verdict(kl, exact_bound, radius)
            if exact != "undecided":
                assert bounds._within(report.kl_actual, float_bound) == (exact == "satisfied")
                decided += 1
        assert referee.verdict(kl, kl * (1 - Decimal("1e-12")), radius) == "violated"
        assert abs(Decimal(report.kl_actual) - kl) <= Decimal("1e-8") * kl
    assert decided == 50
