"""Bound checks, lower-bound constructions, the excess identity, tightness."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bayesrisk import bounds
from bayesrisk.bounds import (
    BoundReport,
    PerturbationBudget,
    _optimal_risk,
    _plugin_risk,
    _project_into_budget,
    check_theorem1,
    check_theorem2,
    example1_construction,
    example2_construction,
    excess_logloss_identity,
    random_cost,
    random_l1_perturbation,
    random_source,
    random_theorem1_instance,
    random_theorem2_instance,
    support_safe_perturbation,
    theorem1_bound,
    theorem2_bound,
    tightness_search,
)
from bayesrisk.classify import (
    CostMatrix,
    LabeledSource,
    bayes_classifier,
    logloss_risk,
    plugin_rule,
    posterior_rule,
    risk,
)
from bayesrisk.distributions import (
    Distribution,
    Domain,
    _kl_on_support,
    kl_divergence,
    l1_distance,
    make_distribution,
)

PER_CLASS_KL_01_001 = 0.035109552062332905  # 0.6*log2(0.6/0.49) + 0.4*log2(0.4/0.51)


class TestBoundFormulas:
    def test_theorem1_bound_values(self):
        assert theorem1_bound(0.11, 2, CostMatrix.zero_one(2)) == pytest.approx(0.22, abs=1e-15)
        assert theorem1_bound(0.0, 7, CostMatrix.zero_one(7)) == 0.0
        cost = CostMatrix(np.array([[0.0, 5.0, 1.0], [2.0, 0.0, 3.0], [1.0, 1.0, 0.0]]))
        assert theorem1_bound(0.1, 3, cost) == pytest.approx(1.5, abs=1e-12)

    def test_theorem1_bound_rejects_cost_of_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            theorem1_bound(0.1, 3, CostMatrix.zero_one(2))

    def test_theorem2_bound_values(self):
        assert theorem2_bound(0.0175545, 2) == pytest.approx(0.035109, abs=1e-6)
        assert theorem2_bound(0.0, 5) == 0.0
        assert theorem2_bound(1.0, 2) == 2.0

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            theorem2_bound(-0.1, 2)


class TestCheckTheorem1:
    def test_two_atom_construction(self):
        source, est, cost = example1_construction(0.1, 0.01)
        rep = check_theorem1(source, est, cost)
        assert rep.risk_opt == pytest.approx(0.4, abs=1e-12)
        assert rep.risk_plugin == pytest.approx(0.6, abs=1e-12)
        assert rep.excess == pytest.approx(0.2, abs=1e-12)
        assert rep.bound == pytest.approx(0.22, abs=1e-12)
        assert rep.satisfied

    def test_true_estimates_give_zero_everything(self):
        source, _, cost = example1_construction(0.1, 0.01)
        rep = check_theorem1(source, source.class_dists, cost)
        assert rep.excess == 0.0
        assert rep.bound == 0.0
        assert rep.satisfied

    def test_random_perturbations_always_satisfied(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            source = random_source(rng, 3, 20)
            est = tuple(
                random_l1_perturbation(d, float(rng.uniform(0, 2)), rng)
                for d in source.class_dists
            )
            assert check_theorem1(source, est, CostMatrix.zero_one(3)).satisfied


class TestCheckTheorem2:
    def test_two_atom_construction_is_exactly_tight(self):
        source, est = example2_construction(0.1, 0.01)
        rep = check_theorem2(source, est)
        per_kl = kl_divergence(source.class_dists[0], est[0])
        assert per_kl == pytest.approx(PER_CLASS_KL_01_001, abs=1e-12)
        assert rep.excess == pytest.approx(per_kl, abs=1e-9)
        # equal priors make the effective budget per_kl / 2, so the bound
        # collapses onto the excess: the construction meets it with no slack
        assert rep.bound == pytest.approx(per_kl, abs=1e-12)
        assert abs(rep.slack) <= 1e-9
        assert rep.satisfied

    def test_true_estimates_give_zero_everything(self):
        source, _ = example2_construction(0.1, 0.01)
        rep = check_theorem2(source, source.class_dists)
        assert rep.excess == 0.0
        assert rep.bound == 0.0
        assert rep.satisfied

    def test_support_violation_gives_vacuous_bound(self):
        dom = Domain.indexed(2)
        d0 = make_distribution(dom, [0.5, 0.5])
        d1 = make_distribution(dom, [0.4, 0.6])
        source = LabeledSource(np.array([0.5, 0.5]), (d0, d1))
        est = (make_distribution(dom, [1, 0]), make_distribution(dom, [1, 0]))
        rep = check_theorem2(source, est)
        assert rep.bound == math.inf
        assert rep.satisfied

    def test_random_softened_estimates_satisfied(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            source = random_source(rng, 2, 10)
            est = tuple(
                support_safe_perturbation(d, 1.0, rng) for d in source.class_dists
            )
            assert check_theorem2(source, est).satisfied


class TestExcessLoglossIdentity:
    def test_two_atom_value(self):
        source, est = example2_construction(0.1, 0.01)
        lhs, rhs = excess_logloss_identity(source, est)
        assert lhs == pytest.approx(PER_CLASS_KL_01_001, abs=1e-9)
        assert abs(lhs - rhs) <= 1e-9

    def test_true_estimates(self):
        source, _ = example2_construction(0.1, 0.01)
        lhs, rhs = excess_logloss_identity(source, source.class_dists)
        assert lhs == 0.0
        assert rhs == pytest.approx(0.0, abs=1e-15)

    def test_random_instances_at_machine_precision(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            source = random_source(rng, 3, 16)
            est = tuple(
                support_safe_perturbation(d, 1.2, rng) for d in source.class_dists
            )
            lhs, rhs = excess_logloss_identity(source, est)
            assert abs(lhs - rhs) <= 1e-9

    def test_lhs_is_the_reports_excess_bit_for_bit(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            source, est = random_theorem2_instance(rng)
            lhs, _ = excess_logloss_identity(source, est)
            assert lhs.hex() == check_theorem2(source, est).excess.hex()

    def test_only_the_identity_computes_the_mixture_kl(self, monkeypatch):
        calls = []
        real = bounds._kl_on_support
        monkeypatch.setattr(bounds, "_kl_on_support", lambda *a: calls.append(a) or real(*a))
        source, est = random_theorem2_instance(np.random.default_rng(25))
        check_theorem2(source, est)
        assert len(calls) == source.k
        calls.clear()
        excess_logloss_identity(source, est)
        assert len(calls) == source.k + 1

    def test_infinite_kl_vacuous_bound_and_refused_identity(self):
        dom = Domain.indexed(2)
        d = make_distribution(dom, [0.5, 0.5])
        source = LabeledSource(np.array([0.5, 0.5]), (d, make_distribution(dom, [0.4, 0.6])))
        est = (make_distribution(dom, [1, 0]), d)
        rep = check_theorem2(source, est)
        assert rep.bound == math.inf and rep.satisfied
        with pytest.raises(ValueError, match="per-class KL divergence is infinite"):
            excess_logloss_identity(source, est)

    def test_infinite_kl_rejected(self):
        dom = Domain.indexed(2)
        d = make_distribution(dom, [0.5, 0.5])
        source = LabeledSource(np.array([0.5, 0.5]), (d, d))
        est = (make_distribution(dom, [1, 0]),) * 2
        with pytest.raises(ValueError, match="infinite"):
            excess_logloss_identity(source, est)


class TestPluginScorer:
    @given(
        st.integers(2, 5),
        st.integers(1, 64),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.booleans(),
    )
    @example(2, 1, 0, True, False)
    @example(3, 8, 1, True, True)
    @settings(max_examples=300, deadline=None)
    def test_scorer_matches_the_public_composition(self, k, m, seed, zero_one, twin):
        """The array scorer gives, in float.hex, the risks of the validating public path:
        ``risk(bayes_classifier(...))`` and ``logloss_risk(plugin_rule(...))`` on the true
        priors with the estimates, ``bayes_classifier`` and ``posterior_rule`` on the truth;
        the log loss also against its formula summed off the rule table."""
        rng = np.random.default_rng(seed)
        domain = Domain.indexed(m)

        def classes(zero_share):
            w = rng.random((k, m))
            w[:, rng.random(m) < zero_share] = 0.0  # atoms no class of this set reaches
            w[np.arange(k), rng.integers(m, size=k)] += 1.0
            return [make_distribution(domain, row) for row in w]

        true_dists, est_dists = classes(0.2), classes(0.3)
        priors = rng.uniform(0.05, 1.0, k)
        if twin:  # equal classes, equal priors: under zero-one costs the two labels tie
            est_dists[-1], priors[-1] = est_dists[0], priors[0]
        priors /= priors.sum()
        source = LabeledSource(priors, tuple(true_dists))
        estimated = LabeledSource(source.priors, tuple(est_dists))
        costs = np.ones((k, k)) - np.eye(k) if zero_one else rng.random((k, k))

        def scored(c):
            est = np.stack([d.mass for d in est_dists])
            return float.hex(_plugin_risk(source.priors, source.weighted_mass, est, c))

        assert scored(costs) == float.hex(risk(bayes_classifier(estimated, costs), source, costs))
        rule = plugin_rule(estimated)
        assert scored(None) == float.hex(logloss_risk(rule, source))
        # The log loss summed straight off the (m, k) rule table, atom by atom: the reference
        # for the order the kernel gathers in, which the public path shares with the scorer.
        w = source.weighted_mass.T
        on = w > 0.0
        vals = rule.table[on]
        logloss = math.inf if (vals == 0.0).any() else -(w[on] * np.log2(vals)).sum()
        assert scored(None) == float.hex(max(0.0, float(logloss)))
        optimal = risk(bayes_classifier(source, costs), source, costs)
        assert float.hex(_optimal_risk(source, costs)) == float.hex(optimal)
        optimal = logloss_risk(posterior_rule(source), source)
        assert float.hex(_optimal_risk(source, None)) == float.hex(optimal)


class TestExampleConstructions:
    def test_per_class_l1(self):
        source, est, _ = example1_construction(0.1, 0.01)
        for d, e in zip(source.class_dists, est):
            assert l1_distance(d, e) == pytest.approx(0.22, abs=1e-12)

    def test_small_gamma_limit_closes_slack(self):
        source, est, cost = example1_construction(0.1, 1e-6)
        rep = check_theorem1(source, est, cost)
        assert rep.excess == pytest.approx(0.2, abs=1e-12)
        assert rep.slack == pytest.approx(2e-6, abs=1e-12)

    def test_excess_equals_two_eps_minus_gamma(self):
        for ep, gamma in [(0.1, 0.01), (0.25, 0.05), (0.4, 0.002)]:
            source, est, cost = example1_construction(ep, gamma)
            rep = check_theorem1(source, est, cost)
            eps = ep + gamma
            assert rep.excess == pytest.approx(2 * (eps - gamma), abs=1e-12)
            assert rep.slack == pytest.approx(2 * gamma, abs=1e-12)

    def test_monotone_degradation_in_eps_prime(self):
        gamma = 0.01
        excesses = []
        for ep in np.linspace(0.0, 0.48, 100):
            source, est, cost = example1_construction(float(ep), gamma)
            excesses.append(check_theorem1(source, est, cost).excess)
        assert all(a <= b + 1e-12 for a, b in zip(excesses, excesses[1:]))

    def test_parameter_range_errors(self):
        with pytest.raises(ValueError, match="out of range"):
            example1_construction(0.45, 0.1)
        with pytest.raises(ValueError, match="out of range"):
            example1_construction(-0.1, 0.01)
        with pytest.raises(ValueError, match="out of range"):
            example2_construction(0.1, -0.2)

    def test_example2_per_class_kl(self):
        source, est = example2_construction(0.1, 0.01)
        kl = kl_divergence(source.class_dists[0], est[0])
        assert kl == pytest.approx(PER_CLASS_KL_01_001, abs=1e-12)
        assert kl == pytest.approx(kl_divergence(source.class_dists[1], est[1]), abs=1e-15)

    def test_example2_degenerate_source(self):
        # identical classes: the excess is exactly the KL pulled in by the
        # tilted estimates, and the identity confirms it
        source, est = example2_construction(0.0, 0.05)
        rep = check_theorem2(source, est)
        per_kl = kl_divergence(source.class_dists[0], est[0])
        lhs, rhs = excess_logloss_identity(source, est)
        assert rep.excess == pytest.approx(per_kl, abs=1e-9)
        assert abs(lhs - rhs) <= 1e-9


class TestRandomL1Perturbation:
    def test_zero_budget_is_identity(self):
        d = make_distribution(Domain.indexed(4), [1, 2, 3, 4])
        out = random_l1_perturbation(d, 0.0, np.random.default_rng(0))
        assert np.array_equal(out.mass, d.mass)

    def test_budget_respected(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            m = int(rng.integers(2, 30))
            d = make_distribution(Domain.indexed(m), rng.gamma(0.5, 1, m) + 1e-12)
            budget = float(rng.uniform(0, 2))
            out = random_l1_perturbation(d, budget, rng)
            assert l1_distance(d, out) <= budget + 1e-12
            assert abs(float(out.mass.sum()) - 1.0) <= 1e-12

    def test_maximal_budget_on_point_mass(self):
        d = make_distribution(Domain.indexed(3), [1, 0, 0])
        out = random_l1_perturbation(d, 2.0, np.random.default_rng(5))
        assert np.all(out.mass >= 0)

    def test_budget_out_of_range(self):
        d = make_distribution(Domain.indexed(2), [1, 1])
        with pytest.raises(ValueError):
            random_l1_perturbation(d, 2.5, np.random.default_rng(0))


class TestRandomInstances:
    def test_theorem1_sweep_never_violated(self):
        rng = np.random.default_rng(41)
        for _ in range(500):
            source, est, cost = random_theorem1_instance(rng)
            rep = check_theorem1(source, est, cost)
            assert rep.satisfied
            assert rep.excess >= -1e-12

    def test_theorem2_sweep_never_violated_and_identity_holds(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            source, est = random_theorem2_instance(rng)
            rep = check_theorem2(source, est)
            assert rep.satisfied
            assert rep.excess >= -1e-12
            lhs, rhs = excess_logloss_identity(source, est)
            assert abs(lhs - rhs) <= 1e-9

    def test_random_cost_is_valid(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            c = random_cost(rng, int(rng.integers(2, 6)))
            assert c.max_cost > 0


class TestTightnessSearch:
    def test_unknown_budget_metric_rejected(self):
        with pytest.raises(ValueError, match=r"metric must be one of 'L1', 'KL'"):
            PerturbationBudget("TV", 0.1)

    def test_kl_projection_stops_at_the_budget_edge(self):
        rng = np.random.default_rng(8)
        dom = Domain.indexed(5)
        for _ in range(20):
            true_d = make_distribution(dom, rng.uniform(0.1, 1.0, 5))
            est = make_distribution(dom, rng.uniform(0.1, 1.0, 5))
            limit = 0.25 * kl_divergence(true_d, est)
            projected = _project_into_budget("KL", true_d.mass, est.mass, limit)
            assert _kl_on_support(true_d.mass, projected, true_d.mass > 0.0) <= limit
            # The blend weight t of est = (1 - t) * D + t * E is bisected to 2**-50,
            # so a step of 2**-46 further along the segment leaves the budget.
            diff = est.mass - true_d.mass
            i = int(np.argmax(np.abs(diff)))
            t = (projected[i] - true_d.mass[i]) / diff[i] + 2.0**-46
            assert kl_divergence(true_d, Distribution(dom, (1.0 - t) * true_d.mass + t * est.mass)) > limit

    def test_two_atom_l1_reaches_analytic_ratio(self):
        rng = np.random.default_rng(42)
        budget = PerturbationBudget("L1", 0.2)
        result = tightness_search(2, 2, CostMatrix.zero_one(2), budget, 5, rng)
        assert result.ratio >= 0.9
        assert result.ratio <= 1.0 + 1e-9

    def test_zero_budget_ratio_is_zero(self):
        rng = np.random.default_rng(1)
        budget = PerturbationBudget("L1", 0.0)
        result = tightness_search(2, 2, CostMatrix.zero_one(2), budget, 3, rng)
        assert result.ratio == 0.0
        assert result.bound == 0.0

    def test_ratio_never_exceeds_one(self):
        rng = np.random.default_rng(2)
        budget = PerturbationBudget("L1", 0.3)
        result = tightness_search(3, 4, CostMatrix.zero_one(3), budget, 4, rng)
        assert result.ratio <= 1.0 + 1e-9
        rng = np.random.default_rng(3)
        kl_result = tightness_search(2, 3, None, PerturbationBudget("KL", 0.1), 3, rng)
        assert kl_result.ratio <= 1.0 + 1e-9

    def test_kl_two_atom_seed_is_tight(self):
        rng = np.random.default_rng(4)
        result = tightness_search(2, 2, None, PerturbationBudget("KL", 0.1), 2, rng)
        assert result.ratio >= 0.9

    def test_instance_is_feasible(self):
        rng = np.random.default_rng(5)
        budget = PerturbationBudget("L1", 0.25)
        result = tightness_search(2, 3, CostMatrix.zero_one(2), budget, 3, rng)
        for g, d, e in zip(result.source.priors, result.source.class_dists, result.est_dists):
            assert l1_distance(d, e) <= budget.epsilon / float(g) + 1e-9


class TestBoundReport:
    def test_inconsistent_flag_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            BoundReport(
                risk_opt=0.0,
                risk_plugin=1.0,
                excess=1.0,
                bound=0.1,
                satisfied=True,
                slack=-0.9,
                epsilon=0.05,
            )

    def test_negative_excess_rejected(self):
        with pytest.raises(ValueError, match="optimality"):
            BoundReport(
                risk_opt=1.0,
                risk_plugin=0.5,
                excess=-0.5,
                bound=1.0,
                satisfied=True,
                slack=1.5,
                epsilon=0.1,
            )

    def test_csv_row_order(self):
        source, est, cost = example1_construction(0.1, 0.01)
        rep = check_theorem1(source, est, cost)
        row = rep.csv_row()
        assert row == [rep.risk_opt, rep.risk_plugin, rep.excess, rep.bound, rep.slack, rep.satisfied]
