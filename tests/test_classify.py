"""Classifier construction and exact risk computation."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bayesrisk import classify, pipeline
from bayesrisk.bounds import example1_construction, example2_construction, excess_logloss_identity, random_source
from bayesrisk.classify import (
    CostMatrix,
    LabeledSource,
    StochasticRule,
    _bayes_labels,
    as_cost_array,
    bayes_classifier,
    logloss_risk,
    plugin_rule,
    posterior,
    posterior_rule,
    risk,
)
from bayesrisk.distributions import Domain, make_distribution

D2 = Domain.indexed(2)


def two_class_source(ep=0.1):
    d0 = make_distribution(D2, [0.5 + ep, 0.5 - ep])
    d1 = make_distribution(D2, [0.5 - ep, 0.5 + ep])
    return LabeledSource(np.array([0.5, 0.5]), (d0, d1))


class TestPriorSum:
    """Priors must sum to 1 within half the unit-sum tolerance: the mixture's sum carries the
    priors' error plus rounding, and must itself stay within the whole tolerance."""

    @pytest.mark.parametrize("second", [0.5 - 4.99e-13, 0.5 + 4.99e-13])
    def test_just_inside_mixes_and_checks(self, second):
        source, est = example2_construction(0.1, 0.01)
        source = LabeledSource(np.array([0.5, second]), source.class_dists)
        assert 4.98e-13 < abs(float(source.priors.sum()) - 1.0) < 5e-13
        assert float(source.mixture_distribution().mass.sum()) == pytest.approx(1.0, abs=1e-15)
        lhs, rhs = excess_logloss_identity(source, est)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("second", [0.5 - 5e-13, 0.5 + 5e-13, 0.5 - 1e-12])
    def test_just_outside_is_refused(self, second):
        source = two_class_source()
        with pytest.raises(ValueError, match="class priors must sum to 1"):
            LabeledSource(np.array([0.5, second]), source.class_dists)


class TestCostMatrix:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CostMatrix(np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError, match="positive"):
            CostMatrix(np.zeros((2, 2)))

    def test_zero_one(self):
        c = CostMatrix.zero_one(3)
        assert c.max_cost == 1.0
        assert np.array_equal(np.diag(c.costs), np.zeros(3))

    @pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
    def test_raw_cost_array_is_still_scanned(self, bad):
        raw = np.array([[0.0, bad], [1.0, 0.0]])
        with pytest.raises(ValueError, match="^costs must be finite and non-negative$"):
            as_cost_array(raw, 2)
        with pytest.raises(ValueError, match="^costs must be finite and non-negative$"):
            as_cost_array(raw.tolist(), 2)

    def test_cost_matrix_is_handed_over_after_its_shape_check(self):
        c = CostMatrix(np.array([[0.0, 2.0], [1.0, 0.0]]))
        assert as_cost_array(c, 2) is c.costs
        with pytest.raises(ValueError, match=r"shape \(2, 2\), expected \(3, 3\)"):
            as_cost_array(c, 3)


class TestBayesClassifier:
    def test_separating_instance(self):
        source = two_class_source(0.1)
        f = bayes_classifier(source, CostMatrix.zero_one(2))
        assert f.label("x0") == 0
        assert f.label("x1") == 1

    def test_full_tie_breaks_to_smallest_label(self):
        d = make_distribution(D2, [0.5, 0.5])
        source = LabeledSource(np.array([0.5, 0.5]), (d, d))
        f = bayes_classifier(source, CostMatrix.zero_one(2))
        assert np.array_equal(f.labels, [0, 0])

    def test_heavy_prior_wins_under_uniform_classes(self):
        dom = Domain.indexed(4)
        u = make_distribution(dom, np.ones(4))
        delta = 0.01
        source = LabeledSource(np.array([delta, delta, 1 - 2 * delta]), (u, u, u))
        cost = CostMatrix.zero_one(3)
        f = bayes_classifier(source, cost)
        assert np.array_equal(f.labels, [2, 2, 2, 2])
        # exhaustive argmin over the 3 labels at each atom
        scores = source.weighted_mass.T @ cost.costs
        for x in range(4):
            assert all(scores[x, 2] <= scores[x, j] for j in range(3))

    def test_dimension_mismatch(self):
        source = two_class_source()
        with pytest.raises(ValueError, match="shape"):
            bayes_classifier(source, np.zeros((3, 3)))

    @given(
        st.integers(2, 5),
        st.integers(1, 64),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.booleans(),
    )
    @example(2, 4_097, 0, True, False)
    @example(5, 4_097, 2, False, False)
    @example(3, 131_073, 1, False, True)
    @settings(max_examples=300, deadline=None)
    def test_column_scan_matches_argmin(self, k, m, seed, zero_one, twin):
        """The column scan behind every Bayes label (``bayes_classifier``, the
        checks, the trial, the tightness search) against ``np.argmin``, kept as
        the reference: the ``(k, m)`` scores are ``(W.T @ costs).T`` bit for bit
        (row 0 ends as the running minimum) and the labels are ``np.argmin``'s.
        A numpy or BLAS change that breaks either should fail here, not in a golden."""
        rng = np.random.default_rng(seed)
        w = rng.random((k, m)) * rng.random((k, 1))
        w[:, rng.random(m) < 0.25] = 0.0  # zero mixture mass: every label ties
        if twin:
            w[-1] = w[0]  # equal class columns tie under symmetric costs
        costs = np.ones((k, k)) - np.eye(k) if zero_one else rng.random((k, k))
        scores, labels = np.empty((k, m)), np.empty(m, np.intp)
        _bayes_labels(costs, w, scores, labels, np.empty(m, np.intp))
        old = w.T @ costs  # the (m, k) layout np.argmin scans
        assert scores[1:].tobytes() == np.ascontiguousarray(old.T[1:]).tobytes()
        assert scores[0].tobytes() == old.min(axis=1).tobytes()
        assert np.array_equal(labels, np.argmin(old, axis=1))


def hexes(a):
    return [v.hex() for v in np.asarray(a, dtype=float).ravel().tolist()]


def batch_probe(rng, k, m, sizes):
    """One probe of the cost product of a batch of sparse trials: weights with a quarter of their columns zero,
    costs random or (3 in 10) zero-one, scaled by 10^U(-9, 9), and for trial t ``sizes[t]`` sorted distinct
    columns, atom 0 in a quarter of the lone ones. ``classify._gathered_scores`` of the trials' columns side by
    side (a batch of one lone column padded with a zero one) must equal in float.hex each trial's own product,
    which pads a lone column with column 1 if it is atom 0, else column 0, and that the full product's columns."""
    w = rng.random((k, m)) * rng.random((k, 1))
    w[:, rng.random(m) < 0.25] = 0.0
    costs = np.ones((k, k)) - np.eye(k) if rng.random() < 0.3 else rng.random((k, k))
    costs *= 10.0 ** rng.uniform(-9.0, 9.0)
    trials = [np.sort(rng.choice(m, size, replace=False)) for size in sizes]
    for cols in trials:
        if len(cols) == 1 and rng.random() < 0.25:
            cols[0] = 0
    full = costs.T @ w
    batch = classify._gathered_scores(costs, np.concatenate([w.take(cols, axis=1) for cols in trials], axis=1))
    for cols, start in zip(trials, np.cumsum([0, *sizes])):
        own = np.matmul(costs.T, w.take(cols if len(cols) > 1 else [cols[0], int(cols[0] == 0)], axis=1))
        assert hexes(own[:, : len(cols)]) == hexes(full[:, cols])
        assert hexes(batch[:, start : start + len(cols)]) == hexes(full[:, cols])


@pytest.mark.parametrize("m", [4_096, 131_072])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_gathered_product_keeps_the_full_products_bits(k, m):
    """A batch of sparse trials multiplies its trials' hit columns in one product. On a narrow domain and one the
    pipeline batches at, 12 batches of 1 to 40 trials, each trial of 1 to 3,000 columns (log-uniform, both
    ends included, at most 6,000 in a batch), 12 batches of one lone column, padded, and the widest leaf chunk
    whose Bayes labels ``pipeline._cost_leaves`` takes from one product (``pipeline._LEAF_FLOATS`` columns,
    or every atom), equal each trial's own product and the full product bit for bit. An unpadded lone column
    takes another BLAS kernel, which missed in 73 of 240 probes at k = 4-5 with OpenBLAS 0.3.31 (test_mutations
    checks that this test sees it, and sees a chunk multiplied one column at a time)."""
    rng = np.random.default_rng([k, m])
    shapes = [[3_000], [1, 3_000, 1], [2] * 40]
    for trials in rng.integers(1, 41, 9):
        top = math.log(min(3_000, 6_000 // trials) + 1)
        shapes.append(np.exp(rng.uniform(0.0, top, trials)).astype(int).tolist())
    for sizes in [*shapes, *[[1]] * 12, [min(m, pipeline._LEAF_FLOATS)]]:
        batch_probe(rng, k, m, sizes)


@pytest.mark.parametrize("count", [1, 3, 40])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_stacked_padded_product_keeps_each_instances_bits(k, count):
    """A sweep block scores the instances of one class count at once: one ``(count, k, k) @ (2, count, k, 64)``
    product (true classes and estimates), each instance's m of 2-64 atoms zero-padded to 64 columns. It must equal
    in float.hex each instance's own unpadded 2-D product, as the per-instance scorer makes it: weights with a
    quarter of their columns zero, costs random or (3 in 10) zero-one, scaled by 10^U(-9, 9), 20 blocks a shape."""
    rng = np.random.default_rng([k, count])
    for _ in range(20):
        ms = rng.integers(2, 65, count)
        weighted = rng.random((2, count, k, 64)) * rng.random((2, count, k, 1))
        weighted[rng.random(weighted.shape) < 0.25] = 0.0
        weighted = np.where(np.arange(64) < ms[:, None, None], weighted, 0.0)
        costs = np.array([np.ones((k, k)) - np.eye(k) if rng.random() < 0.3 else rng.random((k, k))
                          for _ in range(count)]) * 10.0 ** rng.uniform(-9.0, 9.0, (count, 1, 1))
        stacked = np.matmul(np.swapaxes(costs, -1, -2), weighted)
        for n, m in enumerate(ms.tolist()):
            for side in range(2):
                own = np.matmul(costs[n].T, np.ascontiguousarray(weighted[side, n, :, :m]))
                assert hexes(stacked[side, n, :, :m]) == hexes(own)


class TestRisk:
    def test_optimal_risk_of_separating_instance(self):
        source, _, cost = example1_construction(0.1, 0.01)
        f = bayes_classifier(source, cost)
        assert risk(f, source, cost) == pytest.approx(0.4, abs=1e-12)

    def test_plugin_risk_of_flipped_estimates(self):
        source, est, cost = example1_construction(0.1, 0.01)
        f_prime = bayes_classifier(LabeledSource(source.priors, est), cost)
        assert risk(f_prime, source, cost) == pytest.approx(0.6, abs=1e-12)

    def test_zero_cost_matrix_gives_zero_risk(self):
        source = two_class_source()
        f = bayes_classifier(source, CostMatrix.zero_one(2))
        assert risk(f, source, np.zeros((2, 2))) == 0.0

    def test_linearity_in_cost(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            source = random_source(rng, 3, 6)
            f = bayes_classifier(source, CostMatrix.zero_one(3))
            c1 = rng.uniform(0, 2, (3, 3))
            c2 = rng.uniform(0, 2, (3, 3))
            a, b = rng.uniform(0, 3, 2)
            combined = risk(f, source, a * c1 + b * c2)
            split = a * risk(f, source, c1) + b * risk(f, source, c2)
            assert combined == pytest.approx(split, abs=1e-12)

    def test_cost_scaling_leaves_argmin_unchanged(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            source = random_source(rng, 3, 8)
            c = rng.uniform(0, 1, (3, 3))
            c[0, 1] += 0.5
            f1 = bayes_classifier(source, c)
            f2 = bayes_classifier(source, 7.25 * c)
            assert np.array_equal(f1.labels, f2.labels)


class TestPosterior:
    def test_hand_arithmetic(self):
        source = two_class_source(0.1)
        assert posterior(source, "x0") == pytest.approx([0.6, 0.4], abs=1e-15)

    def test_exclusive_support(self):
        dom = Domain.indexed(2)
        d0 = make_distribution(dom, [1, 0])
        d1 = make_distribution(dom, [0, 1])
        source = LabeledSource(np.array([0.5, 0.5]), (d0, d1))
        assert np.array_equal(posterior(source, "x1"), [0.0, 1.0])

    def test_symmetric_source_is_uniform(self):
        d = make_distribution(D2, [0.3, 0.7])
        source = LabeledSource(np.array([0.5, 0.5]), (d, d))
        assert posterior(source, "x0") == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_atom_outside_mixture_support(self):
        dom = Domain.indexed(2)
        d = make_distribution(dom, [1, 0])
        source = LabeledSource(np.array([0.5, 0.5]), (d, d))
        with pytest.raises(ValueError, match="outside mixture support"):
            posterior(source, "x1")

    def test_rule_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            source = random_source(rng, 4, 12)
            rule = posterior_rule(source)
            assert np.all(np.abs(rule.table.sum(axis=1) - 1.0) <= 1e-12)

    def test_zero_mass_atom_gets_uniform_row(self):
        dom = Domain.indexed(3)
        d0 = make_distribution(dom, [1, 1, 0])
        d1 = make_distribution(dom, [2, 1, 0])
        source = LabeledSource(np.array([0.5, 0.5]), (d0, d1))
        rule = posterior_rule(source)
        assert np.array_equal(rule.table[2], [0.5, 0.5])


class TestLoglossRisk:
    def test_posterior_rule_risk_is_binary_entropy(self):
        source, _ = example2_construction(0.1, 0.01)
        oracle = -0.6 * math.log2(0.6) - 0.4 * math.log2(0.4)
        assert oracle == pytest.approx(0.9709505944546686, abs=1e-15)
        value = logloss_risk(posterior_rule(source), source)
        assert value == pytest.approx(oracle, abs=1e-12)

    def test_perfect_prediction_on_disjoint_source(self):
        dom = Domain.indexed(2)
        d0 = make_distribution(dom, [1, 0])
        d1 = make_distribution(dom, [0, 1])
        source = LabeledSource(np.array([0.5, 0.5]), (d0, d1))
        rule = StochasticRule(dom, np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert logloss_risk(rule, source) == 0.0

    def test_zero_probability_on_supported_label_is_infinite(self):
        source = two_class_source(0.1)
        rule = StochasticRule(D2, np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert logloss_risk(rule, source) == math.inf


class TestPluginRule:
    def test_true_estimates_reproduce_posterior_rule(self):
        source = two_class_source(0.2)
        assert np.array_equal(plugin_rule(source).table, posterior_rule(source).table)

    def test_example_estimates_at_x0(self):
        _, est = example2_construction(0.1, 0.01)
        est_source = LabeledSource(np.array([0.5, 0.5]), est)
        rule = plugin_rule(est_source)
        assert rule.row("x0") == pytest.approx([0.49, 0.51], abs=1e-15)

    def test_disjoint_estimates_give_deterministic_rows(self):
        dom = Domain.indexed(2)
        d0 = make_distribution(dom, [1, 0])
        d1 = make_distribution(dom, [0, 1])
        est_source = LabeledSource(np.array([0.5, 0.5]), (d0, d1))
        rule = plugin_rule(est_source)
        assert np.array_equal(rule.table, np.eye(2))


class TestOptimality:
    def test_bayes_classifier_beats_every_classifier(self):
        rng = np.random.default_rng(10)
        for _ in range(15):
            k = int(rng.integers(2, 4))
            m = int(rng.integers(2, 6))
            source = random_source(rng, k, m)
            cost = rng.uniform(0, 2, (k, k))
            cost[0, 1] += 0.5
            best = risk(bayes_classifier(source, cost), source, cost)
            for labels in itertools.product(range(k), repeat=m):
                from bayesrisk.classify import Classifier

                g = Classifier(source.domain, np.array(labels))
                assert best <= risk(g, source, cost) + 1e-12

    def test_posterior_rule_beats_random_rules(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            k = int(rng.integers(2, 4))
            m = int(rng.integers(2, 10))
            source = random_source(rng, k, m)
            best = logloss_risk(posterior_rule(source), source)
            for _ in range(100):
                table = rng.dirichlet(np.ones(k), size=m)
                other = logloss_risk(StochasticRule(source.domain, table), source)
                assert best <= other + 1e-9
