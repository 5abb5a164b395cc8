"""Sample-split-estimate-classify trials and the experiment harness."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bayesrisk.bounds import _optimal_risk, random_source
from bayesrisk.classify import CostMatrix, LabeledSource
from bayesrisk.distributions import Distribution, Domain, make_distribution
from bayesrisk.pipeline import (
    TrialConfig,
    config_from_dict,
    config_to_dict,
    empirical_estimator,
    _trial,
    _workspace,
    run_pac_experiment,
    run_trial,
)

D2 = Domain.indexed(2)


def fixed_config(**overrides):
    rng = np.random.default_rng(5)
    source = random_source(rng, 3, 16)
    defaults = dict(
        source=source,
        cost=CostMatrix.zero_one(3),
        sample_size=500,
        trials=30,
        epsilon_target=0.1,
        delta_target=0.05,
        seed=42,
    )
    defaults.update(overrides)
    return TrialConfig(**defaults)


class TestEmpiricalEstimator:
    def test_raw_counting(self):
        est = empirical_estimator(["x0", "x0", "x1"], D2, 0.0)
        assert est.mass == pytest.approx([2 / 3, 1 / 3], abs=1e-15)

    def test_prior_only(self):
        est = empirical_estimator([], Domain.indexed(4), 1.0)
        assert np.allclose(est.mass, 0.25, atol=1e-15)

    def test_add_one_arithmetic(self):
        est = empirical_estimator(["x0"], D2, 1.0)
        assert est.mass == pytest.approx([2 / 3, 1 / 3], abs=1e-15)

    def test_empty_without_laplace_defaults_to_uniform(self):
        est = empirical_estimator([], D2, 0.0)
        assert np.array_equal(est.mass, [0.5, 0.5])

    def test_integer_indices_accepted(self):
        est = empirical_estimator([0, 0, 1, 0], D2, 0.0)
        assert est.mass == pytest.approx([0.75, 0.25], abs=1e-15)

    def test_out_of_range_indices_rejected(self):
        for bad in ([0, -1], [2], np.array([1, 2]), np.array([-1])):
            with pytest.raises(ValueError, match="out of range"):
                empirical_estimator(bad, D2, 1.0)

    def test_counts_match_per_sample_loop(self):
        rng = np.random.default_rng(3)
        dom = Domain.indexed(7)
        for lam in (0.0, 0.5, 1.0):
            idx = rng.integers(0, 7, size=500)
            counts = np.zeros(7)
            for i in idx:
                counts[i] += 1.0
            expected = (counts + lam) / (len(idx) + lam * 7)
            for samples in (idx, list(idx), [dom.atoms[i] for i in idx]):
                est = empirical_estimator(samples, dom, lam)
                assert np.array_equal(est.mass, Distribution(dom, expected).mass)


class TestRunTrial:
    def test_counts_sum_to_sample_size(self):
        config = fixed_config()
        out = run_trial(config, np.random.default_rng(0))
        assert sum(out.counts) == config.sample_size

    def test_single_sample_degenerate_split(self):
        config = fixed_config(sample_size=1)
        out = run_trial(config, np.random.default_rng(1))
        assert sum(out.counts) == 1
        assert math.isfinite(out.excess)
        assert out.excess >= -1e-12

    def test_disjoint_supports_are_learned(self):
        dom = Domain.indexed(4)
        d0 = make_distribution(dom, [0.7, 0.3, 0, 0])
        d1 = make_distribution(dom, [0, 0, 0.4, 0.6])
        source = LabeledSource(np.array([0.5, 0.5]), (d0, d1))
        config = TrialConfig(
            source=source,
            cost=CostMatrix.zero_one(2),
            sample_size=2000,
            trials=30,
            epsilon_target=0.1,
            delta_target=0.05,
        )
        out = run_trial(config, np.random.default_rng(3))
        assert out.report.risk_opt == 0.0
        assert out.excess <= 0.02

    def test_large_sample_consistency(self):
        rng = np.random.default_rng(11)
        source = random_source(rng, 2, 4)
        config = TrialConfig(
            source=source,
            cost=CostMatrix.zero_one(2),
            sample_size=10**6,
            trials=30,
            epsilon_target=0.1,
            delta_target=0.05,
        )
        out = run_trial(config, np.random.default_rng(77))
        assert out.excess <= 0.01

    def test_conditional_validity_in_every_trial(self):
        rng = np.random.default_rng(12)
        for trial in range(40):
            source = random_source(rng, int(rng.integers(2, 4)), int(rng.integers(2, 20)))
            config = TrialConfig(
                source=source,
                cost=CostMatrix.zero_one(source.k),
                sample_size=int(rng.integers(1, 200)),
                trials=30,
                epsilon_target=0.1,
                delta_target=0.05,
            )
            out = run_trial(config, rng)
            assert out.report.satisfied, trial

    def test_logloss_mode_with_laplace_keeps_kls_finite(self):
        rng = np.random.default_rng(13)
        source = random_source(rng, 3, 12)
        config = TrialConfig(
            source=source,
            cost=None,
            sample_size=50,
            trials=30,
            epsilon_target=0.5,
            delta_target=0.05,
        )
        assert config.resolved_laplace == 1.0
        for _ in range(25):
            out = run_trial(config, rng)
            assert all(math.isfinite(v) for v in out.kl_per_class)
            assert out.report.satisfied


class TestRunPacExperiment:
    def test_violation_fraction_non_increasing_over_grid(self):
        config = fixed_config(sample_size=100, trials=100, n_grid=(100, 1000, 10000))
        summary = run_pac_experiment(config)
        fracs = [entry["violation_fraction"] for entry in summary.per_n]
        assert all(a >= b for a, b in zip(fracs, fracs[1:]))
        assert all(entry["satisfied_fraction"] == 1.0 for entry in summary.per_n)

    def test_vacuous_target_never_violated(self):
        config = fixed_config(
            trials=30, epsilon_target=3.0 * 1.0, n_grid=(50,)
        )  # k * max cost
        summary = run_pac_experiment(config)
        assert summary.per_n[0]["violation_fraction"] == 0.0

    def test_seed_determinism(self):
        config = fixed_config(trials=30, n_grid=(50, 100))
        a = run_pac_experiment(config)
        b = run_pac_experiment(config)
        assert a.to_dict() == b.to_dict()
        assert a.rows == b.rows

    def test_trials_floor_enforced(self):
        config = fixed_config(trials=10)
        with pytest.raises(ValueError, match="30 trials"):
            run_pac_experiment(config)

    # Peak traced bytes of the run below, above its starting size. The code
    # before the per-trial temporaries were trimmed peaked at 10,694,741
    # bytes (numpy 2.4, Python 3.11), and per-trial temporaries at 9.50 MB.
    # On one workspace per experiment it peaks at 8.59 MB, or at 9.75 MB as
    # the first experiment in a process, where np.median's first call
    # imports numpy.ma (1.17 MB) while the workspace is alive. The ceiling
    # sits above that, so one more m-float array alive at the peak (a CDF
    # held per class, or a second workspace) fails the test. Tighten it
    # freely; never loosen it.
    PEAK_CEILING = 10_000_000

    M = 131_073

    def wide_config(self, laplace=None):
        rng = np.random.default_rng(0)
        domain = Domain.indexed(self.M)
        dists = tuple(Distribution(domain, rng.dirichlet(np.ones(self.M))) for _ in range(2))
        return TrialConfig(
            source=LabeledSource(np.array([0.5, 0.5]), dists),
            cost=CostMatrix.zero_one(2),
            sample_size=1000,
            trials=30,
            epsilon_target=0.1,
            delta_target=0.1,
            seed=1,
            laplace=laplace,
        )

    @staticmethod
    def traced_peak(call):
        """Peak traced bytes of ``call()`` above the traced size it starts from."""
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    def test_wide_domain_peak_memory(self):
        config = self.wide_config()
        assert self.traced_peak(lambda: run_pac_experiment(config)) <= self.PEAK_CEILING

    # Without estimate smoothing the KLs are infinite; with it the KL is summed in full.
    @pytest.mark.parametrize("laplace", [0.0, 1.0])
    def test_trial_allocates_no_full_width_array(self, laplace):
        """A trial writes every m-sized intermediate into its workspace: a
        returning full-width temporary, m floats, would exceed the bound."""
        config = self.wide_config(laplace)
        risk_opt = _optimal_risk(config.source, config.cost)
        ws = _workspace(2, self.M)
        rng = np.random.default_rng(2)
        peak = self.traced_peak(lambda: _trial(config, rng, 1000, risk_opt, ws))
        assert peak < self.M * 8


class TestConfigValidation:
    def test_rejects_bad_sample_size(self):
        with pytest.raises(ValueError):
            fixed_config(sample_size=0)

    def test_rejects_negative_laplace(self):
        with pytest.raises(ValueError):
            fixed_config(laplace=-1.0)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            fixed_config(delta_target=1.5)

    def test_mode_and_laplace_defaults(self):
        cost_mode = fixed_config()
        assert not cost_mode.log_loss_mode
        assert cost_mode.resolved_laplace == 0.0
        log_mode = fixed_config(cost=None)
        assert log_mode.log_loss_mode
        assert log_mode.resolved_laplace == 1.0

    def test_round_trip_through_dict(self):
        from bayesrisk.pipeline import config_from_dict, config_to_dict

        config = fixed_config(n_grid=(10, 20), laplace=0.5)
        back = config_from_dict(config_to_dict(config))
        assert back.n_grid == (10, 20)
        assert back.laplace == 0.5
        assert np.array_equal(back.source.priors, config.source.priors)
        assert np.array_equal(back.cost.costs, config.cost.costs)

    def test_data_config_round_trips_with_key_order(self):
        data = json.loads((Path(__file__).parent / "data" / "pipeline_config.json").read_text())
        back = config_to_dict(config_from_dict(data))
        assert back == data
        assert list(back) == list(data)
