"""Mass-floor smoothing and its KL certificate."""

import math

import numpy as np
import pytest

from bayesrisk import smoothing
from bayesrisk.bounds import random_l1_perturbation
from bayesrisk.distributions import (
    Domain,
    QuantizedClassSpec,
    l1_distance,
    make_distribution,
    random_quantized,
)
from bayesrisk.smoothing import (
    BaseDistribution,
    SmoothingParams,
    base_mixture,
    kl_certificate,
    kl_certificate_from_floor,
    smooth,
    verify_smoothing,
)


class TestSmoothingParams:
    def test_xi_arithmetic(self):
        params = SmoothingParams(0.5, 8)
        assert params.xi == 0.5**2 / (12 * 8)
        assert params.xi == pytest.approx(0.0026041666666666665, abs=0)

    def test_xi_must_stay_below_one(self):
        with pytest.raises(ValueError, match="below 1"):
            SmoothingParams(12.0, 4)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            SmoothingParams(0.0, 8)


class TestBaseMixture:
    def test_quantized_class_is_uniform_by_symmetry(self):
        base = base_mixture(QuantizedClassSpec(Domain.indexed(4), 8))
        assert np.allclose(base.dist.mass, 0.25, atol=1e-15)
        assert base.min_mass == pytest.approx(0.25, abs=1e-15)

    def test_explicit_two_member_average(self):
        dom = Domain.indexed(2)
        members = [make_distribution(dom, [1, 0]), make_distribution(dom, [0, 1])]
        base = base_mixture(members)
        assert np.array_equal(base.dist.mass, [0.5, 0.5])
        assert base.min_mass == 0.5

    def test_degenerate_class_has_zero_floor(self):
        dom = Domain.indexed(2)
        base = base_mixture([make_distribution(dom, [1, 0])])
        assert base.min_mass == 0.0
        params = SmoothingParams(0.5, 8)
        with pytest.raises(ValueError, match="no floor"):
            smooth(make_distribution(dom, [1, 1]), params, base)

    def test_enumeration_cap(self, monkeypatch):
        dom = Domain.indexed(2)
        members = [make_distribution(dom, [1, 1])] * 10
        monkeypatch.setattr(smoothing, "MAX_ENUMERATION", 5)
        with pytest.raises(ValueError, match="enumeration infeasible"):
            base_mixture(members)


class TestSmooth:
    def test_half_weight_arithmetic(self):
        dom = Domain.indexed(2)
        params = SmoothingParams(6.0, 6)  # xi = 36 / 72 = 0.5 exactly
        assert params.xi == 0.5
        base = BaseDistribution(make_distribution(dom, [1, 1]), 0.5)
        out = smooth(make_distribution(dom, [1, 0]), params, base)
        assert np.array_equal(out.mass, [0.75, 0.25])

    def test_base_is_fixed_point(self):
        dom = Domain.indexed(3)
        base_dist = make_distribution(dom, [1, 2, 3])
        base = BaseDistribution(base_dist, float(base_dist.mass.min()))
        params = SmoothingParams(0.5, 8)
        out = smooth(base_dist, params, base)
        assert np.allclose(out.mass, base_dist.mass, atol=1e-15)

    def test_floor_property(self):
        rng = np.random.default_rng(6)
        spec = QuantizedClassSpec(Domain.indexed(8), 8)
        params = SmoothingParams(0.5, spec.description_length)
        base = base_mixture(spec)
        for _ in range(100):
            est = random_quantized(spec, rng)
            out = smooth(est, params, base)
            assert np.all(out.mass >= params.xi * base.min_mass * (1 - 1e-12))
            assert np.all(out.mass >= params.xi * 2.0**-spec.description_length)

    def test_smoothed_output_is_unit_mass(self):
        rng = np.random.default_rng(7)
        spec = QuantizedClassSpec(Domain.indexed(5), 6)
        params = SmoothingParams(0.3, spec.description_length)
        base = base_mixture(spec)
        out = smooth(random_quantized(spec, rng), params, base)
        assert abs(float(out.mass.sum()) - 1.0) <= 1e-12


class TestKlCertificate:
    def test_closed_form_value(self):
        params = SmoothingParams(0.5, 8)
        expected = 3 * params.xi * (1 + 8 - math.log2(params.xi))
        assert expected == pytest.approx(0.13738251953688402, abs=1e-15)
        assert kl_certificate(params) == expected
        assert kl_certificate(params) <= 0.5

    def test_vanishes_with_epsilon(self):
        assert kl_certificate(SmoothingParams(1e-6, 8)) < 1e-10

    def test_monotone_in_xi(self):
        values = [kl_certificate(SmoothingParams(e, 16)) for e in np.linspace(0.01, 1.0, 50)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_certificate_below_epsilon_on_grid(self):
        for eps in np.linspace(0.01, 1.0, 20):
            for ld in range(4, 65, 4):
                params = SmoothingParams(float(eps), ld)
                assert kl_certificate(params) <= params.epsilon

    def test_floor_variant_is_tighter_for_uniform_base(self):
        spec = QuantizedClassSpec(Domain.indexed(8), 8)
        params = SmoothingParams(0.5, spec.description_length)
        base = base_mixture(spec)
        # min_mass = 1/8 is far above 2**-64, so the floor-based bound wins
        assert kl_certificate_from_floor(params, base) < kl_certificate(params)


class TestVerifySmoothing:
    def test_zero_error_estimate_still_within(self):
        spec = QuantizedClassSpec(Domain.indexed(4), 8)
        params = SmoothingParams(0.5, spec.description_length)
        base = base_mixture(spec)
        rng = np.random.default_rng(8)
        true_d = random_quantized(spec, rng)
        report = verify_smoothing(true_d, true_d, params, base)
        assert report.l1_actual == 0.0
        assert report.kl_actual <= report.certificate
        assert report.within

    def test_randomized_quantized_instances(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            m = int(rng.integers(2, 9))
            spec = QuantizedClassSpec(Domain.indexed(m), 8)
            eps = float(rng.uniform(0.05, 1.0))
            params = SmoothingParams(eps, spec.description_length)
            base = base_mixture(spec)
            true_d = random_quantized(spec, rng)
            est = random_l1_perturbation(true_d, params.xi, rng)
            report = verify_smoothing(true_d, est, params, base)
            assert report.within
            assert report.kl_actual <= report.certificate + 1e-9
            assert report.kl_actual <= report.certificate_floor + 1e-9

    def test_hypothesis_gate(self):
        spec = QuantizedClassSpec(Domain.indexed(4), 8)
        params = SmoothingParams(0.1, spec.description_length)
        base = base_mixture(spec)
        dom = spec.domain
        true_d = make_distribution(dom, [1, 1, 1, 1])
        far = make_distribution(dom, [1, 0, 0, 0])
        with pytest.raises(ValueError, match="hypothesis not met"):
            verify_smoothing(true_d, far, params, base)

    def test_l1_cost_of_smoothing(self):
        rng = np.random.default_rng(10)
        spec = QuantizedClassSpec(Domain.indexed(8), 8)
        params = SmoothingParams(0.5, spec.description_length)
        base = base_mixture(spec)
        for _ in range(100):
            est = random_quantized(spec, rng)
            out = smooth(est, params, base)
            assert l1_distance(est, out) <= 2 * params.xi + 1e-15

    def test_triangle_consequence(self):
        rng = np.random.default_rng(11)
        spec = QuantizedClassSpec(Domain.indexed(8), 8)
        params = SmoothingParams(0.5, spec.description_length)
        base = base_mixture(spec)
        for _ in range(100):
            true_d = random_quantized(spec, rng)
            est = random_l1_perturbation(true_d, params.xi, rng)
            out = smooth(est, params, base)
            assert l1_distance(true_d, out) <= 3 * params.xi + 1e-15

    def test_report_round_trip(self):
        spec = QuantizedClassSpec(Domain.indexed(4), 4)
        params = SmoothingParams(0.4, spec.description_length)
        base = base_mixture(spec)
        rng = np.random.default_rng(12)
        true_d = random_quantized(spec, rng)
        report = verify_smoothing(true_d, true_d, params, base)
        data = report.to_dict()
        assert list(data) == ["xi", "l1_actual", "kl_actual", "certificate", "certificate_floor", "within"]
        assert [(name, data[name]) for name in report.columns()] == list(data.items())
