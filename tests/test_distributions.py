"""Distribution substrate: construction, divergences, mixtures, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesrisk.distributions import (
    Distribution,
    Domain,
    QuantizedClassSpec,
    _draw_indices,
    _kl_on_support,
    kl_divergence,
    l1_distance,
    make_distribution,
    mixture,
    random_quantized,
    sample,
)

D2 = Domain.indexed(2)


@st.composite
def weight_vectors(draw, min_size=2, max_size=16):
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    values = draw(
        st.lists(
            st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False),
            min_size=size,
            max_size=size,
        )
    )
    return np.asarray(values)


@st.composite
def distribution_pairs(draw):
    w = draw(weight_vectors())
    v = draw(
        st.lists(
            st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False),
            min_size=len(w),
            max_size=len(w),
        )
    )
    domain = Domain.indexed(len(w))
    return make_distribution(domain, w), make_distribution(domain, np.asarray(v))


class TestDomain:
    def test_unique_atoms_required(self):
        with pytest.raises(ValueError, match="unique"):
            Domain(("x0", "x0"))

    def test_needs_at_least_one_atom(self):
        with pytest.raises(ValueError):
            Domain(())

    def test_index_lookup(self):
        d = Domain(("a", "b", "c"))
        assert d.index("b") == 1
        assert d.size == 3
        with pytest.raises(KeyError):
            d.index("z")


class TestMakeDistribution:
    def test_symmetric_weights(self):
        d = make_distribution(D2, [1, 1])
        assert np.allclose(d.mass, [0.5, 0.5], atol=0)

    def test_normalization_arithmetic(self):
        d = make_distribution(D2, [3, 1])
        assert np.array_equal(d.mass, [0.75, 0.25])

    def test_all_zero_weights_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            make_distribution(Domain.indexed(1), [0])

    def test_negative_weight_invalid(self):
        with pytest.raises(ValueError, match="invalid mass"):
            make_distribution(D2, [1, -1])

    def test_nan_weight_invalid(self):
        with pytest.raises(ValueError, match="invalid mass"):
            make_distribution(D2, [1, float("nan")])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="invalid mass"):
            make_distribution(D2, [1, 1, 1])


class TestL1Distance:
    def test_identity(self):
        p = make_distribution(D2, [2, 3])
        assert l1_distance(p, p) == 0.0

    def test_disjoint_point_masses(self):
        p = make_distribution(D2, [1, 0])
        q = make_distribution(D2, [0, 1])
        assert l1_distance(p, q) == 2.0

    def test_two_atom_value(self):
        p = make_distribution(D2, [0.6, 0.4])
        q = make_distribution(D2, [0.49, 0.51])
        assert l1_distance(p, q) == pytest.approx(0.22, abs=1e-12)

    def test_domain_mismatch(self):
        p = make_distribution(D2, [1, 1])
        q = make_distribution(Domain.indexed(2, prefix="y"), [1, 1])
        with pytest.raises(ValueError, match="different domains"):
            l1_distance(p, q)


class TestKlDivergence:
    def test_identity(self):
        p = make_distribution(D2, [0.7, 0.3])
        assert kl_divergence(p, p) == 0.0

    def test_two_atom_value_against_direct_summation(self):
        p = make_distribution(D2, [0.6, 0.4])
        q = make_distribution(D2, [0.49, 0.51])
        oracle = 0.6 * math.log2(0.6 / 0.49) + 0.4 * math.log2(0.4 / 0.51)
        assert oracle == pytest.approx(0.035109552062332905, abs=1e-15)
        assert kl_divergence(p, q) == pytest.approx(oracle, abs=1e-15)

    def test_support_violation_is_infinite(self):
        p = make_distribution(D2, [1, 0])
        q = make_distribution(D2, [0, 1])
        assert kl_divergence(p, q) == math.inf

    def test_zero_mass_atoms_ignored(self):
        dom = Domain.indexed(3)
        p = make_distribution(dom, [0.5, 0.5, 0])
        q = make_distribution(dom, [0.25, 0.25, 0.5])
        assert kl_divergence(p, q) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 5, 64, 131_073])
    def test_full_support_sums_in_place_what_the_gather_sums(self, m):
        rng = np.random.default_rng(m)
        p, q = (make_distribution(Domain.indexed(m), rng.random(m) + 1e-3).mass for _ in range(2))
        support = np.ones(m, bool)
        gathered = max(0.0, float((p[support] * np.log2(p[support] / q[support])).sum()))
        assert float.hex(_kl_on_support(p, q, support, np.empty(m))) == float.hex(gathered)


class TestMixture:
    def test_two_atom_average(self):
        p = make_distribution(D2, [0.6, 0.4])
        q = make_distribution(D2, [0.4, 0.6])
        mix = mixture([(0.5, p), (0.5, q)])
        assert np.allclose(mix.mass, [0.5, 0.5], atol=1e-15)

    def test_single_component_identity(self):
        p = make_distribution(D2, [0.3, 0.7])
        assert np.array_equal(mixture([(1.0, p)]).mass, p.mass)

    def test_point_mass_mixture(self):
        p = make_distribution(D2, [1, 0])
        q = make_distribution(D2, [0, 1])
        mix = mixture([(0.25, p), (0.75, q)])
        assert np.array_equal(mix.mass, [0.25, 0.75])

    def test_bad_weight_sum(self):
        p = make_distribution(D2, [1, 1])
        with pytest.raises(ValueError, match="sum"):
            mixture([(0.5, p), (0.4, p)])


class TestSample:
    def test_point_mass(self):
        p = make_distribution(D2, [1, 0])
        assert sample(p, np.random.default_rng(0), 5) == ["x0"] * 5

    def test_fair_coin_frequency(self):
        p = make_distribution(D2, [1, 1])
        xs = sample(p, np.random.default_rng(123), 10**5)
        assert abs(xs.count("x0") / 10**5 - 0.5) < 0.01

    def test_empty_draw(self):
        p = make_distribution(D2, [1, 1])
        assert sample(p, np.random.default_rng(0), 0) == []

    def test_deterministic_given_seed(self):
        p = make_distribution(Domain.indexed(5), [1, 2, 3, 4, 5])
        a = sample(p, np.random.default_rng(7), 100)
        b = sample(p, np.random.default_rng(7), 100)
        assert a == b


def masses_with_zero_atoms(m):
    """A pmf on ``m`` atoms; from m = 2 on, every third atom has zero mass."""
    weights = np.random.default_rng(m).random(m) + 0.1
    if m > 1:
        weights[::3] = 0.0
    return make_distribution(Domain.indexed(m), weights).mass


class TestDrawIndices:
    """The inverse-CDF sampler must stay ``Generator.choice(m, size=n, p=mass)``
    draw for draw: the pipeline goldens were made with ``choice``."""

    @pytest.mark.parametrize("m", [1, 2, 64, 131_073])
    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_matches_generator_choice_bit_for_bit(self, m, n):
        mass = masses_with_zero_atoms(m)
        ours, numpy_rng = np.random.default_rng([m, n]), np.random.default_rng([m, n])
        drawn = _draw_indices(mass, ours, n)
        expected = numpy_rng.choice(m, size=n, p=mass)
        assert np.array_equal(_draw_indices(mass, np.random.default_rng([m, n]), n, np.empty(m)),
                              expected)
        assert np.array_equal(drawn, expected), (
            "Generator.choice(p=...) no longer draws by inverse CDF; the sampler "
            "must follow it, or the change of random stream must be declared"
        )
        assert ours.random() == numpy_rng.random(), "the generators' states diverged"
        assert np.all(mass[drawn] > 0.0)

    def test_sample_draws_what_choice_draws(self):
        p = make_distribution(Domain.indexed(5), [1, 0, 3, 4, 5])
        expected = np.random.default_rng(3).choice(5, size=100, p=p.mass)
        assert sample(p, np.random.default_rng(3), 100) == [f"x{i}" for i in expected]


class TestInvariants:
    @given(distribution_pairs())
    def test_l1_range_and_symmetry(self, pq):
        p, q = pq
        d = l1_distance(p, q)
        assert 0.0 <= d <= 2.0
        assert d == l1_distance(q, p)

    @given(distribution_pairs(), weight_vectors())
    @settings(max_examples=50)
    def test_l1_triangle_inequality(self, pq, w):
        p, q = pq
        if len(w) != p.domain.size:
            w = np.resize(w, p.domain.size)
        r = make_distribution(p.domain, w)
        assert l1_distance(p, q) <= l1_distance(p, r) + l1_distance(r, q) + 1e-12

    @given(distribution_pairs())
    def test_kl_nonnegative_and_zero_iff_equal(self, pq):
        p, q = pq
        kl = kl_divergence(p, q)
        assert kl >= 0.0
        if kl == 0.0:
            assert l1_distance(p, q) <= 1e-12

    @given(distribution_pairs())
    def test_pinsker_sanity(self, pq):
        p, q = pq
        l1 = l1_distance(p, q)
        assert l1 * l1 / (2.0 * math.log(2.0)) <= kl_divergence(p, q) + 1e-12

    @given(distribution_pairs())
    def test_mixture_unit_mass(self, pq):
        p, q = pq
        mix = mixture([(0.25, p), (0.75, q)])
        assert abs(float(mix.mass.sum()) - 1.0) <= 1e-15


class TestSerialization:
    def test_json_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(4)
        d = make_distribution(Domain.indexed(17), rng.gamma(0.5, 1.0, 17))
        back = Distribution.from_json(d.to_json())
        assert back.domain == d.domain
        assert np.array_equal(back.mass, d.mass)


class TestQuantizedClassSpec:
    def test_description_length(self):
        spec = QuantizedClassSpec(Domain.indexed(4), 8)
        assert spec.description_length == 32

    def test_membership(self):
        spec = QuantizedClassSpec(Domain.indexed(2), 2)
        assert spec.contains(make_distribution(D2, [0.25, 0.75]))
        assert not spec.contains(make_distribution(D2, [0.3, 0.7]))

    def test_random_member_in_class(self):
        spec = QuantizedClassSpec(Domain.indexed(8), 10)
        rng = np.random.default_rng(5)
        for _ in range(50):
            assert spec.contains(random_quantized(spec, rng))
