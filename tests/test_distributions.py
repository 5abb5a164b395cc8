"""Distribution substrate: construction, divergences, mixtures, sampling."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bayesrisk.pipeline as pipeline
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
from bayesrisk.pipeline import _few_leaves, _leaf_plan, _leaf_sums, _on_leaves, _pairwise_tree, _patched_sums

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
        q = make_distribution(Domain(("y0", "y1")), [1, 1])
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
        drawn = _draw_indices(mass, ours.random(n))
        expected = numpy_rng.choice(m, size=n, p=mass)
        assert np.array_equal(_draw_indices(mass, np.random.default_rng([m, n]).random(n), np.empty(m)),
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

    @given(st.integers(1, 64), st.integers(0, 2**32 - 1))
    @example(9, 0)
    @settings(max_examples=200)
    def test_dict_round_trip_keeps_every_bit(self, m, seed):
        rng = np.random.default_rng(seed)
        d = make_distribution(Domain.indexed(m), rng.gamma(0.6, 1.0, m))
        back = Distribution.from_dict(json.loads(json.dumps(d.to_dict())))
        assert [v.hex() for v in back.mass.tolist()] == [v.hex() for v in d.mass.tolist()]
        assert not back.mass.flags.writeable

    def test_rows_left_one_ulp_off_unit_sum_read_back_unchanged(self):
        """Construction leaves some masses one ulp off unit sum, and renormalizing one again would move
        its bits; ``from_dict`` keeps them as written, at every m up to 64."""
        rng = np.random.default_rng(3)
        off = {m: 0 for m in range(1, 65)}
        for m in off:
            for _ in range(40):
                d = make_distribution(Domain.indexed(m), rng.gamma(0.6, 1.0, m))
                off[m] += float(d.mass.sum()) != 1.0
                assert Distribution.from_dict(d.to_dict()).mass.tobytes() == d.mass.tobytes(), m
        assert off[9] > 0 and sum(off.values()) > 40

    def test_from_dict_still_renormalizes_a_mass_further_off(self):
        back = Distribution.from_dict({"atoms": ["a", "b"], "mass": [0.25, 0.75 + 1e-13]})
        assert back.mass.tolist() != [0.25, 0.75 + 1e-13] and abs(back.mass.sum() - 1.0) <= 2**-52
        with pytest.raises(ValueError, match="non-negative"):
            Distribution.from_dict({"atoms": ["a", "b"], "mass": [1.0 + 2**-52, -(2**-52)]})


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


# Lengths around numpy's leaf of 128 and its 8 accumulators, powers of two and their neighbours, and the
# wide domains of the PDFA workloads and memory tests.
TREE_LENGTHS = [1, 7, 8, 9, 127, 128, 129, 4_095, 4_096, 40_000, 131_071, 131_072, 131_073, 262_144]
HITS = ["none", "one", "leaf-edges", "every-leaf"]


def _hit_atoms(kind: str, n: int, rng) -> np.ndarray:
    """Sorted distinct atoms of a length-``n`` row: none, one, each leaf's first and last, or one in every leaf."""
    _, starts, lengths, _ = _pairwise_tree(n)
    if kind == "none":
        return np.zeros(0, int)
    if kind == "one":
        return rng.integers(n, size=1)
    if kind == "leaf-edges":
        return np.unique(np.concatenate((starts, starts + lengths - 1)))
    return starts + rng.integers(lengths)


def _base_leaf_sums(row: np.ndarray) -> np.ndarray:
    return _leaf_sums(row.size, row)


def check_tree_sums(n: int, kind: str, rng) -> None:
    """The kernel against ``ndarray.sum`` in float.hex at length ``n``: on a 1-D row, on the second row of a
    ``(2, n)`` array summed along its rows, and on that array flattened. Each is a base row with the atoms
    of ``kind`` changed, summed as a one-row plan from the base's leaf sums, and the same row zero off those
    atoms, summed from zero leaf sums; only the leaves holding those atoms are summed afresh."""
    base = rng.random((2, n)) * 2.0 ** rng.integers(-20, 20, (2, n))
    cases = [
        (base[0], _hit_atoms(kind, n, rng), lambda row: row.sum()),
        (base[1], _hit_atoms(kind, n, rng), lambda row: np.stack((base[0], row)).sum(axis=1)[1]),
        (base.reshape(-1), _hit_atoms(kind, 2 * n, rng), lambda row: row.reshape(2, n).sum()),
    ]
    for before, at, numpy_sum in cases:
        after, alone = before.copy(), np.zeros_like(before)
        after[at] = alone[at] = rng.random(len(at))
        size, plan = before.size, _leaf_plan(before.size, np.zeros(len(at), int), at)  # every atom in row 0
        from_base = _patched_sums(size, plan, after[at], _base_leaf_sums(before)[None],
                                  lambda _, starts, length: _on_leaves(before, starts, length))
        from_zero = _patched_sums(size, plan, alone[at], np.zeros((1, 1 << _pairwise_tree(size)[0])))
        assert float(from_base[0]).hex() == float(numpy_sum(after)).hex()
        assert float(from_zero[0]).hex() == float(numpy_sum(alone)).hex()


def check_tree_rows(n: int, kind: str, rng, rows: int = 3) -> None:
    """The batch kernel against ``ndarray.sum`` in float.hex at length ``n``: ``rows`` base rows, each with atoms
    of ``kind`` changed, summed in one 2-D tree pass from the base rows' leaf sums, and the same rows zero off
    those atoms, from zero leaf sums; only the leaves holding those atoms are summed afresh."""
    base = rng.random((rows, n)) * 2.0 ** rng.integers(-20, 20, (rows, n))
    hits = [_hit_atoms(kind, n, rng) for _ in range(rows)]
    after, alone = base.copy(), np.zeros_like(base)
    for row, at in enumerate(hits):
        after[row, at] = alone[row, at] = rng.random(len(at))
    row_of, atoms = np.repeat(np.arange(rows), [len(at) for at in hits]), np.concatenate(hits)
    plan, flat = _leaf_plan(n, row_of, atoms), base.reshape(-1)
    from_base = _patched_sums(n, plan, after[row_of, atoms], np.stack([_base_leaf_sums(row) for row in base]),
                              lambda of, starts, length: _on_leaves(flat, of * n + starts, length))
    from_zero = _patched_sums(n, plan, after[row_of, atoms], np.zeros((rows, 1 << _pairwise_tree(n)[0])))
    for sums, rebuilt in ((after, from_base), (alone, from_zero)):
        assert [v.hex() for v in rebuilt.tolist()] == [float(row.sum()).hex() for row in sums]


class TestPairwiseTree:
    """numpy's float sum rebuilt from leaf sums: the kernel of sparse PAC trials, one row or a batch of rows."""

    @pytest.mark.parametrize("kind", HITS)
    @pytest.mark.parametrize("n", TREE_LENGTHS)
    def test_sums_equal_numpy_sums(self, n, kind):
        check_tree_sums(n, kind, np.random.default_rng([n, HITS.index(kind)]))
        check_tree_rows(n, kind, np.random.default_rng([n, HITS.index(kind), 2]))

    @given(n=st.integers(1, 300_000), kind=st.sampled_from(HITS), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_sums_equal_numpy_sums_at_random_lengths(self, n, kind, seed):
        try:
            check_tree_sums(n, kind, np.random.default_rng(seed))
            check_tree_rows(n, kind, np.random.default_rng([seed, 2]))
        finally:
            _pairwise_tree.cache_clear()  # a tree per random length would outlive the test

    def test_few_leaves_are_those_cheaper_than_a_full_pass(self):
        """Below ``_TREE_ATOMS`` atoms, or with more leaves to sum afresh than their cost allows, a sum takes
        the full pass; else its leaves are few, each leaf counted once however many of its atoms are hit."""
        n = 131_072
        starts = _pairwise_tree(n)[1]
        most = (n - pipeline._TREE_ATOMS) // (pipeline._LEAF_PASSES * pipeline._LEAF)
        assert not _few_leaves(pipeline._TREE_ATOMS - 1, np.array([0]))
        assert _few_leaves(n, np.array([0, 1, 200]))
        assert _few_leaves(n, np.sort(np.concatenate((starts[:most] + 5, starts[:most] + 6))))
        assert not _few_leaves(n, starts[: most + 1])
