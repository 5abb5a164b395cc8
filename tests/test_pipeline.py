"""Sample-split-estimate-classify trials and the experiment harness."""

import dataclasses
import json
import math
import os
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bayesrisk import pipeline
from bayesrisk.bounds import _plugin_risk, random_cost, random_source
from bayesrisk.classify import CostMatrix, LabeledSource
from bayesrisk.distributions import Distribution, Domain, _draw_indices, _exact_unit_mass, make_distribution
from bayesrisk.distributions import _kl_on_support, _l1_distance
from bayesrisk.pipeline import (
    TrialConfig,
    config_from_dict,
    config_to_dict,
    empirical_estimator,
    _block,
    _fixed,
    _leaf_sums,
    run_pac_experiment,
    run_trial,
)

D2 = Domain.indexed(2)
FLOOR = pipeline._BATCH_ATOMS  # the fewest atoms on which a trial can batch


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

    def test_bools_and_floats_are_not_indices(self):
        """Beyond the boundary table's cases: a numpy bool, and a float after a valid index."""
        for bad in ([np.True_], [0, 1.0]):
            with pytest.raises(ValueError, match="sample atom index must be an integer"):
                empirical_estimator(bad, Domain.indexed(3))

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


class TestEstimateHits:
    """``_add_lambda`` divides only the drawn atoms where an estimate is sparse (no smoothing, at most one draw per
    16 atoms, ``_sparse``) and the whole row elsewhere. Either way the row holds, in bytes, ``bincount / n`` (or the
    add-lambda formula, or the uniform fallback at n = 0), whatever the row held before. Where the estimate is
    sparse, ``_estimate`` gives its non-zero atoms and its entries there in those bits, and else ``None``."""

    M = 4096

    def check(self, draws, sparse, mass=None, laplace=0.0):
        mass = np.full(self.M, 0.5) if mass is None else mass
        m, idx = mass.size, np.array(draws, dtype=np.intp)
        assert (not laplace and pipeline._sparse(idx, m)) == sparse
        pipeline._add_lambda(mass, idx, laplace)
        tally, denom = np.bincount(idx, minlength=m).astype(float), len(draws) + laplace * m
        expected = np.full(m, 1.0 / m) if denom == 0.0 else (tally + laplace if laplace else tally) / denom
        assert mass.tobytes() == expected.tobytes()
        hits = None if laplace else pipeline._estimate(idx, m)
        assert (hits is not None) == sparse
        if sparse:
            at, entries = hits
            assert at.tolist() == np.flatnonzero(mass > 0.0).tolist()
            assert entries.tobytes() == mass[at].tobytes()
        return mass

    @pytest.mark.parametrize(
        "draws",
        [[7], [7, 7, 7, 7], [M - 1], [M - 1, 0, M - 1], [40, 3, 40, 12] * (M // 64)],
        ids=["one-draw", "every-draw-on-one-atom", "last-atom", "last-and-first-atoms", "n-is-m-over-16"],
    )
    def test_hits_are_the_nonzero_atoms(self, draws):
        self.check(draws, True)

    def test_more_than_one_draw_per_16_atoms_is_dense(self):
        self.check([40, 3, 40, 12] * (self.M // 64) + [self.M - 1], False)

    def test_a_domain_below_the_break_even_is_dense(self):
        """One draw is sparse on 16 atoms and dense on 15."""
        self.check([7], True, mass=np.full(16, 0.5))
        self.check([7], False, mass=np.full(15, 0.5))

    def test_row_holding_the_last_trials_hits(self):
        """A trial counts its estimates over the last trial's in the workspace rows, sparse or dense, so a row must
        hold zeros off this trial's draws."""
        mass = self.check([self.M - 1, 2, 30], True)
        mass = self.check(list(range(0, self.M, 8)), False, mass=mass)
        mass = self.check([5, 5, 30], True, mass=mass)
        self.check([0, 17, 33, 33], True, mass=mass)

    def test_no_draws_is_uniform(self):
        self.check([], False)
        self.check([], False, laplace=0.5)

    def test_smoothing_divides_every_atom(self):
        self.check([7, 7, 3], False, laplace=0.5)
        self.check([40, 3, 40, 12] * (self.M // 64) + [self.M - 1], False, laplace=0.5)

    @given(m=st.integers(1, 5_000), n=st.integers(0, 600), laplace=st.sampled_from([0.0, 0.5]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_every_estimate_has_the_formulas_bits(self, m, n, laplace, seed):
        """Draws with repeats on both sides of the 16-draw rule, into a row that held another estimate."""
        rng = np.random.default_rng(seed)
        mass = np.empty(m)
        pipeline._add_lambda(mass, rng.integers(0, m, rng.integers(0, 50)), 0.0)
        draws = rng.integers(0, min(m, n // 2 + 1), n).tolist()  # on at most about n / 2 atoms: repeats
        self.check(draws, not laplace and 0 < 16 * n <= m, mass=mass, laplace=laplace)


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
        assert a.columns == b.columns

    def test_trials_floor_enforced(self):
        with pytest.raises(ValueError, match="30 trials"):
            fixed_config(trials=10)

    # Peak traced bytes of the run below, above its starting size. The code
    # before the per-trial temporaries were trimmed peaked at 10,694,741
    # bytes (numpy 2.4, Python 3.11), and per-trial temporaries at 9.50 MB.
    # On one workspace per experiment it peaked at 9.75 MB as the first
    # experiment in a process, where np.median's first call imported
    # numpy.ma (1.17 MB) while the workspace was alive. Aggregated after the
    # workspace is freed, it peaked at 9,061,464 bytes as the first
    # experiment and 9,061,887 once numpy.ma was loaded; with the order
    # statistics taken without numpy.ma, 8,995,866. With a workspace of only
    # the buffers the cost kernels read (no bool row) it peaks at 8,864,791.
    # The ceiling is 0.44 MB above that, less than one m-float array
    # (1.05 MB), so one more such array alive at the peak (a CDF held per
    # class, or a second workspace) fails the test. Tighten it freely; never
    # loosen it.
    PEAK_CEILING = 9_300_000

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

    def test_blocks_are_capped_at_large_n(self):
        """At n = 1e5 a block holds one trial, so its buffers of n uniforms and n indices hold one
        trial's draws at a time; without the cap they would hold 30 trials' worth, 24 MB each."""
        n = 100_000
        config = TrialConfig(
            source=random_source(np.random.default_rng(4), 2, 16),
            cost=CostMatrix.zero_one(2),
            sample_size=n,
            trials=30,
            epsilon_target=0.1,
            delta_target=0.1,
        )
        assert self.traced_peak(lambda: run_pac_experiment(config)) < 2 * n * 8 + 200_000

    def test_wide_domain_peak_memory(self):
        config = self.wide_config()
        assert self.traced_peak(lambda: run_pac_experiment(config)) <= self.PEAK_CEILING

    def test_wide_domain_logloss_peak_memory(self):
        """The same run under log loss (laplace resolves to 1). With an intp row of labels in its workspace, which no
        log-loss kernel reads, it peaked at 13,324,071 bytes; without it, at 12,275,299. The ceiling is 0.42 MB above
        that, less than one m-float array, so that row, or any other spare m-sized array, fails the test."""
        config = TrialConfig(**{**vars(self.wide_config()), "cost": None})
        assert self.traced_peak(lambda: run_pac_experiment(config)) <= 12_700_000

    @pytest.mark.parametrize("cost, spare", [(CostMatrix.zero_one(2), np.intp), (None, bool)])
    def test_workspace_holds_only_its_loss_buffers(self, cost, spare):
        """After one dense block the workspace is the estimates, the scores, the CDF row and one row the loss's
        kernels read: the Bayes labels (intp) under costs, the covered atoms (bool) under log loss."""
        config = TrialConfig(**{**vars(self.wide_config(1.0)), "cost": cost})
        fixed = _fixed(config)
        _block(config, [np.random.default_rng(1)], 1000, *fixed)
        shapes = [(2, self.M), (2, self.M), (self.M,), (self.M,)]
        assert [(a.dtype, a.shape) for a in fixed[0]] == list(zip([float, float, float, spare], shapes))

    # Without estimate smoothing the KLs are infinite; with it the KL is summed in full.
    @pytest.mark.parametrize("laplace", [0.0, 1.0])
    def test_trial_allocates_no_full_width_array(self, laplace):
        """A trial writes every m-sized intermediate into its workspace: a
        returning full-width temporary, m floats, would exceed the bound.
        Without smoothing the first dense trial makes the workspace, so the
        block measured is one after a block that made it."""
        config = self.wide_config(laplace)
        fixed = _fixed(config)
        _block(config, [np.random.default_rng(1)], 1000, *fixed)
        assert fixed[0][0] is not None
        rng = np.random.default_rng(2)
        peak = self.traced_peak(lambda: _block(config, [rng], 1000, *fixed))
        assert peak < self.M * 8


    def peaked_config(self):
        """The wide config with nine tenths of each class on its first 512 atoms: draws that fall on few leaves."""
        config = self.wide_config()
        weights = np.array([d.mass for d in config.source.class_dists])
        weights[:, :512] += 9.0 / 512
        source = LabeledSource(config.source.priors, tuple(make_distribution(d.domain, w) for d, w in
                                                           zip(config.source.class_dists, weights)))
        return TrialConfig(**{**vars(config), "source": source})

    def test_sparse_trial_allocates_no_full_width_array(self, monkeypatch):
        """A trial whose draws fall on few of numpy's leaves sums those leaves afresh, at most
        ``pipeline._LEAF_FLOATS`` floats at a time: no returning temporary is as large as m floats. The trial's
        own sums go through the tree: ``_fixed``'s tree passes are made before it is watched."""
        config = self.peaked_config()
        fixed, atom_sets, trees = _fixed(config), [], []
        estimate, tree_sum = pipeline._estimate, pipeline._tree_sum
        monkeypatch.setattr(pipeline, "_tree_sum", lambda sums: trees.append(len(sums)) or tree_sum(sums))
        monkeypatch.setattr(pipeline, "_estimate", lambda *args: atom_sets.append(estimate(*args)) or atom_sets[-1])
        peak = self.traced_peak(lambda: _block(config, [np.random.default_rng(2)], 1000, *fixed))
        assert atom_sets and not any(at is None for at in atom_sets) and trees
        assert peak < self.M * 8

    def test_sparse_block_allocates_no_full_width_array(self, monkeypatch):
        """A block of 30 such trials, worked in batches, holds no more than one m-float array would: the batches'
        arrays are capped by ``_BATCH_FLOATS``, their leaf matrices by ``pipeline._LEAF_FLOATS``, and the
        block's uniform draws are freed once they are turned into atoms."""
        batches, sparse_batch = [], pipeline._sparse_batch
        monkeypatch.setattr(pipeline, "_sparse_batch", lambda config, batch, *fixed: batches.append(len(batch))
                            or sparse_batch(config, batch, *fixed))
        config = self.peaked_config()
        fixed, rngs = _fixed(config), [np.random.default_rng([2, t]) for t in range(30)]
        peak = self.traced_peak(lambda: _block(config, rngs, 1000, *fixed))
        assert sum(batches) == 30 and max(batches) > 1
        assert peak < self.M * 8

    def test_sparse_experiment_holds_no_full_width_workspace(self):
        """An experiment whose every trial is batched builds its optimal risk and base sums leaf by leaf and never
        makes the dense workspace: its peak stays under two m-float arrays (the one CDF row and the leaf matrices),
        where the rest of the workspace alone is 5, and the source's weighted masses are never made."""
        config = self.peaked_config()
        assert self.traced_peak(lambda: run_pac_experiment(config)) < 2 * self.M * 8
        assert "weighted_mass" not in config.source.__dict__


def _hexed(row: dict) -> list:
    return [(key, float.hex(value) if isinstance(value, float) else value) for key, value in row.items()]


@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 12),
    log_loss=st.booleans(),
    laplace=st.sampled_from([0.0, 1.0]),
    partial=st.booleans(),
    grid=st.lists(st.sampled_from([1, 2, 7, 40, 200]), min_size=1, max_size=3),
    cap=st.sampled_from([64, pipeline._BLOCK_DRAWS]),
)
@settings(max_examples=40, deadline=None)
def test_experiment_blocks_equal_one_trial_at_a_time(seed, m, log_loss, laplace, partial, grid, cap):
    """The experiment's rows, its trials run in blocks, equal :func:`run_trial` on the same spawned
    streams field by field in float.hex, in report.csv's column order: both modes, laplace 0 and
    1, n = 1, classes that draw no samples, a true class missing atoms, and with the cap at 64,
    blocks that straddle the 30 trials (n = 7) and blocks of one trial (n above the cap)."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 4))
    source = random_source(rng, k, m)
    if partial and m > 1:
        weights = source.class_dists[0].mass.copy()
        weights[::2] = 0.0
        source = LabeledSource(source.priors, (make_distribution(source.domain, weights), *source.class_dists[1:]))
    config = TrialConfig(
        source=source,
        cost=None if log_loss else random_cost(rng, k),
        sample_size=grid[0],
        trials=30,
        epsilon_target=0.1,
        delta_target=0.05,
        seed=seed,
        laplace=laplace,
        n_grid=tuple(grid),
    )
    with mock.patch.object(pipeline, "_BLOCK_DRAWS", cap):
        columns = run_pac_experiment(config).columns
    streams = np.random.SeedSequence(seed).spawn(len(grid) * 30)
    expected = []
    for gi, n in enumerate(grid):
        for t in range(30):
            out = run_trial(config, np.random.default_rng(streams[gi * 30 + t]), n)
            expected.append({
                "n": n,
                "trial": t,
                "excess": out.report.excess,
                "bound": out.report.bound,
                "satisfied": out.report.satisfied,
                "risk_opt": out.report.risk_opt,
                "risk_plugin": out.report.risk_plugin,
                "max_l1": max(out.l1_per_class),
                "max_kl": max(out.kl_per_class),
                "counts": "|".join(str(c) for c in out.counts),
            })
    rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
    assert [_hexed(row) for row in rows] == [_hexed(row) for row in expected]


def _dense_trial(config, rng, n):
    """One trial on every atom, the reference for the sparse path: the draws in :func:`_block`'s
    order, the add-lambda formula (no lambda added at 0, so the counts' bits stay), and the
    kernels on ``slice(None)``; returns the counts, L1s, KLs and plug-in risk."""
    source, laplace = config.source, config.resolved_laplace
    m = source.domain.size
    counts = np.bincount(_draw_indices(source.priors, rng.random(n)), minlength=source.k)
    est = np.empty((source.k, m))
    for row, d, c in zip(est, source.class_dists, counts):
        tally = np.bincount(_draw_indices(d.mass, rng.random(c)), minlength=m).astype(float)
        denom = c + laplace * m
        row[:] = 1.0 / m if denom == 0.0 else (tally + laplace if laplace else tally) / denom
        _exact_unit_mass(row)
    pairs = [(d.mass, q) for d, q in zip(source.class_dists, est)]
    l1s = [_l1_distance(p, q) for p, q in pairs]
    kls = [_kl_on_support(p, q, p > 0.0) for p, q in pairs]
    costs = None if config.cost is None else config.cost.costs
    return counts.tolist(), l1s, kls, float(_plugin_risk(source.weighted_mass, est * source.priors[:, None], costs))


def check_block_against_dense(config, fixed, seeds, n, cap=pipeline._BATCH_FLOATS):
    """Each ``_block`` trial on the generators of ``seeds``, run on :func:`_fixed`'s ``fixed`` with the batches
    capped at ``cap`` floats, has in its row of the block's columns (one row per seed) the counts, L1s, KLs and
    plug-in risk in float.hex of the dense kernels on the same draws. Returns the sizes of the batches of sparse
    trials."""
    batches, sparse_batch = [], pipeline._sparse_batch
    spy = lambda config, batch, *fixed: batches.append(len(batch)) or sparse_batch(config, batch, *fixed)
    with mock.patch.object(pipeline, "_BATCH_FLOATS", cap), mock.patch.object(pipeline, "_sparse_batch", spy):
        block = _block(config, [np.random.default_rng(s) for s in seeds], n, *fixed)
    assert all(len(block[key]) == len(seeds) for key in ("counts", "l1s", "kls", "risk_plugin"))
    for j, s in enumerate(seeds):
        counts, l1s, kls, risk = _dense_trial(config, np.random.default_rng(s), n)
        assert block["counts"][j].tolist() == counts
        assert [v.hex() for v in block["l1s"][j].tolist()] == [v.hex() for v in l1s]
        assert [v.hex() for v in block["kls"][j].tolist()] == [v.hex() for v in kls]
        assert float(block["risk_plugin"][j]).hex() == risk.hex()
    return batches


CAPS = {"one": 1, "default": pipeline._BATCH_FLOATS, "block": 1 << 40}


@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 5),
    m=st.one_of(st.integers(1, 300), st.sampled_from([4000, 4096, 9000, 40000, FLOOR - 1, FLOOR, 81_920])),
    grid=st.lists(st.sampled_from([1, 3, 20, 150, 2000]), min_size=1, max_size=3),
    rare=st.booleans(),
    peaked=st.booleans(),
    partial=st.booleans(),
    ties=st.booleans(),
    log_loss=st.booleans(),
    laplace=st.sampled_from([0.0, 0.5]),
    trials=st.just(4),
    cap=st.sampled_from(sorted(CAPS)),
)
@settings(max_examples=100, deadline=None)
# The domains of a PDFA truncated at 16, 2**17 atoms and one more, in every run, as each takes 0.2-1.2 s: sparse
# trials are batched only where their hits fall on few of numpy's leaves, on domains this wide. The batches hold
# a trial each (cap "one"), up to a whole block (cap "block") and, at n = 1,000, 30 trials at the default cap.
@example(seed=1, k=2, m=131_073, grid=[150], rare=False, peaked=True, partial=False, ties=False, log_loss=False,
         laplace=0.0, trials=4, cap="default")
@example(seed=2, k=3, m=131_072, grid=[20, 2000], rare=True, peaked=True, partial=True, ties=True, log_loss=False,
         laplace=0.0, trials=4, cap="default")
@example(seed=3, k=4, m=131_073, grid=[100], rare=False, peaked=True, partial=True, ties=False, log_loss=False,
         laplace=0.0, trials=4, cap="one")
@example(seed=4, k=2, m=131_072, grid=[100], rare=False, peaked=False, partial=False, ties=False, log_loss=False,
         laplace=0.0, trials=30, cap="block")
@example(seed=5, k=2, m=131_072, grid=[1000], rare=False, peaked=True, partial=False, ties=True, log_loss=False,
         laplace=0.0, trials=30, cap="default")
def test_sparse_trials_equal_the_dense_kernels(seed, k, m, grid, rare, peaked, partial, ties, log_loss, laplace,
                                               trials, cap):
    """Each ``_block`` trial, its estimates divided only at their hit atoms where lambda is 0 and a class drew
    at most one atom in 16, and batched where it can be (``_BATCH_ATOMS`` atoms or more, hits on few leaves),
    has the counts, L1s, KLs and plug-in risk in float.hex of the dense kernels on the same draws: n < m and
    n >> m, with domains wide enough for 2,000 draws to be sparse, one atom below the batching floor and at it,
    and one (81,920 atoms) wide enough for a generated peaked case at small n to be batched, classes that
    share their likeliest atoms (so their hits meet in one column), a class that draws nothing (a prior of
    1e-3), a true class missing atoms, costs with two equal columns (ties), and several blocks of several
    trials on one workspace, so each trial starts from the last one's atoms; batches of one trial, of several
    and of a whole block."""
    rng = np.random.default_rng(seed)
    source = random_source(rng, k, m)
    priors, dists = source.priors.copy(), source.class_dists
    if rare:
        priors[0] = 1e-3
        priors /= priors.sum()
    if peaked:
        weights = np.array([d.mass for d in dists])
        weights[:, :8] += 1.0
        dists = tuple(make_distribution(source.domain, w) for w in weights)
    if partial and m > 1:
        weights = dists[-1].mass.copy()
        weights[rng.random(m) < 0.5] = 0.0
        weights[rng.integers(m)] = 1.0
        dists = (*dists[:-1], make_distribution(source.domain, weights))
    source = LabeledSource(priors, dists)
    costs = random_cost(rng, k).costs.copy()
    if ties:
        costs[:, 1] = costs[:, 0]
    config = TrialConfig(
        source=source,
        cost=None if log_loss else CostMatrix(costs),
        sample_size=grid[0],
        trials=30,
        epsilon_target=0.1,
        delta_target=0.05,
        laplace=laplace,
    )
    fixed = _fixed(config)
    for gi, n in enumerate(grid):
        check_block_against_dense(config, fixed, [[seed, gi, t] for t in range(trials)], n, CAPS[cap])


@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 5),
    m=st.sampled_from([81_920, 131_072]),
    ties=st.booleans(),
    cap=st.sampled_from(sorted(CAPS)),
)
@settings(max_examples=8, deadline=None, derandomize=True)
def test_peaked_sparse_trials_are_batched_and_equal_the_dense_kernels(seed, k, m, ties, cap):
    """The same check on cases that reach ``_sparse_batch`` in every run: cost mode, laplace 0, domains wide
    enough for sparse hits to fall on few leaves, and each class's mass mostly on its first 8 atoms, so that at
    n = 20 and n = 150 every block batches at least one trial."""
    rng = np.random.default_rng(seed)
    source = random_source(rng, k, m)
    weights = np.array([d.mass for d in source.class_dists])
    weights[:, :8] += 1.0
    source = LabeledSource(source.priors, tuple(make_distribution(source.domain, w) for w in weights))
    costs = random_cost(rng, k).costs.copy()
    if ties:
        costs[:, 1] = costs[:, 0]
    config = TrialConfig(source=source, cost=CostMatrix(costs), sample_size=20, trials=30, epsilon_target=0.1,
                         delta_target=0.05, laplace=0.0)
    fixed = _fixed(config)
    for n in (20, 150):
        assert sum(check_block_against_dense(config, fixed, [[seed, n, t] for t in range(4)], n, CAPS[cap])) >= 1


def test_a_block_mixes_batched_and_dense_trials():
    """On 131,072 atoms a class spread evenly draws about 85 atoms at n = 170 and equal priors, on about as many
    leaves as a rebuilt sum may take: a trial is batched or runs dense by that count, and a batch ends only when it
    is full, in one block whose every trial equals the dense kernels (15 of 30 batched, in 2 batches)."""
    rng = np.random.default_rng(6)
    source = LabeledSource(np.array([0.5, 0.5]), random_source(rng, 2, 131_072).class_dists)
    config = TrialConfig(source=source, cost=random_cost(rng, 2), sample_size=170, trials=30, epsilon_target=0.1,
                         delta_target=0.05)
    batches = check_block_against_dense(config, _fixed(config), [[6, t] for t in range(30)], 170)
    assert 0 < sum(batches) < 30 and len(batches) == 2


@pytest.mark.parametrize("m", [4_096, 65_537, FLOOR, FLOOR + 1, 131_072, 131_073])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_leaf_built_sums_equal_the_full_width_ones(k, m):
    """Where trials can batch (``_BATCH_ATOMS`` atoms or more), ``_fixed`` builds the optimal risk and the label-0
    base leaf sums leaf by leaf; they equal in float.hex the full-width ``_plugin_risk`` of the true classes and the
    leaf sums of the flattened ``costs[:, :1] * weighted_mass``. Below it (4,096 atoms, and 65,537, past
    ``_TREE_ATOMS``) it builds no base and takes that ``_plugin_risk`` itself. Random, zero-one and tied costs (two
    equal columns), each scaled by 10^U(-9, 9), with the last class missing about half the atoms; at 66,305 and
    131,073 atoms a leaf lies across every class's end of the flattened ``(k, m)`` array."""
    rng = np.random.default_rng([k, m])
    source = random_source(rng, k, m)
    weights = source.class_dists[-1].mass.copy()
    weights[rng.random(m) < 0.5] = 0.0
    source = LabeledSource(source.priors, (*source.class_dists[:-1], make_distribution(source.domain, weights)))
    for kind in ("random", "zero-one", "tied"):
        costs = np.ones((k, k)) - np.eye(k) if kind == "zero-one" else rng.random((k, k))
        if kind == "tied":
            costs[:, 1] = costs[:, 0]
        costs *= 10.0 ** rng.uniform(-9.0, 9.0)
        config = TrialConfig(source=source, cost=CostMatrix(costs), sample_size=1, trials=30, epsilon_target=0.1,
                             delta_target=0.05)
        _, _, risk_opt, _, base = _fixed(config)
        true = np.array([d.mass for d in source.class_dists])
        assert risk_opt.hex() == float(_plugin_risk(source.weighted_mass, true * source.priors[:, None], costs)).hex()
        if m < FLOOR:
            assert base is None
            continue
        label_0 = costs[:, :1] * source.weighted_mass
        assert [v.hex() for v in base.tolist()] == [v.hex() for v in _leaf_sums(label_0.size, label_0.reshape(-1))
                                                    .tolist()]


@pytest.mark.parametrize("m", [FLOOR, 131_072])
@pytest.mark.parametrize("atom", [0, 4_000])
@pytest.mark.parametrize("k", [4, 5])
def test_a_lone_hit_column_scores_as_the_dense_kernels(k, atom, m):
    """Every class's estimate all on one atom, so a batch of one trial is scored on one column, padded with a
    zero column: its plug-in risk from ``_sparse_batch`` (the risk rebuilt from leaf sums) equals in float.hex
    the dense ``_plugin_risk`` of the same estimates. Random costs, column 0 raised so the hit's label is not 0:
    scores taken from the pad column would show."""
    rng = np.random.default_rng([k, atom, m])
    source = random_source(rng, k, m)
    costs = rng.random((k, k))
    costs[:, 0] += 1.0
    config = TrialConfig(source=source, cost=CostMatrix(costs), sample_size=1, trials=30, epsilon_target=0.1,
                         delta_target=0.05)
    hits = [(np.array([atom]), np.array([1.0]))] * k
    _, costs_array, _, classes, base = _fixed(config)
    _, _, (risk,) = pipeline._sparse_batch(config, [hits], costs_array, classes, base)
    est = np.zeros((k, m))
    est[:, atom] = 1.0
    assert float(risk).hex() == float(_plugin_risk(source.weighted_mass, est * source.priors[:, None],
                                                                  costs)).hex()


@pytest.mark.parametrize("m", [FLOOR - 1, FLOOR])
def test_leaf_sums_are_built_only_where_trials_can_batch(m):
    """``_fixed`` builds the class leaf sums, the label-0 base sums and the leaf-built optimal risk only on a domain
    where a trial can batch: on ``_BATCH_ATOMS`` atoms, the fewest on which ``_few_leaves`` admits a leaf, and not
    on one atom fewer, where it takes ``_plugin_risk`` of the true classes. The optimal risk has its bits either way."""
    rng = np.random.default_rng(m)
    source = random_source(rng, 2, m)
    config = TrialConfig(source=source, cost=random_cost(rng, 2), sample_size=1, trials=30, epsilon_target=0.1,
                         delta_target=0.05)
    batches = pipeline._few_leaves(m, np.array([0]))
    assert batches == (m == FLOOR)
    _, costs, risk_opt, classes, base = _fixed(config)
    assert [leaves is not None for *_, leaves in classes] == [batches] * 2 and (base is not None) == batches
    assert risk_opt.hex() == float(_plugin_risk(source.weighted_mass, source.weighted_mass, costs)).hex()


class TestConfigValidation:
    def test_rejects_bad_sample_size(self):
        with pytest.raises(ValueError):
            fixed_config(sample_size=0)

    @pytest.mark.parametrize(
        "field, value",
        [("sample_size", 200.9), ("trials", 40.0), ("seed", 1.5), ("seed", True), ("n_grid", (100.7,)),
         ("n_grid", (100, True))],
        ids=["sample_size-float", "trials-float", "seed-float", "seed-bool", "n_grid-float-entry", "n_grid-bool-entry"],
    )
    def test_integer_fields_are_never_rounded(self, field, value):
        with pytest.raises(ValueError, match="must be an integer"):
            fixed_config(**{field: value})

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

    @given(
        epsilon=st.one_of(st.integers(1, 5), st.floats(1e-6, 5.0), st.builds(np.int64, st.integers(1, 5)),
                          st.builds(np.float64, st.floats(1e-6, 5.0)), st.builds(np.float32, st.floats(1e-3, 5.0))),
        delta=st.one_of(st.floats(1e-6, 0.999), st.builds(np.float64, st.floats(1e-6, 0.999))),
        laplace=st.sampled_from([None, 0, 0.5, np.float64(0.5)]),
        n_grid=st.one_of(st.none(), st.lists(st.integers(1, 10**4), min_size=1, max_size=4).map(tuple)),
        seed=st.one_of(st.integers(0, 2**63 - 1), st.builds(np.int64, st.integers(0, 2**63 - 1))),
        log_loss=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_derived_schema_round_trips_every_setting(self, epsilon, delta, laplace, n_grid, seed, log_loss):
        """``config_to_dict`` writes the source, the cost, then every other field in field order, as JSON values;
        ``config_from_dict`` gives back each of them. The reals are floats and the seed an int from construction
        on, whatever number type they were given as, and a set ``laplace`` is the resolved one."""
        config = fixed_config(epsilon_target=epsilon, delta_target=delta, laplace=laplace, n_grid=n_grid,
                              seed=seed, cost=None if log_loss else CostMatrix.zero_one(3))
        data = config_to_dict(config)
        settings = [f.name for f in dataclasses.fields(TrialConfig)][2:]
        assert list(data) == [*config.source.to_dict(), "cost", *settings]
        back = config_from_dict(json.loads(json.dumps(data)))
        for name in settings:
            value = getattr(config, name)
            assert getattr(back, name) == value and type(getattr(back, name)) is type(value)
        assert all(type(c.epsilon_target) is type(c.delta_target) is float for c in (config, back))
        assert type(config.seed) is int and config.seed == seed
        assert config.epsilon_target == float(epsilon) and config.delta_target == float(delta)
        assert np.array_equal(back.source.priors, config.source.priors) and back.log_loss_mode == log_loss
        if laplace is not None:
            assert back.resolved_laplace == config.resolved_laplace == laplace
            assert type(back.laplace) is float


@given(
    values=st.lists(st.one_of(st.floats(-1e300, 1e300).map(lambda v: v + 0.0),  # no -0.0: numpy's sort may move it
                              st.sampled_from([0.0, 0.25, 1.0, math.inf])), min_size=1, max_size=200),
    q=st.sampled_from([0.5, 0.9]),
)
@example(values=[1.0], q=0.9)
@example(values=[2.0, math.inf], q=0.5)
@example(values=[3.0, 1.0, 2.0, 1.0], q=0.9)
@settings(max_examples=300, deadline=None)
def test_order_statistics_are_numpys(values, q):
    """``pipeline._quantile`` is ``np.quantile`` of the finite values (inf if none) and, at ``q`` None, ``np.median``
    of them all, in float.hex: lengths 1-200, odd and even, ties (a few values drawn often) and infinities."""
    finite = [v for v in values if math.isfinite(v)]
    assert pipeline._quantile(values, q).hex() == (float(np.quantile(finite, q)) if finite else math.inf).hex()
    assert pipeline._quantile(values, None).hex() == float(np.median(values)).hex()


def test_a_pipeline_run_imports_no_numpy_ma(tmp_path):
    """A ``pipeline`` run takes its medians and quantiles without numpy's, whose first call imports numpy.ma (about
    15 ms and 1.2 MB traced), so the run leaves numpy.ma unimported; checked in a fresh process."""
    import subprocess
    import sys

    tests = Path(__file__).resolve().parent
    script = "import sys; from bayesrisk.cli import main; code = main(sys.argv[1:]); print('numpy.ma' in sys.modules)"
    argv = ["pipeline", "--config", str(tests / "data" / "pipeline_config.json"), "--out-dir", str(tmp_path)]
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(tests.parent / "src")}, check=True)
    assert (tmp_path / "report.csv").exists() and done.stdout.split()[-1] == "False"
