"""The row kernels behind the sweeps, and the numpy and generator facts they rest on.

The sweeps make every draw of a block of instances (or of smoothing trials)
first, field major: each kind of draw in one generator call for the whole
block, the kinds in a fixed order. They then run the arithmetic on
``(rows, m)`` arrays; a block of PAC trials writes its draws into one buffer
and answers each class's with one CDF. The draws equal the public numpy
calls made one after another, and the arithmetic the per-object path, only
because of the facts pinned here: a numpy or generator upgrade that breaks
one should fail this file, not a golden.
"""

from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bayesrisk.bounds as bounds
import bayesrisk.distributions as distributions
import bayesrisk.smoothing as smoothing
from bayesrisk.bounds import (
    BOUND_TOL,
    KL,
    L1,
    PerturbationBudget,
    _as_arrays,
    _floor_rows,
    _moved,
    _perturb_rows,
    _theorem_sweep,
    _check,
    check_theorem1,
    check_theorem2,
    excess_logloss_identity,
    random_cost,
    random_l1_perturbation,
    random_source,
    support_safe_perturbation,
    tightness_search,
)
from bayesrisk.classify import CostMatrix, LabeledSource
from bayesrisk.distributions import (
    Distribution,
    Domain,
    _draw_indices,
    QuantizedClassSpec,
    make_distribution,
    random_quantized,
)
from bayesrisk.smoothing import SmoothingParams, base_mixture, verify_smoothing

WIDTHS = range(1, 131)


def _hex_rows(values) -> list[list[str]]:
    return [[float.hex(float(v)) for v in np.atleast_1d(row)] for row in values]


@pytest.mark.parametrize("m", WIDTHS)
def test_row_reductions_equal_the_1d_ones(m):
    """``sum(axis=1)``, ``np.abs``, ``np.log2`` and ``argmax(axis=1)`` of a C-contiguous
    ``(N, m)`` array give, row by row, the bits of the same call on each row alone: m runs
    over 1..130, across the 8-wide unrolling and the 128-entry block of numpy's pairwise sum."""
    rng = np.random.default_rng(m)
    block = rng.gamma(0.3, 1.0, (7, m)) * rng.choice([1e-300, 1e-8, 1.0, 1e8], (7, 1))
    block[3] = block[3, 0]  # a row of ties for argmax
    assert block.flags.c_contiguous
    signed = block - rng.random((7, m))
    assert _hex_rows(block.sum(axis=1)) == _hex_rows([row.sum() for row in block])
    assert _hex_rows(signed.sum(axis=1)) == _hex_rows([row.sum() for row in signed])
    assert _hex_rows(np.abs(signed)) == _hex_rows([np.abs(row) for row in signed])
    assert _hex_rows(np.log2(block)) == _hex_rows([np.log2(row) for row in block])
    assert block.argmax(axis=1).tolist() == [int(row.argmax()) for row in block]


def test_rewritten_draws_take_what_the_old_ones_took():
    """The sweeps draw ``alpha`` by index, the ``(k, m)`` gamma block at once and each
    normal row into its slot; each leaves the generator where the old call did."""
    for seed in range(200):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert float(a.choice([0.3, 1.0, 3.0])) == (0.3, 1.0, 3.0)[b.integers(0, 3)]
        assert a.random() == b.random()
        alpha, k, m = (0.3, 1.0, 3.0)[seed % 3], 1 + seed % 5, 1 + seed % 64
        rows = np.array([a.gamma(alpha, 1.0, m) for _ in range(k)])
        assert rows.tobytes() == b.gamma(alpha, 1.0, (k, m)).tobytes()
        assert a.random() == b.random()
        slot = np.zeros((2, m))
        b.standard_normal(out=slot[1])
        assert a.standard_normal(m).tobytes() == slot[1].tobytes()
        assert a.random() == b.random()
        b.standard_gamma(alpha, out=slot[0])  # the sweeps' gamma draw, at scale 1, into its buffer
        assert a.gamma(alpha, 1.0, m).tobytes() == slot[0].tobytes()
        assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("n", [1, 5])
def test_one_call_per_kind_draws_what_the_calls_one_after_another_draw(n):
    """The facts the field-major block draws rest on: ``integers`` of size ``n``, ``random`` of ``n``,
    ``standard_gamma`` of an array of shapes, ``standard_exponential`` of ``(n, m)`` rows, a 2-D ``multinomial``
    and ``standard_normal`` of ``n`` rows give the bits of the same calls made one after another, and leave
    ``rng.bit_generator.state`` where they do; so a block of one draws what the one-instance calls draw."""
    for seed in range(100):
        ours, ref = np.random.default_rng([seed, n]), np.random.default_rng([seed, n])
        ms = ours.integers(1, 70, n)
        assert ms.tolist() == [int(ref.integers(1, 70)) for _ in range(n)]
        assert ours.integers(0, 3, n).tolist() == [int(ref.integers(0, 3)) for _ in range(n)]
        assert ours.random(n).tobytes() == np.array([ref.random() for _ in range(n)]).tobytes()
        shapes = np.array([0.3, 1.0, 3.0])[np.arange(n) % 3]
        drawn = ours.standard_gamma(np.repeat(shapes, ms))
        assert drawn.tobytes() == np.concatenate([ref.gamma(a, 1.0, m) for a, m in zip(shapes, ms)]).tobytes()
        m = int(ms[0])
        g = ours.standard_exponential((n, m))
        assert g.tobytes() == np.array([ref.standard_exponential(m) for _ in range(n)]).tobytes()
        g *= 1.0 / np.add.accumulate(g, axis=1)[:, -1:]
        assert ours.multinomial(256, g).tobytes() == np.array([ref.multinomial(256, row) for row in g]).tobytes()
        assert ours.standard_normal((n, m)).tobytes() == np.array([ref.standard_normal(m) for _ in range(n)]).tobytes()
        assert ours.bit_generator.state == ref.bit_generator.state


# Every pair of bounds the package draws uniforms between: priors, the L1 and KL sweeps' budgets, floor weights and
# the two random cost kinds.
UNIFORM_BOUNDS = [(0.05, 1.0), (0.0, 2.0), (0.0, 1.5), (0.2 * 0.05, 0.05), (0.0, 1.0), (0.1, 5.0)]


@pytest.mark.parametrize("lo, hi", UNIFORM_BOUNDS)
def test_a_scaled_random_draw_is_the_uniform_draw(lo, hi):
    """``lo + (hi - lo) * rng.random()`` (``distributions._scaled``) is ``rng.uniform(lo, hi)`` bit for bit, as a
    scalar and as an array, and leaves the generator where it does: numpy draws a uniform so. A numpy that draws it
    otherwise fails here, where every golden file would fail with it."""
    for seed in range(200):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert float(distributions._scaled(ours.random(), lo, hi)).hex() == ref.uniform(lo, hi).hex()
        assert distributions._scaled(ours.random((3, 5)), lo, hi).tobytes() == ref.uniform(lo, hi, (3, 5)).tobytes()
        assert ours.bit_generator.state == ref.bit_generator.state


def _hex_fields(report) -> dict:
    return {name: v.hex() if isinstance(v, float) else v for name, v in report.to_dict().items()}


def _hex_verdict(verdict) -> tuple:
    report, gap, ok = verdict
    return _hex_fields(report), None if gap is None else gap.hex(), ok


def swept(blocks):
    """A theorem sweep's instances one by one, each its arrays and verdict ``(report, identity_gap, ok)``, the report
    built from its row of the block's columns, whose ``k`` and ``m`` are its masses' shape."""
    for columns, instance in blocks:
        gaps, oks = columns["identity_gap"].tolist(), columns["ok"].tolist()
        for j, report in enumerate(bounds.BoundReport.from_columns(columns)):
            arrays = instance(j)
            assert (int(columns["k"][j]), int(columns["m"][j])) == arrays[1].shape[1:]
            yield arrays, (report, gaps[j], oks[j])


def verdict(check) -> tuple:
    """``(report, identity_gap, ok)`` of a one-instance ``_check``."""
    report, _, gap, ok = check
    return report, gap, ok


def smoothed(blocks):
    """A smoothing sweep's trials one by one, each ``(true, estimate, report)``, the report built from its row of
    the block's columns."""
    for true, est, columns in blocks:
        yield from zip(true, est, smoothing.SmoothingReport.from_columns(columns))


def check_ragged_sums(rng: np.random.Generator) -> None:
    """``distributions._ragged_sums`` of rows of every length 1 to 1,024, in shuffled order, each cut by its prefix
    mask out of a 1,100-wide row whose entries past the cut are nan, inf, -inf or 1e300, equals in float.hex numpy's
    sum of the 1-D prefix, and of the rows zeroed past the cut, whole (``True`` or an all-true mask), numpy's row
    sums: signed terms of 10^U(-5, 5), a tenth of them 0.0 and a twentieth -0.0, and a sixteenth of the rows each all
    -0.0, holding an inf, holding inf and -inf (a nan sum), or holding a nan."""
    lengths = rng.permutation(np.arange(1, 1025))
    values = rng.standard_normal((1024, 1100)) * 10.0 ** rng.uniform(-5.0, 5.0, (1024, 1100))
    values[rng.random(values.shape) < 0.1] = 0.0
    values[rng.random(values.shape) < 0.05] = -0.0
    rows = rng.permutation(1024)
    values[rows[:64]] = -0.0
    for kind, row in zip(np.arange(192) // 64, rows[64:256]):
        at = rng.integers(0, lengths[row], 2)
        values[row, at] = ([math.inf] * 2, [math.inf, -math.inf], [math.nan] * 2)[kind]
    on = np.arange(1100) < lengths[:, None]
    values[~on] = rng.choice([math.nan, math.inf, -math.inf, 1e300], np.count_nonzero(~on))
    with np.errstate(invalid="ignore", over="ignore"):
        sums = distributions._ragged_sums(values, on)
        expected = [float.hex(float(np.sum(row[:n]))) for row, n in zip(values, lengths.tolist())]
        clean = np.where(on, values, 0.0)  # whole rows without the garbage, whose sums would be nan
        whole = [float.hex(float(s)) for s in clean.sum(axis=1)]
        for mask in (True, np.ones_like(on)):  # by numpy's default or by a mask
            assert [float.hex(float(s)) for s in distributions._ragged_sums(clean, mask)] == whole
    assert [float.hex(float(s)) for s in sums] == expected


def test_ragged_sums_equal_numpys_sums_at_every_length():
    check_ragged_sums(np.random.default_rng(0))


@given(st.integers(0, 2**32 - 1), st.sampled_from([L1, KL]), st.integers(2, 5), st.integers(2, 64))
@example(0, L1, 2, 2)
@example(1, KL, 2, 2)
@settings(max_examples=150, deadline=None)
def test_sweep_instance_and_report_equal_the_public_composition(seed, metric, k_max, m_max):
    """Three sweep instances, drawn in blocks of two and one, are the instances that the public constructors and
    perturbations build from the same seed's draws made by the public calls (:func:`_reference_block`), each
    perturbation handed its class's noise and floor weight, and leave the generator where those calls do; each block
    verdict has the public check's report, field by field in float.hex, and under log loss the gap of the public
    identity's two sides."""
    rng, charge = np.random.default_rng(seed), bounds._ROW_COPIES * 8 * k_max * m_max + bounds._INSTANCE_BYTES
    with mock.patch.object(bounds, "_BLOCK_BYTES", 2 * charge):
        instances = list(swept(_theorem_sweep(rng, 3, k_max, m_max, metric)))
    ref = np.random.default_rng(seed)
    drawn = _reference_block(ref, 2, k_max, m_max, metric) + _reference_block(ref, 1, k_max, m_max, metric)
    assert len(instances) == len(drawn) == 3
    for ((priors, masses, _, cost), (report, gap, ok)), (ref_priors, weights, moves, ref_cost) in zip(instances, drawn):
        domain = Domain.indexed(weights.shape[1])
        source = LabeledSource(ref_priors, tuple(make_distribution(domain, w) for w in weights))
        perturb = random_l1_perturbation if metric == L1 else support_safe_perturbation
        est = tuple(perturb(d, b, _Served(v, lam)) for d, (b, v, lam) in zip(source.class_dists, moves))
        if metric == L1:
            public, ref_gap = check_theorem1(source, est, CostMatrix(ref_cost)), None
            assert cost.costs.tobytes() == ref_cost.tobytes()
        else:
            public, (lhs, rhs) = check_theorem2(source, est), excess_logloss_identity(source, est)
            ref_gap = abs(lhs - rhs)
            assert report.excess.hex() == lhs.hex()
        assert priors.tobytes() == source.priors.tobytes()
        assert masses.tobytes() == _as_arrays(source, est, metric)[1].tobytes()
        assert _hex_verdict((report, gap, ok)) == _hex_verdict((public, ref_gap, ok))
        assert ok == (public.satisfied and (ref_gap is None or ref_gap <= BOUND_TOL))
    assert rng.bit_generator.state == ref.bit_generator.state


class _Served:
    """A generator stand-in for one perturbation: it hands out the given row of normals (zeros if ``None``) and the
    given raw floor weight."""

    def __init__(self, noise, floor=None):
        self.noise, self.floor = np.zeros(0) if noise is None else noise, floor

    def standard_normal(self, size):
        assert size in (0, len(self.noise))
        return self.noise[:size]

    def random(self, size):
        return np.full(size, self.floor)


def _old_unit_mass(mass: np.ndarray) -> np.ndarray:
    """The per-distribution renormalization the row kernel replaced, kept as the reference."""
    mass /= float(mass.sum())
    for _ in range(4):
        residual = float(mass.sum()) - 1.0
        if residual == 0.0:
            break
        mass[int(np.argmax(mass))] -= residual
    return mass


def _old_l1_perturbation(mass: np.ndarray, budget: float, v: np.ndarray) -> tuple[np.ndarray, bool]:
    """The per-distribution perturbation the row kernel replaced, on the normal draw ``v``,
    and whether it pulled the candidate back into the budget."""
    if budget == 0.0 or len(mass) == 1:
        return mass, False
    v = v - v.sum() / len(mass)
    norm = float(np.abs(v).sum())
    if norm == 0.0:
        return mass, False
    v *= budget / norm
    w = np.clip(mass + v, 0.0, None)
    cand = _old_unit_mass(w / float(w.sum()))
    distance = float(np.abs(mass - cand).sum())
    if distance <= budget:
        return cand, False
    return _old_unit_mass(mass + budget / distance * (cand - mass)), True


def _compare_perturbations(seed: int, m: int) -> int:
    """Check the perturbation and floor kernels on a block of 64 rows against the public
    per-distribution results and the old per-distribution arithmetic, row by row in bytes;
    returns how many rows were pulled back into their budget. Row 0 has a zero budget (no
    draw), row 1 a normal draw of zero norm once centred."""
    rng = np.random.default_rng(seed)
    n, domain = 64, Domain.indexed(m)
    w = rng.random((n, m)) * (rng.random((n, m)) < 0.7)
    w[np.arange(n), rng.integers(m, size=n)] += 0.01
    true = [make_distribution(domain, row) for row in w]
    budgets = rng.uniform(0.0, 2.0, n)
    noise = rng.standard_normal((n, m))
    budgets[0], noise[0], noise[1] = 0.0, 0.0, 0.5
    if m == 1:
        noise[:] = 0.0  # one atom: no draw
    lams = rng.uniform(0.01, 0.05, n)
    est = _perturb_rows(np.array([d.mass for d in true]), budgets, noise.copy())
    floored = _floor_rows(est, lams)
    pulled = 0
    for i, d in enumerate(true):
        public = random_l1_perturbation(d, float(budgets[i]), _Served(noise[i]))
        old, pulled_back = _old_l1_perturbation(d.mass.copy(), float(budgets[i]), noise[i])
        pulled += pulled_back
        assert est[i].tobytes() == public.mass.tobytes() == old.tobytes()
        lam = float(lams[i])
        assert floored[i].tobytes() == _old_unit_mass((1.0 - lam) * old + lam / m).tobytes()
    return pulled


@given(st.integers(0, 2**32 - 1), st.integers(1, 64))
@example(0, 1)
@example(0, 2)
@settings(max_examples=100, deadline=None)
def test_perturbation_rows_equal_the_per_distribution_arithmetic(seed, m):
    _compare_perturbations(seed, m)


def test_pull_back_branch_is_compared():
    """Clipping and renormalizing leave a candidate within its budget but for round-off, so
    the pull-back runs on about one row in twenty; these fixed blocks reach it."""
    assert sum(_compare_perturbations(seed, 5) for seed in range(4)) > 0


def _reference_cost(rng: np.random.Generator, k: int, kind=None) -> np.ndarray:
    """A cost array of the given kind (drawn first if ``None``), its entries drawn by the public calls."""
    kind = int(rng.integers(0, 3)) if kind is None else kind
    if kind == 0:
        return np.ones((k, k)) - np.eye(k)
    if kind == 1:
        c = rng.uniform(0.0, 1.0, (k, k))
        c[0, 1] += 1.0
        return c
    c = rng.uniform(0.1, 5.0, (k, k))
    np.fill_diagonal(c, 0.0)
    return c


def _reference_source(rng: np.random.Generator, k: int, m: int) -> tuple:
    """A source's draws by the public calls: priors over their own sum, and the class weights off zero."""
    priors = rng.uniform(0.05, 1.0, k)
    priors /= priors.sum()
    alpha = (0.3, 1.0, 3.0)[rng.integers(0, 3)]
    return priors, rng.gamma(alpha, 1.0, (k, m)) + 1e-300


def _reference_moves(rng: np.random.Generator, k: int, m: int, budget, metric: str) -> list:
    """Each class's ``(budget, noise, floor weight)`` by the public calls, one class after another, the budget
    ``budget()``: no noise (``None``) at a zero budget or on one atom, a floor weight only under KL."""
    moves = []
    for _ in range(k):
        drawn = float(budget())
        noise = rng.standard_normal(m) if drawn != 0.0 and m != 1 else None
        moves.append((drawn, noise, float(rng.uniform(0.2 * 0.05, 0.05)) if metric == KL else None))
    return moves


def _reference_block(rng: np.random.Generator, n: int, k_max: int, m_max: int, metric: str) -> list:
    """A sweep block's draws by the public calls, field major: one call per instance or class, kind after kind, in
    the order every k, every m, every instance's priors (over their own sum), every gamma-shape index, every
    instance's class weights (off zero), every class's budget, every class's noise (none at a zero budget), under KL
    every class's floor weight as a raw ``rng.uniform()``, under L1 every cost kind, then each random cost's entries.
    Each instance's ``(priors, weights, moves, cost)``, ``moves`` its classes' ``(budget, noise, raw floor weight)``."""
    ks = [int(rng.integers(2, k_max + 1)) for _ in range(n)]
    ms = [int(rng.integers(2, m_max + 1)) for _ in range(n)]
    priors = [rng.uniform(0.05, 1.0, k) for k in ks]
    alphas = [(0.3, 1.0, 3.0)[rng.integers(0, 3)] for _ in range(n)]
    weights = [rng.gamma(alpha, 1.0, (k, m)) + 1e-300 for alpha, k, m in zip(alphas, ks, ms)]
    budgets = [[float(rng.uniform(0.0, 2.0 if metric == L1 else 1.5)) for _ in range(k)] for k in ks]
    noise = [[rng.standard_normal(m) if b != 0.0 else None for b in row] for row, m in zip(budgets, ms)]
    floors = [[float(rng.uniform()) if metric == KL else None for _ in range(k)] for k in ks]
    kinds = [int(rng.integers(0, 3)) if metric == L1 else None for _ in range(n)]
    costs = [None if kind is None else _reference_cost(rng, k, kind) for k, kind in zip(ks, kinds)]
    return [(p / p.sum(), w, list(zip(*moves)), c) for p, w, *moves, c in zip(priors, weights, budgets, noise, floors,
                                                                                costs)]


def _reference_sweep(rng: np.random.Generator, n: int, k_max: int, m_max: int, metric: str, size: int):
    """The sweep's blocks of ``size`` instances (fewer in the last), each drawn by :func:`_reference_block` and its
    instances' arithmetic done class by class in plain numpy: each block's instances and the generator's state after
    its draws."""
    for start in range(0, n, size):
        instances = []
        for priors, weights, moves, cost in _reference_block(rng, min(size, n - start), k_max, m_max, metric):
            m = weights.shape[1]
            true = [_old_unit_mass(w / float(w.sum())) for w in weights]
            est = [t if v is None else _old_l1_perturbation(t.copy(), b, v)[0] for t, (b, v, _) in zip(true, moves)]
            if metric == L1:
                divergences = [float(np.abs(t - e).sum()) for t, e in zip(true, est)]
            else:  # the floor weight on [0.2 * 0.05, 0.05] as numpy draws a uniform: lo + (hi - lo) * r
                lams = [0.2 * 0.05 + (0.05 - 0.2 * 0.05) * r for _, _, r in moves]
                est = [_old_unit_mass((1.0 - lam) * e + lam / m) for e, lam in zip(est, lams)]
                divergences = [max(0.0, float((t * np.log2(t / e)).sum())) for t, e in zip(true, est)]
            instances.append((priors, np.array([true, est]), divergences, cost))
        yield instances, rng.bit_generator.state


def _recording_block_draws(monkeypatch, record) -> None:
    """``bounds._block_draws`` patched to hand ``record`` a copy of each draw block's draws (the sweep spends its noise
    in place) and its generator, once drawn."""
    block_draws = bounds._block_draws

    def recorded(rng, *args):
        draws = block_draws(rng, *args)
        record([None if a is None else a.copy() for a in draws], rng)
        return draws

    monkeypatch.setattr(bounds, "_block_draws", recorded)


@pytest.mark.parametrize("metric", [L1, KL])
@pytest.mark.parametrize("k_max, m_max", [(2, 2), (5, 64)])
@pytest.mark.parametrize("n, per_block", [(1, None), (2, None), (200, None), (200, 7)])
def test_sweep_blocks_equal_an_independent_reference(monkeypatch, metric, k_max, m_max, n, per_block):
    """The sweep's instances, drawn a draw block at a time and computed once per batch of draw blocks on padded rows,
    equal in trial order the plain reference drawn block by block, in float.hex, and the generator is where the
    reference leaves it after every draw block; each verdict equals, field by field, the one-instance verdict of the
    reference's instance. A draw block holds ``_BLOCK_BYTES // (_ROW_COPIES * 8 * k_max * m_max + _INSTANCE_BYTES)``
    instances, 68 at the defaults; ``per_block`` cuts the blocks small (that many instances) so that a run of 200
    spans many batches."""
    charge = bounds._ROW_COPIES * 8 * k_max * m_max + bounds._INSTANCE_BYTES
    if per_block is not None:
        monkeypatch.setattr(bounds, "_BLOCK_BYTES", per_block * charge)
    size = max(1, bounds._BLOCK_BYTES // charge)
    assert size == {(None, 2, 2): (1 << 20) // 2720, (None, 5, 64): 68}.get((per_block, k_max, m_max), per_block)
    states = []
    _recording_block_draws(monkeypatch, lambda draws, rng: states.append(rng.bit_generator.state))
    rng, ref = np.random.default_rng([n, k_max]), np.random.default_rng([n, k_max])
    instances = list(swept(_theorem_sweep(rng, n, k_max, m_max, metric)))
    reference = list(_reference_sweep(ref, n, k_max, m_max, metric, size))
    assert states == [state for _, state in reference] and len(states) == -(-n // size)
    expected = [instance for block, _ in reference for instance in block]
    assert len(instances) == len(expected) == n
    for ((priors, masses, divergences, cost), block_verdict), (ref_priors, ref_masses, ref_divergences,
                                                                 ref_cost) in zip(instances, expected):
        assert masses.shape == ref_masses.shape
        assert _hex_rows(priors) == _hex_rows(ref_priors)
        assert _hex_rows(masses.reshape(-1, masses.shape[2])) == _hex_rows(ref_masses.reshape(-1, masses.shape[2]))
        assert _hex_rows(divergences) == _hex_rows(ref_divergences)
        assert (cost is None) == (ref_cost is None)
        assert cost is None or _hex_rows(cost.costs) == _hex_rows(ref_cost)
        own = verdict(_check(ref_priors, ref_masses, np.array(ref_divergences),
                             None if ref_cost is None else CostMatrix(ref_cost)))
        assert _hex_verdict(block_verdict) == _hex_verdict(own)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("metric", [L1, KL])
@pytest.mark.parametrize("k_max, m_max", [(2, 2), (2, 64), (2, 300), (5, 64), (9, 300), (10, 200)])
def test_a_sweep_block_peaks_within_its_bytes(metric, k_max, m_max):
    """One full theorem-sweep block, its draws included, peaks by tracemalloc under ``_BLOCK_BYTES``: the charge its
    size comes from holds. At ``k_max`` 2 every instance has the block's largest rows, its worst case."""
    n = bounds._instances_per_block(k_max, m_max)
    for seed in range(3):
        rng = np.random.default_rng([seed, k_max, m_max])
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            bounds._sweep_block(bounds._block_draws(rng, n, k_max, m_max, metric), metric)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < bounds._BLOCK_BYTES


@pytest.mark.parametrize("metric", [L1, KL])
@pytest.mark.parametrize("k_max, m_max", [(2, 2), (2, 64), (2, 300), (5, 64), (9, 300), (10, 200)])
def test_a_sweep_batch_peaks_within_its_bytes(metric, k_max, m_max):
    """One full batch, ``_BATCH_BLOCKS`` full draw blocks drawn, joined and swept at once, peaks by tracemalloc under
    the charge of its blocks, ``_BATCH_BLOCKS * _BLOCK_BYTES``: a block's draws are let go as they are joined, and
    the batch's row kernels hold no more per instance than a block's."""
    n = bounds._instances_per_block(k_max, m_max)
    for seed in range(3):
        rng = np.random.default_rng([seed, k_max, m_max])
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            bounds._sweep_block(bounds._joined([bounds._block_draws(rng, n, k_max, m_max, metric)
                                                for _ in range(bounds._BATCH_BLOCKS)]), metric)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < bounds._BATCH_BLOCKS * bounds._BLOCK_BYTES


@pytest.mark.parametrize("metric", [L1, KL])
@pytest.mark.parametrize("k_max, m_max", [(2, 2), (2, 64), (2, 300), (5, 64), (9, 300), (10, 200)])
def test_a_batch_join_holds_one_field_at_a_time(metric, k_max, m_max):
    """``_joined`` alone, on ``_BATCH_BLOCKS`` full draw blocks drawn under tracemalloc, peaks above its draws by
    at most its widest joined field, the padding its join adds and 16 KiB: each block's array is let go once
    written. A join that keeps the blocks' arrays until it returns peaks at about all of its draws' bytes."""
    n = bounds._instances_per_block(k_max, m_max)
    rng = np.random.default_rng([k_max, m_max])
    tracemalloc.start()
    try:
        blocks = [bounds._block_draws(rng, n, k_max, m_max, metric) for _ in range(bounds._BATCH_BLOCKS)]
        drawn = sum(a.nbytes for block in blocks for a in block if a is not None)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        joined = [a.nbytes for a in bounds._joined(blocks) if a is not None]
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < max(joined) + sum(joined) - drawn + 16_384


def _column_bits(column) -> list:
    """A check column's entries, floats in float.hex."""
    return [v.hex() if isinstance(v, float) else v for v in np.asarray(column).tolist()]


@pytest.mark.parametrize("metric", [L1, KL])
@pytest.mark.parametrize("k_max, m_max", [(2, 2), (5, 64), (9, 300), (10, 3)])
def test_a_batch_checks_as_its_draw_blocks_one_at_a_time(metric, k_max, m_max):
    """A batch of ``_BATCH_BLOCKS`` draw blocks, the last one short, joined and swept at once, gives every column and
    every instance's arrays and cost of its blocks swept one at a time, bit for bit, in draw order; both leave the
    generator in one state."""
    size = bounds._instances_per_block(k_max, m_max)
    sizes = [size] * (bounds._BATCH_BLOCKS - 1) + [max(1, size // 3)]
    for seed in range(2):
        rng, ref = np.random.default_rng([seed, k_max, m_max]), np.random.default_rng([seed, k_max, m_max])
        columns, instance = bounds._sweep_block(
            bounds._joined([bounds._block_draws(rng, n, k_max, m_max, metric) for n in sizes]), metric)
        blocks = [bounds._sweep_block(bounds._block_draws(ref, n, k_max, m_max, metric), metric) for n in sizes]
        assert rng.bit_generator.state == ref.bit_generator.state
        assert list(columns) == list(blocks[0][0])
        for name, column in columns.items():
            assert _column_bits(column) == [v for block, _ in blocks for v in _column_bits(block[name])], name
        at = 0
        for block_columns, block_instance in blocks:
            for j in range(len(block_columns["ok"])):
                (priors, masses, divergences, cost), expected = instance(at + j), block_instance(j)
                assert [_hex_rows(np.atleast_2d(a)) for a in (priors, *masses, divergences)] == [
                    _hex_rows(np.atleast_2d(a)) for a in (expected[0], *expected[1], expected[2])]
                assert (cost is None and expected[3] is None) or cost.costs.tobytes() == expected[3].costs.tobytes()
            at += len(block_columns["ok"])


def _block_instances(draws, metric: str) -> list:
    """A theorem sweep block's :func:`bounds._block_draws` as its arithmetic reads them, instance by instance
    ``(priors, weights, budgets, noise, raw floor weights, cost)``, the budgets scaled, each cost the ``(k, k)``
    corner of its padded array; the padding is checked zero."""
    ks, ms, on, priors, weights, budgets, noise, lams, costs = draws
    assert not weights[~on].any() and not noise[~on].any()
    corners = np.arange(ks.max()) < ks[:, None]
    assert costs is None or not costs[~(corners[:, :, None] & corners[:, None, :])].any()
    budgets = distributions._scaled(budgets, 0.0, 2.0 if metric == L1 else 1.5)
    instances, row = [], 0
    for i, (k, m) in enumerate(zip(ks.tolist(), ms.tolist())):
        rows = slice(row, row + k)
        instances.append((priors[rows], weights[rows, :m], budgets[rows], noise[rows, :m], lams[rows],
                          costs[i, :k, :k] if metric == L1 else None))
        row += k
    return instances


@pytest.mark.parametrize("metric", [L1, KL])
@pytest.mark.parametrize("k_max, m_max", [(2, 2), (5, 64), (10, 3), (9, 300)])
def test_block_draws_are_the_public_calls_draws(monkeypatch, metric, k_max, m_max):
    """A theorem sweep's draws, each kind made for a whole draw block in one call, equal the public calls' draws made
    one instance or class after another, kind after kind (:func:`_reference_block`: ``rng.uniform``, ``rng.gamma``,
    priors over their own ``sum()``), bit for bit, in draw blocks of ``_BLOCK_BYTES // (_ROW_COPIES * 8 * k_max *
    m_max + _INSTANCE_BYTES)`` instances, and leave ``rng.bit_generator.state`` equal after every draw block and the
    sweep, however the blocks are batched."""
    blocks = []
    _recording_block_draws(monkeypatch, lambda draws, rng: blocks.append((_block_instances(draws, metric),
                                                                         rng.bit_generator.state)))
    size = max(1, bounds._BLOCK_BYTES // (bounds._ROW_COPIES * 8 * k_max * m_max + bounds._INSTANCE_BYTES))
    for seed in range(3):
        rng, ref = np.random.default_rng([seed, k_max, m_max]), np.random.default_rng([seed, k_max, m_max])
        blocks.clear()
        list(_theorem_sweep(rng, 120, k_max, m_max, metric))
        assert [len(instances) for instances, _ in blocks] == [min(size, 120 - start) for start in range(0, 120, size)]
        assert len(blocks) > 1 or m_max < 64
        for instances, state in blocks:
            for drawn, (priors, weights, moves, cost) in zip(instances, _reference_block(ref, len(instances), k_max,
                                                                                           m_max, metric)):
                noise = np.array([np.zeros(weights.shape[1]) if v is None else v for _, v, _ in moves])
                lams = [0.0 if lam is None else lam for _, _, lam in moves]
                expected = priors, weights, [b for b, _, _ in moves], noise, lams
                assert [_hex_rows(np.atleast_2d(a)) for a in drawn[:5]] == [_hex_rows(np.atleast_2d(a))
                                                                            for a in expected]
                assert (drawn[5] is None and cost is None) or drawn[5].tobytes() == cost.tobytes()
            assert state == ref.bit_generator.state
        assert rng.bit_generator.state == ref.bit_generator.state


def _block_of(instances: list) -> tuple:
    """``bounds._checks``' arguments for the instances (each its ``_as_arrays`` arrays and cost) in the order given: the
    priors and divergences stacked, the masses' rows zero-padded to the widest and their prefix mask, each cost in the
    corner of a zero ``(n, w, w)`` array (``None`` under log loss), and the class counts."""
    priors, masses, divergences, costs = zip(*instances)
    ks, ms = np.array([len(p) for p in priors]), [a.shape[2] for a in masses]
    on = np.arange(max(ms)) < np.repeat(ms, ks)[:, None]
    padded = np.zeros((2, *on.shape))
    padded[:, on] = np.concatenate([a.reshape(2, -1) for a in masses], axis=1)
    corners = None if costs[0] is None else np.zeros((len(ks), ks.max(), ks.max()))
    if corners is not None:
        for i, cost in enumerate(costs):
            corners[i, : ks[i], : ks[i]] = cost.costs
    return np.concatenate(priors), padded, np.concatenate(divergences), corners, ks, on


def _row_bits(columns: dict, at: int) -> tuple:
    """Instance ``at``'s ``(report, rhs, identity_gap, ok)`` from the check columns, floats in float.hex."""
    report = bounds.BoundReport.from_columns(columns, slice(at, at + 1))[0]
    return _own_bits((report, *(columns[name].tolist()[at] for name in ("rhs", "identity_gap", "ok"))))


def _own_bits(check: tuple) -> tuple:
    """A one-instance ``_check``'s ``(report, rhs, identity_gap, ok)``, floats in float.hex."""
    report, rhs, gap, ok = check
    return _hex_fields(report), *(None if v is None else v.hex() for v in (rhs, gap)), ok


@pytest.mark.parametrize("metric", [L1, KL])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("k_max", [3, 10])
def test_checks_give_each_instance_its_own_bits_in_any_order(metric, seed, k_max):
    """``bounds._checks`` on a block of class counts 2 to ``k_max`` mixed in draw order gives every instance the
    float.hex bits of its own one-instance ``_check``, whichever instances share its kernel call (at ``k_max`` 3 a class
    count's instances outnumber the quarter block and are split), as the sweep block does; the block's instances
    permuted give its columns permuted."""
    rng = np.random.default_rng([seed, k_max])
    draws = bounds._block_draws(rng, 60, k_max, 20, metric)
    assert set(draws[0].tolist()) == set(range(2, k_max + 1))
    swept_columns, instance = bounds._sweep_block(draws, metric)
    instances = [instance(j) for j in range(60)]
    own = [_own_bits(_check(*arrays)) for arrays in instances]
    in_order = bounds._checks(*_block_of(instances))
    assert [_row_bits(in_order, j) for j in range(60)] == [_row_bits(swept_columns, j) for j in range(60)] == own
    order = rng.permutation(60)
    permuted = bounds._checks(*_block_of([instances[j] for j in order]))
    assert [_row_bits(permuted, place) for place in range(60)] == [own[j] for j in order]


def _reference_trials(rng: np.random.Generator, n: int, m: int, scale: int) -> tuple:
    """A smoothing block's draws by the public calls, field major: every trial's ``rng.dirichlet(np.ones(m))``, every
    trial's ``rng.multinomial(scale, ...)`` of it over the scale by ``np.divide``, then every trial's noise (none on one
    atom)."""
    shapes = [rng.dirichlet(np.ones(m)) for _ in range(n)]
    true = [np.divide(rng.multinomial(scale, shape), scale) for shape in shapes]
    return true, [rng.standard_normal(m) if m > 1 else np.zeros(m) for _ in range(n)]


@pytest.mark.parametrize("m", [1, 8, 300])
def test_smoothing_block_draws_are_the_public_calls_draws(monkeypatch, m):
    """The smoothing sweep's draws, each kind made for a draw block of trials in one call, equal the public calls'
    draws made trial by trial, kind after kind (:func:`_reference_trials`), bit for bit, in draw blocks of
    ``_BLOCK_BYTES // (8 * m)`` trials, and leave ``rng.bit_generator.state`` equal after every draw block; the
    blocks' rows are perturbed a batch of ``_BATCH_BLOCKS`` blocks at a time, each row at budget ``xi``."""
    monkeypatch.setattr(smoothing, "_BLOCK_BYTES", 8 * m * 7)
    spec = QuantizedClassSpec(Domain.indexed(m), 8)
    params = SmoothingParams(0.5, spec.description_length)
    rng, ref = np.random.default_rng([m, 5]), np.random.default_rng([m, 5])
    quantized, moves, perturb = smoothing._quantized_rows, smoothing._moves, smoothing._perturb_rows
    blocks, batches = [], []

    def drawn_true(rng_, n, m_, scale):
        blocks.append([quantized(rng_, n, m_, scale)])
        return blocks[-1][0]

    def drawn_moves(rng_, on, budget, floors):
        budgets, noise, lams = moves(rng_, on, budget, floors)
        blocks[-1] += [noise.copy(), rng_.bit_generator.state]
        return budgets, noise, lams

    def recorded(true, budgets, noise):
        batches.append(len(true))
        assert budgets.tobytes() == np.full(len(true), params.xi).tobytes()
        return perturb(true, budgets, noise)

    monkeypatch.setattr(smoothing, "_quantized_rows", drawn_true)
    monkeypatch.setattr(smoothing, "_moves", drawn_moves)
    monkeypatch.setattr(smoothing, "_perturb_rows", recorded)
    assert len(list(smoothing._sweep(spec, params, base_mixture(spec), 30, rng))) == len(batches)
    assert batches == [7 * bounds._BATCH_BLOCKS, 30 - 7 * bounds._BATCH_BLOCKS]
    assert len(blocks) == 5
    for (true, noise, state), n in zip(blocks, [7, 7, 7, 7, 2]):
        expected_true, expected_noise = _reference_trials(ref, n, m, spec.scale)
        assert len(true) == n
        assert true.tobytes() == np.array(expected_true).tobytes()
        assert noise.tobytes() == np.array(expected_noise).tobytes()
        assert state == ref.bit_generator.state


def test_public_generators_draw_the_public_calls_draws(monkeypatch):
    """``random_source``, ``random_cost``, ``random_quantized``, both perturbations (at budget 0.0 too, where only
    the floor weight is drawn) and the tightness search's starts, each a block of one, take the draws of the public
    calls and their arithmetic's bits, and leave ``rng.bit_generator.state`` equal."""
    domain, spec = Domain.indexed(7), QuantizedClassSpec(Domain.indexed(7), 5)
    for seed in range(20):
        ours, ref = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        source = random_source(ours, 3, 7)
        priors, weights = _reference_source(ref, 3, 7)
        assert source.priors.tobytes() == priors.tobytes()
        assert _hex_rows([d.mass for d in source.class_dists]) == _hex_rows(
            [_old_unit_mass(w / float(w.sum())) for w in weights])
        assert random_cost(ours, 4).costs.tobytes() == _reference_cost(ref, 4).tobytes()
        expected = np.divide(ref.multinomial(spec.scale, ref.dirichlet(np.ones(7))), spec.scale)
        assert random_quantized(spec, ours).mass.tobytes() == expected.tobytes()
        d = source.class_dists[0]
        for budget in (0.0, 0.7):
            (_, v, _), = _reference_moves(ref, 1, 7, lambda: budget, L1)
            old = d.mass if v is None else _old_l1_perturbation(d.mass.copy(), budget, v)[0]
            assert random_l1_perturbation(d, budget, ours).mass.tobytes() == old.tobytes()
            (_, v, lam), = _reference_moves(ref, 1, 7, lambda: budget, KL)
            old = _old_unit_mass((1.0 - lam) * (d.mass if v is None else _old_l1_perturbation(d.mass.copy(), budget,
                                                                                             v)[0]) + lam / 7)
            assert support_safe_perturbation(d, budget, ours).mass.tobytes() == old.tobytes()
        assert ours.bit_generator.state == ref.bit_generator.state
    starts = []
    monkeypatch.setattr(bounds, "_climb", lambda masses, excess, *_: starts.append((excess.args[0], masses)) or
                        (0.0, masses))
    for metric in (L1, KL):
        ours, ref = np.random.default_rng([9, len(metric)]), np.random.default_rng([9, len(metric)])
        starts.clear()
        tightness_search(3, 8, CostMatrix.zero_one(3) if metric == L1 else None, PerturbationBudget(metric, 0.2), 6,
                         ours)
        for priors, masses in starts:
            expected = np.full(3, 1.0 / 3) if ref.random() < 0.5 else _reference_source(ref, 3, 8)[0]
            true = [_old_unit_mass(w / float(w.sum())) for w in ref.gamma(0.6, 1.0, (3, 8)) + 1e-300]
            radius = min(0.2 / expected.min(), 2.0) if metric == L1 else 1.0
            moves = _reference_moves(ref, 3, 8, lambda: radius, metric)
            est = [_old_l1_perturbation(_old_unit_mass(t.copy()), radius, v)[0] for t, (_, v, _) in zip(true, moves)]
            if metric == KL:
                est = [_old_unit_mass((1.0 - lam) * e + lam / 8) for e, (_, _, lam) in zip(est, moves)]
            assert priors.tobytes() == expected.tobytes()
            assert _hex_rows(masses[0]) == _hex_rows(true) and _hex_rows(masses[1]) == _hex_rows(est)
        assert ours.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("metric", [L1, KL])
@pytest.mark.parametrize("m", range(1, 65))
def test_drawn_moves_equal_the_public_generators_class_by_class(metric, m):
    """:func:`_moved` on ``distributions._moves``' draws for k classes, one class at a time as the tightness search
    draws them, is k calls of the public generator on a generator of the same seed, in float.hex, and leaves it where
    they do; a zero budget draws no noise. Under L1, which draws no floor weights, one call for the k classes draws
    the same."""
    public = random_l1_perturbation if metric == L1 else support_safe_perturbation
    domain = Domain.indexed(m)
    for seed, (k, radius) in enumerate([(2, 0.0), (3, 0.3), (4, 2.0)]):
        dists = [make_distribution(domain, w) for w in np.random.default_rng(m).gamma(0.5, 1.0, (k, m))]
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        moves = [distributions._moves(rng, np.ones((1, m), bool), radius, metric == KL) for _ in range(k)]
        true = np.array([d.mass for d in dists])
        est = _moved(true, metric, *map(np.concatenate, zip(*moves)))
        expected = [public(d, radius, ref).mass for d in dists]
        assert _hex_rows(est) == _hex_rows(expected)
        assert rng.bit_generator.state == ref.bit_generator.state
        if metric == L1:
            once = np.random.default_rng(seed)
            assert _hex_rows(_moved(true, L1, *distributions._moves(once, np.ones((k, m), bool), radius, False))) == \
                _hex_rows(expected)
            assert once.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("m, bits", [(1, 8), (3, 1), (8, 8), (64, 2)])
def test_smoothing_blocks_equal_the_per_trial_path(monkeypatch, m, bits):
    """The smoothing sweep's blocks, cut small so trials straddle them, give the reports of the public per-trial path
    on the same seed's draws made by the public calls (:func:`_reference_trials`), each perturbation handed its trial's
    noise, field by field in float.hex, and leave the generator where those calls do."""
    monkeypatch.setattr(smoothing, "_BLOCK_BYTES", 8 * m * 7)
    spec = QuantizedClassSpec(Domain.indexed(m), bits)
    params = SmoothingParams(0.5, spec.description_length)
    base = base_mixture(spec)
    rng, ref = np.random.default_rng(m), np.random.default_rng(m)
    rows = [report for _, _, report in smoothed(smoothing._sweep(spec, params, base, 30, rng))]
    expected = []
    for n in (7, 7, 7, 7, 2):
        for true, noise in zip(*_reference_trials(ref, n, m, spec.scale)):
            true_d = Distribution(spec.domain, true)
            expected.append(verify_smoothing(true_d, random_l1_perturbation(true_d, params.xi, _Served(noise)),
                                             params, base))
    assert [_hex_fields(row) for row in rows] == [_hex_fields(report) for report in expected]
    assert rng.bit_generator.state == ref.bit_generator.state


class _Recording:
    """A generator stand-in that hands every call to ``rng`` and keeps the probabilities each ``multinomial`` got."""

    def __init__(self, rng):
        self.rng, self.shapes = rng, []

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def multinomial(self, n, pvals):
        self.shapes.append(pvals.copy())
        return self.rng.multinomial(n, pvals)


@pytest.mark.parametrize("m", [1, 2, 3, 8, 9, 64, 129, 4096])
def test_drawn_numerators_are_the_dirichlet_draws(m):
    """``distributions._quantized_rows`` of one row and of three gives, bit for bit, each row's numerators of
    ``rng.multinomial(scale, rng.dirichlet(np.ones(m)))`` over the scale, every row's ``dirichlet`` first, over the
    very shapes ``dirichlet`` draws (a shape an ulp off would mostly give the same numerators), and leaves the
    generator in the same state."""
    spec = QuantizedClassSpec(Domain.indexed(m), 8)
    for seed in range(12):
        ours, ref = _Recording(np.random.default_rng([seed, m])), np.random.default_rng([seed, m])
        for n in (1, 3, 1):
            drawn = distributions._quantized_rows(ours, n, m, spec.scale)
            shapes = np.array([ref.dirichlet(np.ones(m)) for _ in range(n)])
            assert ours.shapes[-1].tobytes() == shapes.tobytes()
            numerators = np.array([ref.multinomial(spec.scale, shape) for shape in shapes])
            assert drawn.tobytes() == np.divide(numerators, spec.scale).tobytes()
        assert ours.rng.bit_generator.state == ref.bit_generator.state


def _unit_passes(row: np.ndarray) -> int:
    """How many residual passes ``_old_unit_mass`` makes on ``row``."""
    row = row / float(row.sum())
    for passes in range(4):
        if (residual := float(row.sum()) - 1.0) == 0.0:
            return passes
        row[int(np.argmax(row))] -= residual
    return 4


@pytest.mark.parametrize("contiguous", [False, True])
def test_unit_mass_of_a_block_equals_each_row_alone(contiguous):
    """``_exact_unit_mass`` of a block of rows on a prefix mask, zero past each cut, gives each row the bits that
    row gets alone as a 1-D array, and that the per-distribution loop gives it, rows that need 0, 1, 2, 3 and 4
    residual passes among them; the rows still off after the first pass are scattered over the block (patched through
    a copy) or, ``contiguous``, one run of it (patched through a view)."""
    rng = np.random.default_rng(11)
    found = {passes: [] for passes in range(5)}
    while min(len(rows) for rows in found.values()) < 2:
        m = int(rng.integers(1, 300))
        row = rng.gamma(0.3, 1.0, m) + 1e-300
        row /= row.sum()
        if len(rows := found[_unit_passes(row)]) < 2:
            rows.append(row)
    chosen = [row for passes in range(5) for row in found[passes]]
    order = range(10) if contiguous else [2, 0, 4, 6, 1, 8, 3, 5, 7, 9]  # the rows on 0 passes between the others
    rows = [chosen[i] for i in order]
    lengths = [len(row) for row in rows]
    on = np.arange(max(lengths)) < np.array(lengths)[:, None]
    block = np.zeros(on.shape)
    block[on] = np.concatenate(rows)
    distributions._exact_unit_mass(block, on)
    for got, row, n in zip(block, rows, lengths):
        alone = distributions._exact_unit_mass(row.copy())
        assert _hex_rows([got[:n]]) == _hex_rows([alone]) == _hex_rows([_old_unit_mass(row.copy())])
        assert not got[n:].any()


@pytest.mark.parametrize("a, b", [(0, 0), (4, 4), (0, 1), (2, 9), (0, 1000), (17, 1040)])
def test_random_into_a_view_draws_what_a_fresh_call_draws(a, b):
    """``rng.random(out=buf[a:b])`` writes the draws of ``rng.random(b - a)`` into the view alone
    and leaves the same next draw, an empty view drawing nothing."""
    ours, ref = np.random.default_rng([a, b]), np.random.default_rng([a, b])
    buf = np.full(b + 5, -1.0)
    ours.random(out=buf[a:b])
    assert buf[a:b].tobytes() == ref.random(b - a).tobytes()
    assert (buf[:a] == -1.0).all() and (buf[b:] == -1.0).all()
    assert ours.random() == ref.random()


@given(st.integers(0, 2**32 - 1), st.integers(1, 70), st.lists(st.integers(0, 300), min_size=1, max_size=8))
@example(0, 1, [0])
@settings(max_examples=100, deadline=None)
def test_one_searchsorted_over_a_block_equals_the_per_trial_calls(seed, m, sizes):
    """A pmf's CDF answers the uniforms of several trials, concatenated or as rows, with the
    indices each trial's own ``_draw_indices`` call returns, zero-mass atoms and empty draws too."""
    rng = np.random.default_rng(seed)
    weights = rng.random(m) * (rng.random(m) < 0.7)
    weights[rng.integers(m)] += 0.1
    mass = make_distribution(Domain.indexed(m), weights).mass
    trials = [np.random.default_rng([seed, i]).random(c) for i, c in enumerate(sizes)]
    per_trial = np.concatenate([_draw_indices(mass, uniforms) for uniforms in trials])
    assert _draw_indices(mass, np.concatenate(trials), np.empty(m)).tobytes() == per_trial.tobytes()
    rows = rng.random((3, sizes[0]))
    assert _draw_indices(mass, rows).tobytes() == np.array([_draw_indices(mass, row) for row in rows]).tobytes()


@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.sampled_from(WIDTHS))
@settings(max_examples=100, deadline=None)
def test_zero_weight_columns_score_plus_zero_in_the_full_product(seed, k, m):
    """A sparse trial scans labels only where some weighted estimate is positive: a column of
    zero weights scores +0.0 in every row of the full ``costs.T @ weighted``, whatever the costs
    (non-negative, with zeros), so its label is 0 without a scan."""
    rng = np.random.default_rng(seed)
    weighted = rng.random((k, m)) * (rng.random((k, m)) < 0.5)
    weighted[:, rng.random(m) < 0.5] = 0.0
    costs = rng.uniform(0.0, 5.0, (k, k)) * (rng.random((k, k)) < 0.7)
    scores = np.empty((k, m))
    np.matmul(costs.T, weighted, out=scores)
    zero = ~weighted.any(axis=0)
    assert {float.hex(float(v)) for v in scores[:, zero].ravel()} <= {float.hex(0.0)}


@given(st.integers(0, 2**32 - 1), st.sampled_from(WIDTHS), st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_argmax_over_sorted_hits_is_the_full_row_argmax(seed, m, peak):
    """A row that is zero off its sorted positive atoms ``h`` takes its first largest entry at
    ``h[row[h].argmax()]``, the full row's ``argmax``, ties among the largest too."""
    rng = np.random.default_rng(seed)
    row = rng.integers(1, peak + 1, m) * (rng.random(m) < 0.3) / 7.0
    row[rng.integers(m)] = peak / 7.0
    hits = np.flatnonzero(row > 0.0)
    assert int(hits[row[hits].argmax()]) == int(row.argmax())
