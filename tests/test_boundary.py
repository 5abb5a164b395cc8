"""The validating boundary: every public constructor rejects bad input with a named message."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bayesrisk import bounds
from bayesrisk.bounds import KL, L1, PerturbationBudget, _into_budget, random_source
from bayesrisk.classify import Classifier, CostMatrix, LabeledSource, StochasticRule, bayes_classifier
from bayesrisk.classify import logloss_risk, risk
from bayesrisk.cli import main
from bayesrisk.distributions import Distribution, Domain, QuantizedClassSpec, make_distribution, mixture, sample
from bayesrisk.pdfa import OVERFLOW_ATOM, Pdfa, TruncatedStringDomain, _BitWriter
from bayesrisk.pipeline import TrialConfig, empirical_estimator, run_trial
from bayesrisk.smoothing import BaseDistribution, SmoothingParams, base_mixture, kl_certificate_from_floor, smooth

D2 = Domain.indexed(2)
NAN, INF = float("nan"), float("inf")


def uniform2():
    return Distribution(D2, np.array([0.5, 0.5]))


def log_loss_trials(_, laplace):
    source = LabeledSource(np.array([0.5, 0.5]), (uniform2(), uniform2()))
    return TrialConfig(source, None, 10, 30, 0.1, 0.1, laplace=laplace)


# (constructor, bad input, the whole message it raises). The messages are
# the ones the constructors have always raised; a change to the validation
# must keep every one of them.
BAD_INPUTS = [
    (Distribution, [NAN, 1.0], "invalid mass: entries must be finite"),
    (Distribution, [INF, 0.0], "invalid mass: entries must be finite"),
    (Distribution, [-INF, 1.0], "invalid mass: entries must be finite"),
    (Distribution, [-1.0, INF], "invalid mass: entries must be finite"),
    (Distribution, [1.5, -0.5], "invalid mass: entries must be non-negative"),
    (Distribution, [1.0, 0.0, 0.0], "mass vector has shape (3,), domain has 2 atoms"),
    (Distribution, [[0.5, 0.5]], "mass vector has shape (1, 2), domain has 2 atoms"),
    (Distribution, [0.5, 0.5 + 1e-9], "mass sums to 1.000000001, expected 1 within 1e-12"),
    (Distribution, [1e308, 1e308], "mass sums to inf, expected 1 within 1e-12"),
    (make_distribution, [NAN, 1.0], "invalid mass: weights must be finite and non-negative"),
    (make_distribution, [INF, 0.0], "invalid mass: weights must be finite and non-negative"),
    (make_distribution, [-INF, 1.0], "invalid mass: weights must be finite and non-negative"),
    (make_distribution, [1.5, -0.5], "invalid mass: weights must be finite and non-negative"),
    (make_distribution, [1.0, 0.0, 0.0], "invalid mass: 3 weights for 2 atoms"),
    (make_distribution, [0.0, 0.0], "degenerate: all weights are zero"),
    (make_distribution, [1e308, 1e308], "invalid mass: weights sum overflows the float range"),
    (lambda _, mass: Distribution.from_dict({"atoms": ["a", "b"], "mass": mass}),
     [NAN, 1.0], "invalid mass: entries must be finite"),
    (lambda _, atoms: Domain(atoms), ("x0", "x0"), "atom identifiers must be unique"),
    (lambda _, atoms: Domain(atoms), (), "domain must contain at least one atom"),
    (Classifier, [0, -1], "labels must be non-negative indices"),
    (Classifier, [0, 1, 1], "one label per domain atom required"),
    (StochasticRule, [[1.5, -0.5], [0.5, 0.5]], "rule rows must be non-negative"),
    (StochasticRule, [[0.5, 0.6], [0.5, 0.5]], "every rule row must sum to 1"),
    (lambda _, g: LabeledSource(np.array(g), (uniform2(), uniform2())),
     [NAN, 1.0], "every class prior must be positive"),
    (lambda _, g: LabeledSource(np.array(g), (uniform2(), uniform2())),
     [0.5, 0.6], "class priors must sum to 1"),
    (lambda _, alphabet: TruncatedStringDomain.build(alphabet, 0), ("a", "a"),
     "alphabet symbols must be unique"),
    (lambda _, alphabet: TruncatedStringDomain.build(alphabet, 2), ("a", "ab"),
     "alphabet symbols must be single characters, got 'ab'"),
    (lambda _, alphabet: TruncatedStringDomain.build(alphabet, 2), ("a", OVERFLOW_ATOM),
     f"alphabet may not contain the overflow atom {OVERFLOW_ATOM!r}"),
    (lambda _, lam: empirical_estimator(["x0"], D2, lam), NAN, "laplace weight must be finite"),
    (lambda _, lam: empirical_estimator(["x0"], D2, lam), INF, "laplace weight must be finite"),
    (lambda _, lam: empirical_estimator(["x0"], D2, lam), -1.0, "laplace weight must be non-negative"),
    (log_loss_trials, NAN, "laplace weight must be finite"),
    (log_loss_trials, INF, "laplace weight must be finite"),
    (log_loss_trials, -1.0, "laplace weight must be non-negative"),
    (QuantizedClassSpec, 54, "bits_per_atom must be at most 53, got 54"),
    (lambda _, s: empirical_estimator(s, Domain.indexed(3)), [True, True, False],
     "sample atom index must be an integer, got True"),
    (lambda _, s: empirical_estimator(s, D2), [1.0], "sample atom index must be an integer, got 1.0"),
    (lambda _, s: empirical_estimator(s, D2), ["x0", "x2"], "sample atom 'x2' is not in the domain"),
    (QuantizedClassSpec, 4.0, "bits_per_atom must be an integer, got 4.0"),
    (QuantizedClassSpec, True, "bits_per_atom must be an integer, got True"),
    (lambda _, n: SmoothingParams(0.5, n), 2.5, "description_length must be an integer, got 2.5"),
    (lambda _, n: TruncatedStringDomain.build(("a", "b"), n), 2.0, "max_len must be an integer, got 2.0"),
    (lambda _, n: Domain.indexed(n), 3.0, "size must be an integer, got 3.0"),
]


@pytest.mark.parametrize("build, value, message", BAD_INPUTS)
def test_bad_input_raises_its_named_message(build, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(D2, value)


def _masses(build):
    """The float.hex of every mass ``build()`` makes, or the message it raises."""
    try:
        return [float.hex(v) for v in build().mass]
    except ValueError as exc:
        return str(exc)


WIDE = np.random.default_rng(0).random(131_073)
WIDE[::3] = 0.0


@given(
    st.integers(1, 64).flatmap(
        lambda m: st.lists(st.floats(0.0, 1e3) | st.just(0.0), min_size=m, max_size=m)
    ),
    st.sampled_from([1e-300, 1.0, 1e300]),
)
@example(WIDE, 1e-300)
@example(WIDE, 1e300)
@settings(max_examples=300, deadline=None)
def test_owning_path_matches_the_validating_constructor(weights, scale):
    w = np.asarray(weights, dtype=float) * scale
    total = float(w.sum())
    assume(total > 0.0)
    domain = Domain.indexed(w.size)
    expected = _masses(lambda: Distribution(domain, w / total))
    assert _masses(lambda: make_distribution(domain, w)) == expected


@given(st.integers(0, 2**32 - 1), st.integers(1, 64), st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_l1_pull_back_stays_non_negative(seed, m, share):
    """The pull-back hands its blend over unchecked: it must be what the
    validating constructor accepts, bit for bit."""
    rng = np.random.default_rng(seed)
    domain = Domain.indexed(m)

    def with_zero_atoms():
        w = rng.random(m) * (rng.random(m) < 0.5)
        w[rng.integers(m)] += 1.0
        return make_distribution(domain, w)

    p, q = with_zero_atoms(), with_zero_atoms()
    distance = float(np.abs(p.mass - q.mass).sum())
    limit = share * distance
    pulled = _into_budget(L1, p.mass[None], q.mass[None].copy(), np.array([limit]))[0]
    if pulled.tobytes() != q.mass.tobytes():
        checked = Distribution(domain, p.mass + limit / distance * (q.mass - p.mass))
        assert pulled.tobytes() == checked.mass.tobytes()


def test_trusted_objects_are_frozen_and_equal_to_validated_ones():
    source = random_source(np.random.default_rng(1), 3, 9)
    f = bayes_classifier(source, np.ones((3, 3)) - np.eye(3))
    assert np.array_equal(Classifier(f.domain, f.labels).labels, f.labels)
    for arr in (f.labels, source.class_dists[0].mass, source.mixture_distribution().mass):
        assert not arr.flags.writeable
    assert Domain.indexed(9) == Domain(tuple(f"x{i}" for i in range(9)))
    space = TruncatedStringDomain.build(("a", "b"), 3).domain
    assert space == Domain(space.atoms)


D3 = Domain.indexed(3)
ZERO_ONE = CostMatrix.zero_one(2)
HALF_MACHINE = Path(__file__).parent / "data" / "machine_half.json"


def source2():
    return LabeledSource(np.array([0.5, 0.5]), (uniform2(), uniform2()))


def uniform3():
    return Distribution(D3, np.full(3, 1 / 3))


def one_state(**fields):
    return Pdfa(**{"alphabet": ("a",), "precision": 1, "initial": 0, "stops": (1.0,), "table": (((0.0, 0),),),
                   **fields})


def search(k=2, m=2, cost=ZERO_ONE, budget=(L1, 0.1), iterations=1):
    return bounds.tightness_search(k, m, cost, PerturbationBudget(*budget), iterations, np.random.default_rng(0))


# (call, the whole message it raises) for public input that once ended as NaN or a numpy error, or
# whose named error no other test raises.
NAMED_ERRORS = [
    pytest.param(lambda: bounds.theorem1_bound(-0.1, 2, ZERO_ONE), "epsilon must be non-negative", id="theorem1-neg"),
    pytest.param(lambda: bounds.theorem1_bound(NAN, 2, ZERO_ONE), "epsilon must be non-negative", id="theorem1-nan"),
    pytest.param(lambda: bounds.theorem2_bound(NAN, 2), "epsilon must be non-negative", id="theorem2-nan"),
    pytest.param(lambda: bounds.check_theorem1(source2(), (uniform3(), uniform3()), ZERO_ONE),
                 "estimates must live on the source's domain", id="estimates-off-domain"),
    pytest.param(lambda: search(iterations=0), "iterations must be at least 1", id="search-iterations-0"),
    pytest.param(lambda: search(iterations=2.5), "iterations must be an integer, got 2.5", id="search-iterations-float"),
    pytest.param(lambda: search(iterations=True), "iterations must be an integer, got True", id="search-iterations-bool"),
    pytest.param(lambda: search(cost=None), "the L1 metric needs a cost matrix", id="search-no-cost"),
    pytest.param(lambda: search(k=1, cost=None, budget=(KL, 0.1)), "k must be at least 2 and m at least 1",
                 id="search-k-1"),
    pytest.param(lambda: search(m=0), "k must be at least 2 and m at least 1", id="search-m-0"),
    pytest.param(lambda: random_source(np.random.default_rng(0), 2, 0), "k must be at least 2 and m at least 1",
                 id="random-source-m-0"),
    pytest.param(lambda: random_source(np.random.default_rng(0), 1, 2), "k must be at least 2 and m at least 1",
                 id="random-source-k-1"),
    pytest.param(lambda: bounds.random_theorem1_instance(np.random.default_rng(0), k_max=1),
                 "k_max and m_max must be at least 2", id="theorem1-instance-k-max-1"),
    pytest.param(lambda: bounds.random_theorem2_instance(np.random.default_rng(0), m_max=1),
                 "k_max and m_max must be at least 2", id="theorem2-instance-m-max-1"),
    pytest.param(lambda: PerturbationBudget(L1, True), "budget epsilon: True is not a number", id="budget-epsilon-bool"),
    pytest.param(lambda: bounds.random_l1_perturbation(uniform2(), True, np.random.default_rng(0)),
                 "L1 budget: True is not a number", id="l1-perturbation-bool"),
    pytest.param(lambda: bounds.support_safe_perturbation(uniform2(), True, np.random.default_rng(0)),
                 "L1 budget: True is not a number", id="support-safe-perturbation-bool"),
    pytest.param(lambda: LabeledSource(np.array([1.0]), (uniform2(),)), "a labeled source needs at least two classes",
                 id="source-one-class"),
    pytest.param(lambda: LabeledSource(np.array([0.2, 0.3, 0.5]), (uniform2(), uniform2())),
                 "one prior per class distribution required", id="source-prior-count"),
    pytest.param(lambda: StochasticRule(D2, np.full((3, 2), 0.5)), "rule table must have one row per domain atom",
                 id="rule-rows"),
    pytest.param(lambda: CostMatrix(np.zeros((0, 0))), "cost matrix must be square and non-empty", id="cost-empty"),
    pytest.param(lambda: CostMatrix(np.zeros((2, 3))), "cost matrix must be square and non-empty", id="cost-2x3"),
    pytest.param(lambda: risk(Classifier(D3, [0, 0, 0]), source2(), ZERO_ONE), "classifier and source domains differ",
                 id="risk-domain"),
    pytest.param(lambda: risk(Classifier(D2, [0, 2]), source2(), ZERO_ONE),
                 "classifier labels exceed the source's class count", id="risk-labels"),
    pytest.param(lambda: logloss_risk(StochasticRule(D3, np.full((3, 2), 0.5)), source2()),
                 "rule and source domains differ", id="logloss-domain"),
    pytest.param(lambda: logloss_risk(StochasticRule(D2, np.full((2, 3), 1 / 3)), source2()),
                 "rule and source class counts differ", id="logloss-classes"),
    pytest.param(lambda: Domain.indexed(0), "domain must contain at least one atom", id="indexed-0"),
    pytest.param(lambda: mixture([]), "mixture needs at least one component", id="mixture-empty"),
    pytest.param(lambda: mixture([(1.5, uniform2()), (-0.5, uniform2())]), "mixture weights must lie in [0, 1]",
                 id="mixture-weights"),
    pytest.param(lambda: sample(uniform2(), np.random.default_rng(0), -1), "sample count must be non-negative",
                 id="sample-negative"),
    pytest.param(lambda: sample(uniform2(), np.random.default_rng(0), True), "sample count must be an integer, got True",
                 id="sample-bool"),
    pytest.param(lambda: sample(uniform2(), np.random.default_rng(0), 2.0), "sample count must be an integer, got 2.0",
                 id="sample-float"),
    pytest.param(lambda: QuantizedClassSpec(D2, 0), "bits_per_atom must be a positive integer", id="bits-0"),
    pytest.param(lambda: one_state(precision=0), "precision must be between 1 and 52 bits", id="pdfa-precision"),
    pytest.param(lambda: one_state(stops=(), table=()), "a machine needs at least one state", id="pdfa-no-state"),
    pytest.param(lambda: one_state(initial=1), "initial state out of range", id="pdfa-initial"),
    pytest.param(lambda: one_state(table=()), "one table row per state required", id="pdfa-rows"),
    pytest.param(lambda: Pdfa.from_dict({**one_state().to_dict(), "n": 2}),
                 "state count field disagrees with the states list", id="pdfa-n"),
    pytest.param(lambda: TruncatedStringDomain.build(("a",), -1), "max_len must be non-negative", id="max-len-negative"),
    pytest.param(lambda: _BitWriter().write_gamma(0), "Elias gamma encodes positive integers only", id="gamma-0"),
    pytest.param(lambda: TrialConfig(source2(), None, 10, 30, 0.0, 0.1), "epsilon_target must be positive",
                 id="epsilon-target-0"),
    pytest.param(lambda: TrialConfig(source2(), None, 10, 30, True, 0.1), "epsilon_target: True is not a number",
                 id="epsilon-target-bool"),
    pytest.param(lambda: TrialConfig(source2(), None, 10, 30, 0.1, True), "delta_target: True is not a number",
                 id="delta-target-bool"),
    pytest.param(lambda: TrialConfig(source2(), None, 10, 30, 0.1, 0.1, laplace=True), "laplace: True is not a number",
                 id="trial-laplace-bool"),
    pytest.param(lambda: empirical_estimator(["x0"], D2, True), "laplace: True is not a number",
                 id="estimator-laplace-bool"),
    pytest.param(lambda: SmoothingParams(0.5, 0), "description_length must be a positive integer",
                 id="description-length-0"),
    pytest.param(lambda: BaseDistribution(uniform2(), NAN), "min_mass must be finite and non-negative",
                 id="min-mass-nan"),
    pytest.param(lambda: BaseDistribution(uniform2(), 0.6), "min_mass certificate exceeds an actual atom mass",
                 id="min-mass-over"),
    pytest.param(lambda: base_mixture([]), "explicit class must contain at least one distribution", id="base-empty"),
    pytest.param(lambda: base_mixture([uniform2(), uniform3()]), "class members must share one domain",
                 id="base-domains"),
    pytest.param(lambda: smooth(uniform3(), SmoothingParams(0.5, 8), BaseDistribution(uniform2(), 0.5)),
                 "estimate and base must share one domain", id="smooth-domains"),
    pytest.param(lambda: kl_certificate_from_floor(SmoothingParams(0.5, 8), BaseDistribution(uniform2(), 0.0)),
                 "base provides no floor: min_mass must be positive", id="certificate-no-floor"),
]


@pytest.mark.parametrize("call, message", NAMED_ERRORS)
def test_named_error(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call", [
    lambda rng: bounds.tightness_search(1, 2, None, PerturbationBudget(KL, 0.1), 1, rng),
    lambda rng: bounds.tightness_search(2, 0, ZERO_ONE, PerturbationBudget(L1, 0.1), 1, rng),
    lambda rng: bounds.tightness_search(2, 2, ZERO_ONE, PerturbationBudget(L1, 0.1), 2.5, rng),
    lambda rng: random_source(rng, 2, 0),
    lambda rng: bounds.random_theorem1_instance(rng, k_max=1),
])
def test_bad_sizes_are_refused_before_the_first_draw(call):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError):
        call(rng)
    assert rng.bit_generator.state == state


def test_an_infinite_epsilon_stays_legal():
    assert bounds.theorem1_bound(INF, 2, ZERO_ONE) == INF
    assert bounds.theorem2_bound(INF, 2) == INF


@pytest.mark.parametrize("argv, message", [
    pytest.param(["pipeline", "--source", "file:machine.json", "--truncate", "3"],
                 "unsupported source 'file:machine.json'; expected pdfa:<machine file>", id="pipeline-source-kind"),
    pytest.param(["pipeline", "--source", f"pdfa:{HALF_MACHINE}", "--truncate", "3"],
                 "need at least two pdfa sources to form a labeled source", id="pipeline-one-source"),
    pytest.param(["pipeline", "--source", f"pdfa:{HALF_MACHINE},pdfa:{HALF_MACHINE}", "--truncate", "3",
                  "--trials", "10"], "at least 30 trials are needed for a meaningful delta estimate",
                 id="pipeline-10-trials"),
    pytest.param(["tightness", "--iterations", "0"], "--iterations must be at least 1", id="tightness-iterations-0"),
])
def test_cli_usage_error_names_its_input(tmp_path, capsys, argv, message):
    assert main([*argv, "--out-dir", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_public_members_no_other_test_reads():
    assert CostMatrix.zero_one(3).k == 3
    outcome = run_trial(TrialConfig(source2(), ZERO_ONE, 10, 30, 0.1, 0.1), np.random.default_rng(0))
    assert outcome.satisfied is outcome.report.satisfied is True
    assert not QuantizedClassSpec(D2, 4).contains(uniform3())
