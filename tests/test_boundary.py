"""The validating boundary: every public constructor rejects bad input with a named message."""

import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bayesrisk.bounds import L1, _project_into_budget, random_source
from bayesrisk.classify import Classifier, LabeledSource, StochasticRule, bayes_classifier
from bayesrisk.distributions import Distribution, Domain, make_distribution
from bayesrisk.pdfa import OVERFLOW_ATOM, TruncatedStringDomain
from bayesrisk.pipeline import TrialConfig, empirical_estimator

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
    assert _masses(lambda: Distribution._own(domain, w / total)) == expected
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
    pulled = _project_into_budget(L1, p.mass, q.mass, limit)
    if pulled is not q.mass:
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
