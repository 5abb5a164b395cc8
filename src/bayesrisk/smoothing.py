"""L1-to-KL smoothing: mix an estimate with a mass-floored base distribution.

An estimate that is close to the truth in L1 distance can still have
infinite KL divergence (one missing support atom suffices). Mixing it
with a base distribution whose every atom carries at least ``min_mass``
installs a mass floor: with mixing weight ``xi = epsilon**2 / (12 * L)``
(``L`` the bit length describing a member of the quantized target class)
the smoothed estimate satisfies

    KL(true || smoothed) <= 3 * xi * (1 + L - log2(xi)) <= epsilon

whenever the estimate was within L1 distance ``xi`` of a true
distribution from the class. The certificate consumes only the floor, so
a tighter variant using ``-log2(min_mass)`` in place of ``L`` is exposed
alongside the standard one.

For the full quantized-pmf class the unweighted mixture of all members
is exactly uniform (the class is permutation symmetric), with
``min_mass = 1/m >= 2**-L``; small explicit classes are averaged
directly. Logs are base 2 throughout, matching the divergence module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .bounds import _BATCH_BLOCKS, EXACT_TOL, ReportRows, _perturb_rows, _within
from .distributions import Distribution, QuantizedClassSpec, _exact_unit_mass, _moves, _quantized_rows
from .distributions import _json_float, _json_int, _kl_on_support, _l1_distance, _require_same_domain

# Explicit class enumerations beyond this are refused rather than averaged.
MAX_ENUMERATION = 1 << 20

# Bytes of one (trials, m) float block of a smoothing sweep.
_BLOCK_BYTES = 1 << 14


@dataclass(frozen=True)
class SmoothingParams:
    """Target KL accuracy ``epsilon`` (bits) and description length ``description_length`` (bits).

    ``xi`` is the mixing weight ``epsilon**2 / (12 * description_length)``,
    computed once here so every consumer shares the same arithmetic.
    """

    epsilon: float
    description_length: int

    def __post_init__(self) -> None:
        if not (math.isfinite(_json_float(self.epsilon, "epsilon")) and self.epsilon > 0.0):
            raise ValueError("epsilon must be positive and finite")
        object.__setattr__(self, "description_length", _json_int(self.description_length, "description_length"))
        if self.description_length < 1:
            raise ValueError("description_length must be a positive integer")
        if not self.xi < 1.0:
            raise ValueError("xi = epsilon**2 / (12 * description_length) must stay below 1")
        if self.xi == 0.0:  # log2(xi) of the certificate has no value
            raise ValueError(f"epsilon {self.epsilon!r} is too small: xi = epsilon**2 / (12 * description_length) is 0")

    @property
    def xi(self) -> float:
        return self.epsilon**2 / (12.0 * self.description_length)


@dataclass(frozen=True)
class BaseDistribution:
    """A distribution together with a certified lower bound on every atom's mass."""

    dist: Distribution
    min_mass: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.min_mass) or self.min_mass < 0.0:
            raise ValueError("min_mass must be finite and non-negative")
        if float(self.dist.mass.min()) < self.min_mass:
            raise ValueError("min_mass certificate exceeds an actual atom mass")


def base_mixture(source: Union[QuantizedClassSpec, Sequence[Distribution]]) -> BaseDistribution:
    """Unweighted mixture of a distribution class, with its mass floor.

    For a :class:`QuantizedClassSpec` the full class is permutation
    symmetric, so its average is exactly uniform and never enumerated.
    An explicit sequence of distributions is averaged directly; a
    ``min_mass`` of zero is allowed here but will be rejected by
    :func:`smooth`, which needs a positive floor.
    """
    if isinstance(source, QuantizedClassSpec):
        m = source.domain.size
        uniform = Distribution(source.domain, np.full(m, 1.0 / m))
        return BaseDistribution(uniform, float(uniform.mass.min()))
    members = list(source)
    if not members:
        raise ValueError("explicit class must contain at least one distribution")
    if len(members) > MAX_ENUMERATION:
        raise ValueError(
            f"enumeration infeasible: {len(members)} members exceeds {MAX_ENUMERATION}"
        )
    domain = members[0].domain
    for d in members[1:]:
        if d.domain != domain:
            raise ValueError("class members must share one domain")
    avg = np.mean([d.mass for d in members], axis=0)
    dist = Distribution(domain, avg)
    return BaseDistribution(dist, float(dist.mass.min()))


def smooth(d_est: Distribution, params: SmoothingParams, base: BaseDistribution) -> Distribution:
    """Mix ``(1 - xi) * d_est + xi * base``; every atom ends up >= ``xi * min_mass``."""
    _check_base(d_est, base)
    return Distribution._frozen(d_est.domain, _smooth_rows(d_est.mass[None], params.xi, base)[0])


def _check_base(d_est: Distribution, base: BaseDistribution) -> None:
    if base.min_mass <= 0.0:
        raise ValueError("base provides no floor: min_mass must be positive")
    if d_est.domain != base.dist.domain:
        raise ValueError("estimate and base must share one domain")


def _smooth_rows(est: np.ndarray, xi: float, base: BaseDistribution) -> np.ndarray:
    """:func:`smooth`'s mixing of each row of the ``(n, m)`` masses ``est``, fresh and at unit mass."""
    return _exact_unit_mass((1.0 - xi) * est + xi * base.dist.mass)


def kl_certificate(params: SmoothingParams) -> float:
    """Closed-form KL guarantee ``3 * xi * (1 + L - log2(xi))`` in bits."""
    xi = params.xi
    return 3.0 * xi * (1.0 + params.description_length - math.log2(xi))


def kl_certificate_from_floor(params: SmoothingParams, base: BaseDistribution) -> float:
    """Tighter certificate using the actual floor: ``3 * xi * (1 - log2(xi * min_mass))``."""
    if base.min_mass <= 0.0:
        raise ValueError("base provides no floor: min_mass must be positive")
    if (floor := params.xi * base.min_mass) == 0.0:
        raise ValueError(f"xi * min_mass underflows to 0 (xi = {params.xi!r}): the floor certificate has no value")
    return 3.0 * params.xi * (1.0 - math.log2(floor))


@dataclass(frozen=True)
class SmoothingReport(ReportRows):
    """One verification row: achieved divergences against the certificate."""

    xi: float
    l1_actual: float
    kl_actual: float
    certificate: float
    certificate_floor: float
    within: bool


def verify_smoothing(
    true_d: Distribution,
    d_est: Distribution,
    params: SmoothingParams,
    base: BaseDistribution,
) -> SmoothingReport:
    """Smooth ``d_est`` and compare the achieved KL against the targets.

    Requires ``L1(true_d, d_est) <= xi``, i.e. the estimate came from an
    L1 learner run at accuracy ``xi``; ``within`` records
    ``KL(true_d || smoothed) <= epsilon``.
    """
    _require_same_domain(true_d, d_est)
    _check_base(d_est, base)
    return SmoothingReport.from_columns(_verify_rows(true_d.mass[None], d_est.mass[None], params, base))[0]


def _verify_rows(true: np.ndarray, est: np.ndarray, params: SmoothingParams, base: BaseDistribution) -> dict:
    """:func:`verify_smoothing`'s report fields for the row pairs of ``(n, m)`` unit masses, as columns: a float
    where every row holds one value (``xi`` and the certificates), else an array; the hypothesis is checked for
    every row first."""
    l1 = _l1_distance(true, est)
    broken = np.flatnonzero(l1 > params.xi + EXACT_TOL)
    if len(broken):
        raise ValueError(
            f"hypothesis not met: L1(true, estimate) = {float(l1[broken[0]])!r} exceeds xi = {params.xi!r}"
        )
    kl = _kl_on_support(true, _smooth_rows(est, params.xi, base), true > 0.0)
    return {"xi": params.xi, "l1_actual": l1, "kl_actual": kl, "certificate": kl_certificate(params),
            "certificate_floor": kl_certificate_from_floor(params, base), "within": _within(kl, params.epsilon)}


def _trials_per_block(m: int) -> int:
    """The trials in a smoothing sweep's draw block on ``m`` atoms: as many as ``_BLOCK_BYTES`` holds as one array."""
    return max(1, _BLOCK_BYTES // (8 * m))


def _sweep(spec: QuantizedClassSpec, params: SmoothingParams, base: BaseDistribution, trials: int, rng):
    """The smoothing sweep's trials a batch of ``_BATCH_BLOCKS`` draw blocks at a time, each batch ``(true, estimates,
    columns)``: its ``(n, m)`` masses and :func:`_verify_rows`' columns. A draw block of :func:`_trials_per_block`
    trials (fewer in the last) draws field major, one generator call for each kind of draw: every trial's
    :func:`random_quantized` exponentials, every trial's multinomial (``_quantized_rows``), then the noise of every
    trial's :func:`random_l1_perturbation` at budget ``xi``, written into the batch's rows; then the batch does its
    arithmetic on all its rows at once. The block size, and with it ``_BLOCK_BYTES``, is part of the stream's
    definition: a run's trials are a prefix of a longer run's only over its whole blocks. The batch length is not."""
    m, size = spec.domain.size, _trials_per_block(spec.domain.size)
    for start in range(0, trials, step := _BATCH_BLOCKS * size):
        true, noise = np.empty((n := min(step, trials - start), m)), np.empty((n, m))
        for rows in (slice(at, min(n, at + size)) for at in range(0, n, size)):
            true[rows] = _quantized_rows(rng, rows.stop - rows.start, m, spec.scale)
            noise[rows] = _moves(rng, np.ones((rows.stop - rows.start, m), bool), params.xi, False)[1]
        est = _perturb_rows(_exact_unit_mass(true), np.full(n, params.xi), noise)
        yield true, est, _verify_rows(true, est, params, base)
