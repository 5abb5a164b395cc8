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

from .bounds import report_rows
from .distributions import (
    Distribution,
    QuantizedClassSpec,
    kl_divergence,
    l1_distance,
)

WITHIN_TOL = 1e-9
HYPOTHESIS_TOL = 1e-12

# Explicit class enumerations beyond this are refused rather than averaged.
MAX_ENUMERATION = 1 << 20


@dataclass(frozen=True)
class SmoothingParams:
    """Target KL accuracy ``epsilon`` (bits) and description length ``description_length`` (bits).

    ``xi`` is the mixing weight ``epsilon**2 / (12 * description_length)``,
    computed once here so every consumer shares the same arithmetic.
    """

    epsilon: float
    description_length: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError("epsilon must be positive and finite")
        if self.description_length < 1:
            raise ValueError("description_length must be a positive integer")
        if not self.xi < 1.0:
            raise ValueError("xi = epsilon**2 / (12 * description_length) must stay below 1")

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


def base_mixture(
    source: Union[QuantizedClassSpec, Sequence[Distribution]],
    max_enumeration: int = MAX_ENUMERATION,
) -> BaseDistribution:
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
    if len(members) > max_enumeration:
        raise ValueError(
            f"enumeration infeasible: {len(members)} members exceeds {max_enumeration}"
        )
    domain = members[0].domain
    for d in members[1:]:
        if d.domain != domain:
            raise ValueError("class members must share one domain")
    avg = np.mean([d.mass for d in members], axis=0)
    dist = Distribution(domain, avg)
    return BaseDistribution(dist, float(dist.mass.min()))


def smooth(
    d_est: Distribution, params: SmoothingParams, base: BaseDistribution
) -> Distribution:
    """Mix ``(1 - xi) * d_est + xi * base``; every atom ends up >= ``xi * min_mass``."""
    if base.min_mass <= 0.0:
        raise ValueError("base provides no floor: min_mass must be positive")
    if d_est.domain != base.dist.domain:
        raise ValueError("estimate and base must share one domain")
    xi = params.xi
    return Distribution(d_est.domain, (1.0 - xi) * d_est.mass + xi * base.dist.mass)


def kl_certificate(params: SmoothingParams) -> float:
    """Closed-form KL guarantee ``3 * xi * (1 + L - log2(xi))`` in bits."""
    xi = params.xi
    return 3.0 * xi * (1.0 + params.description_length - math.log2(xi))


def kl_certificate_from_floor(params: SmoothingParams, base: BaseDistribution) -> float:
    """Tighter certificate using the actual floor: ``3 * xi * (1 - log2(xi * min_mass))``."""
    if base.min_mass <= 0.0:
        raise ValueError("base provides no floor: min_mass must be positive")
    xi = params.xi
    return 3.0 * xi * (1.0 - math.log2(xi * base.min_mass))


@report_rows()
@dataclass(frozen=True)
class SmoothingReport:
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
    l1_actual = l1_distance(true_d, d_est)
    if l1_actual > params.xi + HYPOTHESIS_TOL:
        raise ValueError(
            f"hypothesis not met: L1(true, estimate) = {l1_actual!r} exceeds xi = {params.xi!r}"
        )
    smoothed = smooth(d_est, params, base)
    kl_actual = kl_divergence(true_d, smoothed)
    return SmoothingReport(
        xi=params.xi,
        l1_actual=l1_actual,
        kl_actual=kl_actual,
        certificate=kl_certificate(params),
        certificate_floor=kl_certificate_from_floor(params, base),
        within=kl_actual <= params.epsilon + WITHIN_TOL,
    )
