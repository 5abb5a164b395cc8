"""Finite discrete domains, probability mass functions, and divergences.

This is the numerical substrate for the rest of the package. Conventions:

- Domains are explicitly enumerated and distributions are dense mass
  vectors over them, so every divergence, mixture, and risk downstream is
  an exact summation over the whole domain rather than a sampled estimate.
- All logarithms are base 2; KL divergences (and log-loss risks built on
  them) are measured in bits.
- ``0 * log(0/q) == 0``. A support violation (``p(x) > 0`` where
  ``q(x) == 0``) makes the KL divergence ``math.inf``; infinity is a
  value here, never an exception.
- Construction renormalizes exactly, so downstream code may assume unit
  mass without re-checking.

The public constructors validate their input. Package code that has just
built a fresh, finite, non-negative mass array of the right shape hands it
to the private ``Distribution._own``, which skips the copy and those scans
but keeps the unit-sum check and the exact renormalization.

All types are immutable after construction. Every operation is a pure
function except :func:`sample`, which consumes the caller's random
generator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

SUM_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-12


def _trusted(cls, **fields):
    """The frozen dataclass ``cls`` holding ``fields`` as given, unchecked."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class Domain:
    """Ordered finite sample space of uniquely named atoms."""

    atoms: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", tuple(str(a) for a in self.atoms))
        if len(self.atoms) < 1:
            raise ValueError("domain must contain at least one atom")
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("atom identifiers must be unique")

    @classmethod
    def indexed(cls, size: int, prefix: str = "x") -> "Domain":
        """Canonical domain ``{x0, x1, ..., x<size-1>}``."""
        if size < 1:
            raise ValueError("domain must contain at least one atom")
        return _trusted(cls, atoms=tuple(f"{prefix}{i}" for i in range(size)))

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.atoms)}

    @property
    def size(self) -> int:
        return len(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def index(self, atom: str) -> int:
        try:
            return self._positions[atom]
        except KeyError:
            raise KeyError(f"atom {atom!r} is not in the domain") from None


def _exact_unit_mass(mass: np.ndarray, total: float) -> np.ndarray:
    """Rescale ``mass``, whose sum is ``total``, in place so it sums to 1.0 up
    to at most one ulp, and make it read-only.

    ``total`` must lie within ``SUM_TOL`` of one. After dividing by it, the
    float re-sum can still miss 1.0 by a few ulp; folding the residual into
    the largest entry brings the sum to literal 1.0 in almost all cases
    (and always within one ulp, far inside every downstream tolerance).
    """
    if abs(total - 1.0) > SUM_TOL:
        raise ValueError(f"mass sums to {total!r}, expected 1 within {SUM_TOL}")
    mass /= total
    for _ in range(4):
        residual = float(mass.sum()) - 1.0
        if residual == 0.0:
            break
        mass[int(np.argmax(mass))] -= residual
    mass.flags.writeable = False
    return mass


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability mass function over a :class:`Domain`.

    The constructor accepts near-normalized mass (sum within ``1e-12`` of
    one) and renormalizes it exactly; use :func:`make_distribution` to
    build from arbitrary non-negative weights.
    """

    domain: Domain
    mass: np.ndarray

    def __post_init__(self) -> None:
        mass = np.asarray(self.mass, dtype=float).copy()
        if mass.shape != (self.domain.size,):
            raise ValueError(
                f"mass vector has shape {mass.shape}, domain has {self.domain.size} atoms"
            )
        # NaN reaches both reductions; inf or -inf makes the sum non-finite or the min < 0.
        with np.errstate(over="ignore"):
            total = float(mass.sum())
        if not (math.isfinite(total) and mass.min() >= 0.0):
            if not np.isfinite(mass).all():
                raise ValueError("invalid mass: entries must be finite")
            if (mass < 0.0).any():
                raise ValueError("invalid mass: entries must be non-negative")
        object.__setattr__(self, "mass", _exact_unit_mass(mass, total))

    @classmethod
    def _own(cls, domain: Domain, mass: np.ndarray) -> "Distribution":
        """Take ``mass``, a fresh finite non-negative ``(domain.size,)`` array, unscanned."""
        return _trusted(cls, domain=domain, mass=_exact_unit_mass(mass, float(mass.sum())))

    def prob(self, atom: str) -> float:
        return float(self.mass[self.domain.index(atom)])

    def to_dict(self) -> dict:
        return {"atoms": list(self.domain.atoms), "mass": [float(v) for v in self.mass]}

    def to_json(self) -> str:
        # Python float repr is shortest-round-trip, so mass values survive
        # serialization at full binary precision.
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "Distribution":
        return cls(Domain(tuple(data["atoms"])), np.asarray(data["mass"], dtype=float))

    @classmethod
    def from_json(cls, text: str) -> "Distribution":
        return cls.from_dict(json.loads(text))


def make_distribution(domain: Domain, weights: Sequence[float]) -> Distribution:
    """Normalize non-negative weights into a :class:`Distribution`.

    Raises
    ------
    ValueError
        ``"invalid mass"`` for negative, NaN, or non-finite weights, a
        length mismatch, or weights whose sum overflows; ``"degenerate"``
        when every weight is zero.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (domain.size,):
        raise ValueError(
            f"invalid mass: {w.shape[0] if w.ndim == 1 else w.shape} weights for "
            f"{domain.size} atoms"
        )
    with np.errstate(over="ignore"):
        total = float(w.sum())
    if not (math.isfinite(total) and w.min() >= 0.0):
        if not np.isfinite(w).all() or (w < 0.0).any():
            raise ValueError("invalid mass: weights must be finite and non-negative")
        raise ValueError("invalid mass: weights sum overflows the float range")
    if total == 0.0:
        raise ValueError("degenerate: all weights are zero")
    return Distribution._own(domain, w / total)


def _require_same_domain(p: Distribution, q: Distribution) -> None:
    if p.domain != q.domain:
        raise ValueError("distributions are defined on different domains")


def l1_distance(p: Distribution, q: Distribution) -> float:
    """Sum of pointwise absolute differences; twice the total variation.

    Always in ``[0, 2]``: 0 for identical distributions, 2 for disjoint
    supports.
    """
    _require_same_domain(p, q)
    diff = p.mass - q.mass
    return float(np.abs(diff, out=diff).sum())


def kl_divergence(p: Distribution, q: Distribution) -> float:
    """KL divergence from ``p`` to ``q`` in bits.

    ``sum_x p(x) * log2(p(x)/q(x))`` with ``0 log 0 := 0``; ``math.inf``
    when ``p`` puts mass outside the support of ``q``. Non-negative by
    Gibbs' inequality (float round-off is clamped at zero).
    """
    _require_same_domain(p, q)
    return _kl_on_support(p.mass, q.mass, p.mass > 0.0)


def _kl_on_support(p: np.ndarray, q: np.ndarray, support: np.ndarray) -> float:
    """:func:`kl_divergence` of the mass arrays ``p`` and ``q``, ``support`` being ``p > 0``."""
    qs = q[support]
    if (qs == 0.0).any():
        return math.inf
    ps = p[support]
    return max(0.0, float((ps * np.log2(ps / qs)).sum()))


def mixture(components: Sequence[tuple[float, Distribution]]) -> Distribution:
    """Convex combination of distributions sharing one domain."""
    if not components:
        raise ValueError("mixture needs at least one component")
    weights = np.asarray([w for w, _ in components], dtype=float)
    if np.any(weights < 0.0) or np.any(weights > 1.0):
        raise ValueError("mixture weights must lie in [0, 1]")
    if abs(float(weights.sum()) - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(
            f"mixture weights sum to {float(weights.sum())!r}, expected 1 within {WEIGHT_SUM_TOL}"
        )
    dists = [d for _, d in components]
    domain = dists[0].domain
    for d in dists[1:]:
        _require_same_domain(dists[0], d)
    combined = np.zeros(domain.size)
    for w, d in components:
        combined += w * d.mass
    return Distribution(domain, combined)


def _draw_indices(mass: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` i.i.d. indices into ``mass``, a validated pmf, by inverse CDF.

    This is the arithmetic ``rng.choice(mass.size, size=n, p=mass)`` runs
    once it has validated ``p``, so it returns the same indices and leaves
    the generator in the same state, without re-checking a mass vector
    that :class:`Distribution` or the class priors have already checked.
    The CDF is built per call on purpose: a held copy costs m floats per
    class for the life of whatever holds it.
    """
    cdf = mass.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(n), side="right")


def sample(d: Distribution, rng: np.random.Generator, n: int) -> list[str]:
    """Draw ``n`` i.i.d. atoms; deterministic given the generator state.

    Atoms are drawn by inverse CDF, the same algorithm and the same draws
    as ``rng.choice(m, size=n, p=d.mass)``.
    """
    if n < 0:
        raise ValueError("sample count must be non-negative")
    if n == 0:
        return []
    atoms = d.domain.atoms
    return [atoms[i] for i in _draw_indices(d.mass, rng, n)]


@dataclass(frozen=True)
class QuantizedClassSpec:
    """The class of pmfs on ``domain`` whose masses are multiples of ``2**-bits_per_atom``.

    ``description_length`` is the bit length of the dense encoding, one
    ``bits_per_atom``-bit numerator per atom.
    """

    domain: Domain
    bits_per_atom: int

    def __post_init__(self) -> None:
        if self.bits_per_atom < 1:
            raise ValueError("bits_per_atom must be a positive integer")

    @property
    def description_length(self) -> int:
        return self.domain.size * self.bits_per_atom

    @property
    def scale(self) -> int:
        return 1 << self.bits_per_atom

    def contains(self, d: Distribution) -> bool:
        """True when every mass value is exactly an integer multiple of ``2**-bits``."""
        if d.domain != self.domain:
            return False
        scaled = d.mass * self.scale
        return bool(np.all(scaled == np.round(scaled)))


def random_quantized(spec: QuantizedClassSpec, rng: np.random.Generator) -> Distribution:
    """Random member of the quantized class, numerators drawn multinomially.

    Dyadic masses with denominator ``2**bits_per_atom`` are exact in binary
    floating point, so membership survives construction.
    """
    shape = rng.dirichlet(np.ones(spec.domain.size))
    numerators = rng.multinomial(spec.scale, shape)
    return Distribution._own(spec.domain, numerators / spec.scale)
