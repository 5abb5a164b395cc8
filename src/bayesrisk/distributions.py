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

The public constructors validate their input. Weights become unit masses in
one place, :func:`_unit_rows`, row by row; a mass that
:func:`_exact_unit_mass` has already produced goes to the private
``Distribution._frozen``, which only freezes it.

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

# Tolerance of every unit-sum check: masses, mixture weights, priors (half of it) and rule rows.
SUM_TOL = 1e-12


def _trusted(cls, **fields):
    """The frozen dataclass ``cls`` holding ``fields`` as given, unchecked."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _json_int(value, name: str) -> int:
    """``value`` as an integer field, from JSON or a constructor: a bool or a float is refused, never rounded."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _json_float(value, name: str):
    """``value``, a real field from JSON or a real argument, as given: an int or a float (numpy's too), or a
    list (of lists) of them. A bool or a string is refused, never converted."""
    if isinstance(value, list):
        return [_json_float(v, name) for v in value]
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name}: {value!r} is not a number")
    return value


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
    def indexed(cls, size: int) -> "Domain":
        """Canonical domain ``{x0, x1, ..., x<size-1>}``."""
        if (size := _json_int(size, "size")) < 1:
            raise ValueError("domain must contain at least one atom")
        return _trusted(cls, atoms=tuple(f"x{i}" for i in range(size)))  # distinct strings: nothing to check

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.atoms)}

    @property
    def size(self) -> int:
        return len(self.atoms)

    def __len__(self) -> int:
        return self.size

    def index(self, atom: str) -> int:
        try:
            return self._positions[atom]
        except KeyError:
            raise KeyError(f"atom {atom!r} is not in the domain") from None


def _ragged_sums(values: np.ndarray, on=True) -> np.ndarray:
    """numpy's sum of each row of the 2-D ``values`` on its prefix of the mask ``on`` (``True``: whole rows), bit for
    bit, whatever lies past the prefix: a masked reduction hands numpy's summation loop each row's unmasked prefix as
    one run, which it sums from 0.0 in the pairwise tree of that run's length, as it sums the 1-D prefix."""
    return values.sum(axis=1, where=on)


def _run_sums(flat: np.ndarray, counts: np.ndarray, scratch=None) -> np.ndarray:
    """numpy's sum of each run of ``counts`` consecutive entries of the 1-D ``flat``, in an array of the counts' shape:
    runs of one length as a matrix's rows, others as :func:`_ragged_sums` of row prefixes of ``scratch`` or zeros."""
    if (counts == counts.flat[0]).all():
        return flat.reshape(*counts.shape, int(counts.flat[0])).sum(axis=-1)
    rows = np.zeros((counts.size, counts.max())) if scratch is None else scratch
    rows[on := np.arange(rows.shape[1]) < counts.reshape(-1, 1)] = flat
    return _ragged_sums(rows, on).reshape(counts.shape)


def _exact_unit_mass(mass: np.ndarray, on=True) -> np.ndarray:
    """Rescale ``mass`` in place so it sums to 1.0 up to at most one ulp: each row of a 2-D
    ``mass`` on its own, on its prefix of the mask ``on`` and zero past it, a 1-D one being one row.

    Each sum must lie within ``SUM_TOL`` of one. After dividing by it, the float re-sum can miss 1.0
    by a few ulp; folding the residual into the largest entry leaves it at 1.0 or, for about 6.5% of
    random gamma-weighted rows at m = 2-64, one ulp off. A second call rescales such a row and moves
    its bits, so a reader of written masses keeps them (:meth:`Distribution.from_dict`), never re-runs this.
    """
    rows = mass if mass.ndim == 2 else mass[None]
    if _unit_sums(totals := _ragged_sums(rows, on)):  # dividing by 1.0 and re-summing would change no bit
        return mass
    rows /= totals[:, None]
    index, residual = np.arange(len(rows)), _ragged_sums(rows, on) - 1.0  # the rows still off and their residuals
    for _ in range(4):
        if not len(off := np.flatnonzero(residual)):
            break
        # Only rows still off (the others would subtract 0.0), through a view if one run: no wide row is copied.
        index, residual = index[off], residual[off]
        at = slice(index[0], index[-1] + 1) if index[-1] - index[0] < len(index) else index
        live = rows[at]
        live[np.arange(len(live)), live.argmax(axis=1)] -= residual
        if not isinstance(at, slice):
            rows[at] = live
        residual = _ragged_sums(live, on if on is True else on[at]) - 1.0
    return mass


def _unit_sums(totals: np.ndarray) -> bool:
    """Whether the row sums ``totals`` are all exactly 1.0; a ``ValueError`` names the first that lies further than
    ``SUM_TOL``. A nan total lies no further, but makes the worst distance nan, so then each total is tested. One total,
    as each step of a bisection has, is tested as a float: three numpy calls cost it ten times as much."""
    worst = abs(totals.item() - 1.0) if totals.size == 1 else np.maximum.reduce(np.abs(totals - 1.0), initial=0.0)
    if not worst <= SUM_TOL and (off := np.abs(totals - 1.0) > SUM_TOL).any():
        raise ValueError(f"mass sums to {float(totals[off.argmax()])!r}, expected 1 within {SUM_TOL}")
    return bool(worst == 0.0)


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability mass function over a :class:`Domain`.

    The constructor accepts near-normalized mass (sum within ``SUM_TOL`` of
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
        # A sum that overflows is named by the unit-sum check.
        with np.errstate(over="ignore"):
            total = float(mass.sum())
            if not (math.isfinite(total) and mass.min() >= 0.0):
                if not np.isfinite(mass).all():
                    raise ValueError("invalid mass: entries must be finite")
                if (mass < 0.0).any():
                    raise ValueError("invalid mass: entries must be non-negative")
            _exact_unit_mass(mass).flags.writeable = False
        object.__setattr__(self, "mass", mass)

    @classmethod
    def _frozen(cls, domain: Domain, mass: np.ndarray) -> "Distribution":
        """Take ``mass``, already at unit mass as :func:`_exact_unit_mass` leaves it, read-only."""
        # Unchecked: the constructor would rescale a row left one ulp off and move its bits.
        mass.flags.writeable = False
        return _trusted(cls, domain=domain, mass=mass)

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
        """Inverse of :meth:`to_dict`, bit for bit: a valid mass within one ulp of unit sum is kept as written."""
        d = cls(Domain(tuple(data["atoms"])), mass := np.array(_json_float(data["mass"], "mass"), dtype=float))
        return cls._frozen(d.domain, mass) if abs(float(mass.sum()) - 1.0) <= math.ulp(1.0) else d

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
    if (w := np.asarray(weights, dtype=float)).shape != (domain.size,):
        raise ValueError(f"invalid mass: {w.shape[0] if w.ndim == 1 else w.shape} weights for {domain.size} atoms")
    return Distribution._frozen(domain, _unit_rows(w[None])[0])


def _unit_rows(weights: np.ndarray, on=True, out=None) -> np.ndarray:
    """Each row of the ``(n, m)`` weights over its sum (on its prefix of the mask ``on``), written into ``out`` (fresh
    if ``None``; it may be ``weights``) and made unit by :func:`_exact_unit_mass`: the one weight normalizer, checked in
    one fused pass, with the messages of :func:`make_distribution`."""
    with np.errstate(over="ignore"):
        totals = _ragged_sums(weights, on)
    if not (weights.min() >= 0.0 and ((0.0 < totals) & (totals < math.inf)).all()):
        if not np.isfinite(weights).all() or (weights < 0.0).any():
            raise ValueError("invalid mass: weights must be finite and non-negative")
        raise ValueError("degenerate: all weights are zero" if totals.min() == 0.0 else
                         "invalid mass: weights sum overflows the float range")
    return _exact_unit_mass(np.divide(weights, totals[:, None], out=out), on)


def _require_same_domain(p: Distribution, q: Distribution) -> None:
    if p.domain != q.domain:
        raise ValueError("distributions are defined on different domains")


def l1_distance(p: Distribution, q: Distribution) -> float:
    """Sum of pointwise absolute differences; twice the total variation.

    Always in ``[0, 2]``: 0 for identical distributions, 2 for disjoint
    supports.
    """
    _require_same_domain(p, q)
    return _l1_distance(p.mass, q.mass)


def _l1_distance(p: np.ndarray, q: np.ndarray, out=None, on=True):
    """:func:`l1_distance` of the masses ``p`` and ``q``; of ``(n, m)`` masses, row by row, on the mask ``on``."""
    diff = np.subtract(p, q, out=out)
    np.abs(diff, out=diff)
    l1 = diff.sum(axis=-1, where=on)
    return l1 if l1.ndim else float(l1)


def kl_divergence(p: Distribution, q: Distribution) -> float:
    """KL divergence from ``p`` to ``q`` in bits.

    ``sum_x p(x) * log2(p(x)/q(x))`` with ``0 log 0 := 0``; ``math.inf``
    when ``p`` puts mass outside the support of ``q``. Non-negative by
    Gibbs' inequality (float round-off is clamped at zero).
    """
    _require_same_domain(p, q)
    return _kl_on_support(p.mass, q.mass, p.mass > 0.0)


def _kl_on_support(p: np.ndarray, q: np.ndarray, support: np.ndarray, out=None):
    """:func:`kl_divergence` of the masses ``p`` and ``q``, ``support`` being ``p > 0`` (``None`` if all):
    a full one is summed in the scratch row ``out``, a partial one gathered (``q`` first, for an inf KL).

    Of ``(n, m)`` masses, an ``(n,)`` array: each row's support is gathered into one run of a flat array, so
    each row sums (:func:`_run_sums`) what its 1-D gather sums.
    """
    if p.ndim == 2:
        with np.errstate(divide="ignore"):  # a zero of q on the support: that row's KL is inf
            sums = _run_sums(_kl_terms(p[support], q[support]), np.count_nonzero(support, axis=1))
        kl = np.where(sums > 0.0, sums, 0.0)
        kl[np.count_nonzero(support & (q == 0.0), axis=1) > 0] = math.inf
        return kl
    full = support is None or bool(support.all())
    qs = q if full else q[support]
    if qs.min() == 0.0:  # q >= 0, so this finds a zero without a bool temporary
        return math.inf
    ps = p if full else p[support]
    return max(0.0, float(_kl_terms(ps, qs, out if full else None).sum()))


def _kl_terms(ps: np.ndarray, qs: np.ndarray, out=None) -> np.ndarray:
    """The terms ``ps * log2(ps / qs)`` of ``ps`` and ``qs`` gathered on the support (written into ``out`` if given)."""
    terms = np.divide(ps, qs, out=out)
    np.log2(terms, out=terms)
    terms *= ps
    return terms


def mixture(components: Sequence[tuple[float, Distribution]]) -> Distribution:
    """Convex combination of distributions sharing one domain."""
    if not components:
        raise ValueError("mixture needs at least one component")
    weights = np.asarray([w for w, _ in components], dtype=float)
    if np.any(weights < 0.0) or np.any(weights > 1.0):
        raise ValueError("mixture weights must lie in [0, 1]")
    if abs(float(weights.sum()) - 1.0) > SUM_TOL:
        raise ValueError(
            f"mixture weights sum to {float(weights.sum())!r}, expected 1 within {SUM_TOL}"
        )
    dists = [d for _, d in components]
    domain = dists[0].domain
    for d in dists[1:]:
        _require_same_domain(dists[0], d)
    combined = np.zeros(domain.size)
    for w, d in components:
        combined += w * d.mass
    return Distribution(domain, combined)


def _draw_indices(mass: np.ndarray, uniforms: np.ndarray, cdf=None) -> np.ndarray:
    """The indices into ``mass``, a validated pmf, that ``uniforms`` of any shape pick by inverse CDF.
    On ``rng.random(n)`` this is the arithmetic ``rng.choice(mass.size, size=n, p=mass)`` runs once
    it has validated ``p``: the same indices and generator state, without re-checking masses already
    checked. The CDF is built per call (into the row ``cdf`` if given), one call for many draws: a
    held copy costs m floats per class for the life of whatever holds it."""
    cdf = np.cumsum(mass, out=cdf)
    cdf /= cdf[-1]
    return cdf.searchsorted(uniforms, side="right")


def sample(d: Distribution, rng: np.random.Generator, n: int) -> list[str]:
    """Draw ``n`` i.i.d. atoms; deterministic given the generator state.

    Atoms are drawn by inverse CDF, the same algorithm and the same draws
    as ``rng.choice(m, size=n, p=d.mass)``.
    """
    if _json_int(n, "sample count") < 0:
        raise ValueError("sample count must be non-negative")
    if n == 0:
        return []
    atoms = d.domain.atoms
    return [atoms[i] for i in _draw_indices(d.mass, rng.random(n))]


@dataclass(frozen=True)
class QuantizedClassSpec:
    """The class of pmfs on ``domain`` whose masses are multiples of ``2**-bits_per_atom``.

    ``description_length`` is the bit length of the dense encoding, one
    ``bits_per_atom``-bit numerator per atom. At most 53 bits: the widest
    at which every numerator up to ``2**bits_per_atom`` is an exact float.
    """

    domain: Domain
    bits_per_atom: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits_per_atom", _json_int(self.bits_per_atom, "bits_per_atom"))
        if self.bits_per_atom < 1:
            raise ValueError("bits_per_atom must be a positive integer")
        if self.bits_per_atom > 53:
            raise ValueError(f"bits_per_atom must be at most 53, got {self.bits_per_atom}")

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
    return Distribution(spec.domain, _quantized_rows(rng, 1, spec.domain.size, spec.scale)[0])


# The random draws: each function makes one kind of draw for a whole block of rows in one generator call, kind after
# kind (a public generator's draws are a block of one). For integers, random, standard_gamma of an array of shapes, the
# normals, the exponentials and a 2-D multinomial, one such call gives the bits of the same calls made one after
# another and leaves the generator where they do.


def _quantized_rows(rng: np.random.Generator, n: int, m: int, scale: int) -> np.ndarray:
    """``n`` members of the quantized class of ``m`` atoms and denominator ``scale``, as rows: every row's
    ``rng.dirichlet(np.ones(m))`` (at alpha 1 ``standard_exponential(m)`` scaled by one over its sum taken in sequence),
    then every row's ``rng.multinomial(scale, ...)`` of it, over the scale; bit for bit, without the checks."""
    g = rng.standard_exponential((n, m))
    g *= 1.0 / np.add.accumulate(g, axis=1)[:, -1:]
    return rng.multinomial(scale, g) / scale


def _scaled(raw, lo: float, hi: float) -> np.ndarray:
    """``rng.uniform(lo, hi)`` of the ``rng.random()`` draws ``raw``, bit for bit: numpy draws it as
    ``lo + (hi - lo) * r``."""
    return lo + (hi - lo) * np.asarray(raw, dtype=float)


def _sources(rng: np.random.Generator, on: np.ndarray, ks: np.ndarray) -> tuple:
    """Labeled sources' draws, ``ks[i]`` class rows to source ``i`` of the prefix mask ``on``: every prior, a uniform
    on ``[0.05, 1)`` over its source's sum as numpy sums it; every source's gamma-shape index; then every class weight
    of its source's shape, plus ``1e-300``, on the mask and zero past it."""
    priors = _scaled(rng.random(len(on)), 0.05, 1.0)
    priors /= np.repeat(_run_sums(priors, ks), ks)
    shapes = np.repeat(np.array([0.3, 1.0, 3.0])[rng.integers(0, 3, len(ks))], ks)
    weights = np.zeros(on.shape)
    weights[on] = rng.standard_gamma(np.broadcast_to(shapes[:, None], on.shape)[on]) + 1e-300
    return priors, weights


def _moves(rng: np.random.Generator, on: np.ndarray, budget, floors: bool) -> tuple:
    """Perturbation draws of the class rows of the prefix mask ``on``: every row's L1 budget (``budget``, or if ``None``
    a raw uniform); the normal noise of every row whose budget is not zero and that has more than one atom, zero
    elsewhere; then, with ``floors``, every row's raw floor weight (zeros without)."""
    budgets = rng.random(len(on)) if budget is None else np.full(len(on), budget, dtype=float)
    noisy = on & ((budgets != 0.0) & (np.count_nonzero(on, axis=1) > 1))[:, None]
    noise = np.zeros(on.shape)
    noise[noisy] = rng.standard_normal(np.count_nonzero(noisy))
    return budgets, noise, rng.random(len(on)) if floors else np.zeros(len(on))


def _costs(rng: np.random.Generator, ks: np.ndarray) -> np.ndarray:
    """The read-only ``(n, w, w)`` costs of instances of ``ks`` classes (``w`` their largest), instance ``i``'s in its
    ``(ks[i], ks[i])`` corner, zero past it: every kind, then the random kinds' uniforms, row major into their corners.
    A kind is 0/1, uniform on ``[0, 1)`` with 1 added at ``[0, 1]``, or uniform on ``[0.1, 5)`` with a zero diagonal."""
    kinds, on = rng.integers(0, 3, len(ks)), np.arange(ks.max()) < ks[:, None]
    costs = np.zeros((corners := on[:, :, None] & on[:, None, :]).shape)
    costs[corners & (kinds != 0)[:, None, None]] = rng.random(int((ks * ks)[kinds != 0].sum()))  # [0, 1): r itself
    costs[two] = _scaled(costs[two := corners & (kinds == 2)[:, None, None]], 0.1, 5.0)
    costs[kinds == 0] = corners[kinds == 0]
    costs[kinds == 1, 0, 1] += 1.0
    costs.reshape(len(ks), -1)[kinds != 1, :: on.shape[1] + 1] = 0.0  # the diagonals of kinds 0 and 2
    costs.flags.writeable = False
    return costs
