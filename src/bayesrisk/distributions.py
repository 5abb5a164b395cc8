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
from functools import cached_property, lru_cache, partial
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
    def indexed(cls, size: int, prefix: str = "x") -> "Domain":
        """Canonical domain ``{x0, x1, ..., x<size-1>}``."""
        return cls(tuple(f"{prefix}{i}" for i in range(_json_int(size, "size"))))

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


def _sorted_set(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of the non-empty 1-D ``values``, without its first call's import of numpy.ma."""
    ordered = np.sort(values)
    return ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]


# numpy sums a float row of more than _LEAF entries as the sum of its first n // 2 entries, rounded down to
# a multiple of _LANES, plus the sum of the rest; a leaf, a row of at most _LEAF, it sums in _LANES
# interleaved accumulators (Higham, Accuracy and Stability of Numerical Algorithms, section 4.2).
_LEAF, _LANES = 128, 8


@lru_cache(maxsize=16)  # an experiment sums rows of two lengths, m and k * m
def _pairwise_tree(n: int, built=None):
    """numpy's summation tree of a float row of length ``n``: its height, and its leaves' starts, lengths
    and slots in a perfect binary tree of that height, summed pairwise level by level. A subtree less tall
    than its level takes the left half below it; the free slots hold 0.0, which adds no bit to any sum of
    numpy's, never -0.0 (its sums start from 0.0). Subtrees are built once each into ``built``, not kept."""
    built = {} if built is None else built
    if n <= _LEAF:
        built[n] = 0, np.zeros(1, int), np.array([n]), np.zeros(1, int)
    elif n not in built:
        half = n // 2 // _LANES * _LANES
        (left, *lows), (right, *highs) = (_pairwise_tree.__wrapped__(size, built) for size in (half, n - half))
        height = max(left, right) + 1
        offsets = np.array([[half], [0], [1 << height - 1]])
        built[n] = height, *(np.concatenate(pair) for pair in zip(lows, highs + offsets))
    return built[n]


# A sum rebuilt from leaf sums costs about what a full pass over _TREE_ATOMS atoms costs, plus _LEAF_PASSES
# atoms of a full pass for each atom of the leaves it sums afresh (the unit-mass, L1 and cost-risk sums of
# 32,768-262,144 entries, each timed rebuilt against full pass on a 2-CPU VM).
_TREE_ATOMS, _LEAF_PASSES = 1 << 16, 6


def _few_leaves(n: int, atoms: np.ndarray):
    """The leaves of numpy's summation tree of a length-``n`` row that hold the sorted ``atoms``, each once, if
    summing them afresh costs less than a full pass over the row; else ``None``, found first from the
    ``_LEAF``-atom blocks the atoms meet, as a leaf meets at most two."""
    most = (n - _TREE_ATOMS) // (_LEAF_PASSES * _LEAF)
    if most < 1 or np.count_nonzero((blocks := atoms // _LEAF)[1:] != blocks[:-1]) >= 2 * most:
        return None
    starts = _pairwise_tree(n)[1]
    held = np.zeros(len(starts), bool)
    held[starts.searchsorted(atoms, "right") - 1] = True
    leaves = held.nonzero()[0]
    return leaves if len(leaves) <= most else None


def _leaf_sums(n: int, entries, leaves=None, out=None) -> np.ndarray:
    """numpy's sums of the ``leaves`` (every leaf if ``None``) of a length-``n`` float row, written at their
    slots into ``out`` (zeros if ``None``), which is returned. ``entries`` is the row, or gives it on 64
    leaves of one length at a time as ``entries(starts, length)``, a leaf a row."""
    height, starts, lengths, slots = _pairwise_tree(n)
    leaves = np.arange(len(starts)) if leaves is None else leaves
    out = np.zeros(1 << height) if out is None else out
    entries = entries if callable(entries) else partial(_on_leaves, entries)
    for length in set(lengths[leaves].tolist()):
        group = leaves[lengths[leaves] == length]
        for part in (group[i : i + 64] for i in range(0, len(group), 64)):
            out[slots[part]] = entries(starts[part], length).sum(axis=1)
    return out


def _tree_sum(sums: np.ndarray) -> float:
    """numpy's sum of the row whose leaf sums, at their slots, are ``sums``."""
    while len(sums) > 1:
        sums = sums[::2] + sums[1::2]
    return float(sums[0])


def _on_leaves(row: np.ndarray, starts: np.ndarray, length: int) -> np.ndarray:
    """The contiguous 1-D ``row`` on the runs of ``length`` atoms at ``starts``, a run a row."""
    return np.ndarray((row.size - length + 1, length), row.dtype, row, 0, row.strides * 2)[starts]


def _exact_unit_mass(mass: np.ndarray, at=slice(None)) -> np.ndarray:
    """Rescale ``mass`` in place so it sums to 1.0 up to at most one ulp: each row of a 2-D
    ``mass`` on its own, a 1-D one being one row.

    Each sum must lie within ``SUM_TOL`` of one. After dividing by it, the float re-sum can miss 1.0
    by a few ulp; folding the residual into the largest entry leaves it at 1.0 or, for about 6.5% of
    random gamma-weighted rows at m = 2-64, one ulp off. A second call rescales such a row and moves
    its bits, so a reader of written masses keeps them (:meth:`Distribution.from_dict`), never re-runs this.
    Given the sorted atoms ``at`` of every positive entry of a 1-D ``mass``, it divides and searches only
    there, and sums only their leaves of numpy's summation tree when :func:`_few_leaves` finds them few:
    every other leaf sums to zero.
    """
    rows = mass if mass.ndim == 2 else mass[None]
    leaves = None if isinstance(at, slice) else _few_leaves(mass.size, at)
    if leaves is None:
        row_sums = lambda _: rows.sum(axis=1)
    else:  # a leaf is summed again once changed
        sums = np.zeros(1 << _pairwise_tree(mass.size)[0])
        row_sums = lambda changed: np.array([_tree_sum(_leaf_sums(mass.size, mass, changed, sums))])
    totals = row_sums(leaves)
    for total in (listed := totals.tolist()):  # cheaper than numpy calls for the few rows of most calls
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"mass sums to {total!r}, expected 1 within {SUM_TOL}")
    if listed.count(1.0) == len(listed):  # dividing by 1.0 and re-summing would change no bit
        return mass
    if isinstance(at, slice):
        rows /= totals[:, None]
    else:  # the zeros elsewhere would divide to zeros
        rows[:, at] /= totals[:, None]
    changed = leaves
    for _ in range(4):
        residual = row_sums(changed) - 1.0
        if not np.count_nonzero(residual):
            break
        top = rows[:, at].argmax(axis=1)
        top = top if isinstance(at, slice) else at[top]
        rows[np.arange(len(rows)), top] -= residual
        changed = None if leaves is None else _few_leaves(mass.size, top)  # one leaf, never too many
    return mass


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


def _unit_rows(weights: np.ndarray) -> np.ndarray:
    """Each row of the ``(n, m)`` weights over its sum, fresh and made unit by :func:`_exact_unit_mass`:
    the one weight normalizer, checked in one fused pass and raising :func:`make_distribution`'s messages."""
    with np.errstate(over="ignore"):
        totals = weights.sum(axis=1)
    if not (weights.min() >= 0.0 and all(0.0 < total < math.inf for total in totals.tolist())):
        if not np.isfinite(weights).all() or (weights < 0.0).any():
            raise ValueError("invalid mass: weights must be finite and non-negative")
        raise ValueError("degenerate: all weights are zero" if totals.min() == 0.0 else
                         "invalid mass: weights sum overflows the float range")
    return _exact_unit_mass(weights / totals[:, None])


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


def _l1_distance(p: np.ndarray, q: np.ndarray, out=None, at=slice(None), base=None):
    """:func:`l1_distance` of the masses ``p`` and ``q``; of ``(n, m)`` masses, row by row. Outside
    the atom set ``at`` of a 1-D ``q`` it is zero and ``|p - q|`` is ``p``, whose leaf sums
    (:func:`_leaf_sums`) are ``base``: only ``at``'s leaves are summed afresh if :func:`_few_leaves` finds them
    few, else the row summed is the same."""
    if isinstance(at, slice):
        diff = np.subtract(p, q, out=out)
        np.abs(diff, out=diff)
    elif (leaves := _few_leaves(p.size, at)) is not None:
        on_leaves = lambda starts, length: np.abs(_on_leaves(p, starts, length) - _on_leaves(q, starts, length))
        return _tree_sum(_leaf_sums(p.size, on_leaves, leaves, base.copy()))
    else:
        diff = np.abs(p, out=out)
        diff[at] = np.abs(p[at] - q[at])
    l1 = diff.sum(axis=-1)
    return l1 if l1.ndim else float(l1)


def kl_divergence(p: Distribution, q: Distribution) -> float:
    """KL divergence from ``p`` to ``q`` in bits.

    ``sum_x p(x) * log2(p(x)/q(x))`` with ``0 log 0 := 0``; ``math.inf``
    when ``p`` puts mass outside the support of ``q``. Non-negative by
    Gibbs' inequality (float round-off is clamped at zero).
    """
    _require_same_domain(p, q)
    return _kl_on_support(p.mass, q.mass, p.mass > 0.0)


def _kl_on_support(p: np.ndarray, q: np.ndarray, support: np.ndarray, out=None, at=slice(None), size=None):
    """:func:`kl_divergence` of the masses ``p`` and ``q``, ``support`` being ``p > 0`` (``None`` if all):
    a full one is summed in the scratch row ``out``, a partial one gathered (``q`` first, for an inf KL).
    An array ``at``, atoms outside which ``q`` is zero, with fewer atoms than the support's ``size``, makes
    the KL inf unread: some atom of the support has ``q = 0``.

    Of ``(n, m)`` masses, an ``(n,)`` array: rows of one support size are gathered into one
    ``(rows, size)`` block, so each row sums what its 1-D gather sums.
    """
    if p.ndim == 2:
        sizes = support.sum(axis=1)
        kl = np.full(len(p), math.inf)
        for size in sorted(set(sizes.tolist())):  # np.unique would import numpy.ma
            rows = sizes == size
            on = support if rows.all() else support & rows[:, None]
            ps, qs = p[on].reshape(-1, size), q[on].reshape(-1, size)
            finite = qs.min(axis=1) > 0.0
            sums = _kl_sum(ps, qs) if finite.all() else _kl_sum(ps[finite], qs[finite])
            kl[np.flatnonzero(rows)[finite]] = np.where(sums > 0.0, sums, 0.0)
        return kl
    if not isinstance(at, slice) and size > len(at):
        return math.inf
    full = support is None or bool(support.all())
    qs = q if full else q[support]
    if qs.min() == 0.0:  # q >= 0, so this finds a zero without a bool temporary
        return math.inf
    ps = p if full else p[support]
    return max(0.0, float(_kl_sum(ps, qs, out if full else None)))


def _kl_sum(ps: np.ndarray, qs: np.ndarray, out=None):
    """``sum(ps * log2(ps / qs))`` over the last axis, for ``ps`` and ``qs`` gathered with ``qs > 0``."""
    terms = np.divide(ps, qs, out=out)
    np.log2(terms, out=terms)
    terms *= ps
    return terms.sum(axis=-1)


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
    return Distribution(spec.domain, _draw_numerators(spec, rng) / spec.scale)


def _draw_numerators(spec: QuantizedClassSpec, rng: np.random.Generator) -> np.ndarray:
    """:func:`random_quantized`'s draws: a Dirichlet shape, then the numerators over it."""
    return rng.multinomial(spec.scale, rng.dirichlet(np.ones(spec.domain.size)))
