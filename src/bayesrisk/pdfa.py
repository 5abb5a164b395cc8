"""Probabilistic deterministic finite automata as string-distribution sources.

A machine has one deterministic target per (state, symbol), a stop
probability per state, and every probability is an integer multiple of
``2**-precision``. Generation walks from the initial state, at each state
stopping with the stop probability or emitting a symbol and moving on.
The probability of a string is the product of its unique path's
transition probabilities times the stop probability at the final state.

Truncation to a finite domain keeps every string of length at most L as
its own atom and aggregates all longer strings into one overflow atom
"⊥", preserving total mass so divergences between two machines truncated
at the same L stay faithful. Truncated masses are float-faithful, not
exact: each string starts from the float product along its path (the
value :func:`string_probability` returns), and the resulting
:class:`Distribution` then renormalizes the products and the overflow
to unit mass.

Canonical binary encoding (so "polynomial description length" is a
checkable formula and a round-trip property):

- header, self-delimiting Elias-gamma integers: state count ``n``,
  alphabet size plus one, precision ``l``, initial state plus one, then
  each symbol's code point plus one;
- payload, fixed-width fields per state in order: the stop numerator
  modulo ``2**l`` (``l`` bits), then per symbol in alphabet order the
  transition numerator (``l`` bits) and target state (``ceil(log2 n)``
  bits, zero bits when ``n == 1``).

The payload is decodable because numerators at each state sum to
``2**l`` exactly, so the stop numerator is derived from the transition
numerators; the stored stop field doubles as an integrity check. To keep
every transition numerator inside ``l`` bits, transition probabilities
are capped at ``1 - 2**-precision`` (a probability-1 transition would
make the state non-halting anyway); stop probabilities may still be 0
or 1.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .distributions import Distribution, Domain, _trusted

OVERFLOW_ATOM = "⊥"
DEFAULT_MAX_ATOMS = 1 << 20
DEFAULT_EMISSION_CAP = 10**6


def _check_alphabet(alphabet: tuple[str, ...]) -> None:
    if len(set(alphabet)) != len(alphabet):
        raise ValueError("alphabet symbols must be unique")
    for sym in alphabet:
        if len(sym) != 1:
            raise ValueError(f"alphabet symbols must be single characters, got {sym!r}")
        if sym == OVERFLOW_ATOM:
            raise ValueError(f"alphabet may not contain the overflow atom {OVERFLOW_ATOM!r}")


def _log2_ceil(n: int) -> int:
    return 0 if n <= 1 else (n - 1).bit_length()


@dataclass(frozen=True)
class Pdfa:
    """Quantized PDFA in canonical form (zero-probability transitions dropped).

    ``transitions[q]`` is a tuple of ``(symbol, probability, target)``
    triples in alphabet order; ``stops[q]`` is the stop probability at
    state ``q``. Probabilities are exact dyadics with denominator
    ``2**precision``, so float equality between machines is exact.
    """

    alphabet: tuple[str, ...]
    precision: int
    initial: int
    stops: tuple[float, ...]
    transitions: tuple[tuple[tuple[str, float, int], ...], ...]

    def __post_init__(self) -> None:
        if not 1 <= self.precision <= 52:
            raise ValueError("precision must be between 1 and 52 bits")
        scale = 1 << self.precision
        _check_alphabet(self.alphabet)
        n = len(self.stops)
        if n < 1:
            raise ValueError("a machine needs at least one state")
        if not 0 <= self.initial < n:
            raise ValueError("initial state out of range")
        if len(self.transitions) != n:
            raise ValueError("one transition table per state required")
        order = {sym: i for i, sym in enumerate(self.alphabet)}
        for q, (stop, trans) in enumerate(zip(self.stops, self.transitions)):
            total = self._numerator(stop, scale, f"stop probability of state {q}")
            seen = []
            for sym, prob, target in trans:
                if sym not in order:
                    raise ValueError(f"state {q} transitions on unknown symbol {sym!r}")
                if not 0 <= target < n:
                    raise ValueError(f"state {q} transition target {target} out of range")
                num = self._numerator(prob, scale, f"transition {q} --{sym}-->")
                if num == 0:
                    raise ValueError("zero-probability transitions must be omitted")
                if num == scale:
                    raise ValueError(
                        f"transition {q} --{sym}--> has probability 1; cap is 1 - 2**-precision"
                    )
                seen.append(order[sym])
                total += num
            if seen != sorted(seen) or len(set(seen)) != len(seen):
                raise ValueError(f"state {q} transitions must be unique and in alphabet order")
            if total != scale:
                raise ValueError(
                    f"state {q} probabilities sum to {total}/{scale}, expected exactly 1"
                )

    @staticmethod
    def _numerator(p: float, scale: int, what: str) -> int:
        v = p * scale
        if not (math.isfinite(v) and 0.0 <= p <= 1.0 and v == round(v)):
            raise ValueError(f"{what}: {p!r} is not a multiple of 1/{scale} in [0, 1]")
        return int(round(v))

    @classmethod
    def build(
        cls,
        alphabet: Sequence[str],
        precision: int,
        states: Sequence[tuple[float, Mapping[str, tuple[float, int]]]],
        initial: int = 0,
    ) -> "Pdfa":
        """Construct from per-state ``(stop, {symbol: (prob, target)})`` entries."""
        alphabet = tuple(alphabet)
        order = {sym: i for i, sym in enumerate(alphabet)}
        stops = []
        tables = []
        for stop, trans in states:
            stops.append(float(stop))
            rows = [
                (sym, float(p), int(target))
                for sym, (p, target) in trans.items()
                if float(p) != 0.0
            ]
            rows.sort(key=lambda row: order.get(row[0], len(alphabet)))
            tables.append(tuple(rows))
        return cls(alphabet, precision, initial, tuple(stops), tuple(tables))

    @property
    def n(self) -> int:
        return len(self.stops)

    @cached_property
    def _trans_maps(self) -> tuple[dict[str, tuple[float, int]], ...]:
        return tuple(
            {sym: (p, target) for sym, p, target in trans} for trans in self.transitions
        )

    @cached_property
    def _samplers(self) -> tuple[tuple[list[float], list[tuple[str, int] | None]], ...]:
        # Per state: cumulative outcome probabilities; outcome None means stop.
        samplers = []
        for stop, trans in zip(self.stops, self.transitions):
            outcomes: list[tuple[str, int] | None] = [None]
            cum = [stop]
            acc = stop
            for sym, p, target in trans:
                acc += p
                outcomes.append((sym, target))
                cum.append(acc)
            samplers.append((cum, outcomes))
        return tuple(samplers)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "alphabet": list(self.alphabet),
            "precision": self.precision,
            "initial": self.initial,
            "states": [
                {
                    "stop": stop,
                    "trans": {sym: {"p": p, "to": target} for sym, p, target in trans},
                }
                for stop, trans in zip(self.stops, self.transitions)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "Pdfa":
        states = [
            (
                state["stop"],
                {sym: (entry["p"], entry["to"]) for sym, entry in state["trans"].items()},
            )
            for state in data["states"]
        ]
        machine = cls.build(tuple(data["alphabet"]), data["precision"], states, data["initial"])
        if machine.n != data["n"]:
            raise ValueError("state count field disagrees with the states list")
        return machine

    @classmethod
    def from_json(cls, text: str) -> "Pdfa":
        return cls.from_dict(json.loads(text))


def string_probability(a: Pdfa, s: str) -> float:
    """Probability that the machine generates ``s`` and stops: the float product along its path."""
    q = a.initial
    prob = 1.0
    maps = a._trans_maps
    symbols = set(a.alphabet)
    for ch in s:
        if ch not in symbols:
            raise ValueError(f"symbol outside alphabet: {ch!r}")
        hop = maps[q].get(ch)
        if hop is None:
            return 0.0
        p, q = hop[0], hop[1]
        prob *= p
    return prob * a.stops[q]


@dataclass(frozen=True)
class TruncatedStringDomain:
    """All strings of length <= max_len plus the overflow atom, as a Domain.

    Strings are ordered by length, then lexicographically in alphabet
    order: the order in which :func:`truncate` lays out its masses.
    """

    alphabet: tuple[str, ...]
    max_len: int
    domain: Domain

    @classmethod
    def build(
        cls, alphabet: Sequence[str], max_len: int, max_atoms: int = DEFAULT_MAX_ATOMS
    ) -> "TruncatedStringDomain":
        alphabet = tuple(alphabet)
        _check_alphabet(alphabet)
        if max_len < 0:
            raise ValueError("max_len must be non-negative")
        count = cls.atom_count(len(alphabet), max_len)
        if count > max_atoms:
            raise ValueError(
                f"enumeration over limit: {count} atoms exceeds the cap of {max_atoms}"
            )
        atoms = [""]
        level = [""]
        for _ in range(max_len):
            level = [prefix + sym for prefix in level for sym in alphabet]
            atoms.extend(level)
        atoms.append(OVERFLOW_ATOM)
        # Strings over distinct single characters other than OVERFLOW_ATOM are distinct.
        return cls(alphabet, max_len, _trusted(Domain, atoms=tuple(atoms)))

    @staticmethod
    def atom_count(alphabet_size: int, max_len: int) -> int:
        if alphabet_size == 0:
            return 2
        if alphabet_size == 1:
            return max_len + 2
        return (alphabet_size ** (max_len + 1) - 1) // (alphabet_size - 1) + 1


def _path_masses(a: Pdfa, max_len: int) -> np.ndarray:
    """Masses of all strings up to ``max_len``, level by level, then the overflow.

    A level holds one (state, path probability) pair per string of that
    length. The next level multiplies each path by every symbol's
    transition probability (0.0 and the same state where the machine has
    no transition), so each string's mass is the float product
    ``((1.0 * p1) * p2 ...) * stop``, in the order
    :func:`string_probability` multiplies.
    """
    size = len(a.alphabet)
    prob = np.zeros((a.n, size))
    target = np.repeat(np.arange(a.n)[:, None], size, axis=1)
    for q, table in enumerate(a._trans_maps):
        for j, sym in enumerate(a.alphabet):
            if sym in table:
                prob[q, j], target[q, j] = table[sym]
    stops = np.asarray(a.stops)
    states = np.array([a.initial])
    paths = np.array([1.0])
    levels = []
    for length in range(max_len + 1):
        levels.append(paths * stops[states])
        if length < max_len:
            paths = (paths[:, None] * prob[states]).ravel()
            states = target[states].ravel()
    mass = np.concatenate(levels)
    return np.append(mass, max(0.0, 1.0 - float(np.sum(mass))))


def truncate(a: Pdfa, max_len: int, max_atoms: int = DEFAULT_MAX_ATOMS) -> Distribution:
    """Float-faithful distribution over strings of length <= max_len plus overflow mass.

    Each short string starts from its path product, bit for bit what
    :func:`string_probability` returns, and the overflow atom from the
    remaining mass; the :class:`Distribution` then renormalizes the whole
    vector to unit mass. Two machines truncated at the same length can be
    compared with any divergence.
    """
    return truncate_all((a,), max_len, max_atoms)[0]


def truncate_all(
    machines: Sequence[Pdfa], max_len: int, max_atoms: int = DEFAULT_MAX_ATOMS
) -> tuple[Distribution, ...]:
    """:func:`truncate` every machine at ``max_len``; machines over one alphabet share one Domain."""
    spaces: dict[tuple[str, ...], TruncatedStringDomain] = {}
    dists = []
    for a in machines:
        if a.alphabet not in spaces:
            spaces[a.alphabet] = TruncatedStringDomain.build(a.alphabet, max_len, max_atoms)
        dists.append(Distribution(spaces[a.alphabet].domain, _path_masses(a, max_len)))
    return tuple(dists)


def sample_string(
    a: Pdfa, rng: np.random.Generator, emission_cap: int = DEFAULT_EMISSION_CAP
) -> str:
    """One random walk through the machine; deterministic given the generator."""
    q = a.initial
    out: list[str] = []
    samplers = a._samplers
    for _ in range(emission_cap):
        cum, outcomes = samplers[q]
        pick = outcomes[min(bisect_right(cum, rng.random()), len(outcomes) - 1)]
        if pick is None:
            return "".join(out)
        out.append(pick[0])
        q = pick[1]
    raise RuntimeError(f"runaway generation: no stop within {emission_cap} emissions")


# ---------------------------------------------------------------------------
# Canonical bit encoding
# ---------------------------------------------------------------------------


class _BitWriter:
    """Big-endian bit string held as an int accumulator plus its bit count."""

    def __init__(self) -> None:
        self.value = 0
        self.length = 0

    def write(self, value: int, width: int) -> None:
        """Append the low ``width`` bits of ``value``, most significant first."""
        self.value = (self.value << width) | (value & ((1 << width) - 1))
        self.length += width

    def write_gamma(self, value: int) -> None:
        if value < 1:
            raise ValueError("Elias gamma encodes positive integers only")
        # width - 1 zero bits, then value's width bits: value in 2 * width - 1 bits.
        self.write(value, 2 * value.bit_length() - 1)

    def to_bytes(self) -> bytes:
        pad = -self.length % 8
        return (self.value << pad).to_bytes((self.length + pad) // 8, "big")


class _BitReader:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def read(self, width: int) -> int:
        if self.pos + width > 8 * len(self.data):
            raise ValueError(f"corrupt encoding: data ends at bit {8 * len(self.data)}")
        value = 0
        for _ in range(width):
            byte = self.data[self.pos >> 3]
            value = (value << 1) | ((byte >> (7 - (self.pos & 7))) & 1)
            self.pos += 1
        return value

    def read_gamma(self) -> int:
        zeros = 0
        while self.read(1) == 0:
            zeros += 1
        rest = self.read(zeros) if zeros else 0
        return (1 << zeros) | rest


def _gamma_bits(value: int) -> int:
    return 2 * value.bit_length() - 1


def header_length(a: Pdfa) -> int:
    """Bit length of the self-delimiting header, symbol table included."""
    bits = (
        _gamma_bits(a.n)
        + _gamma_bits(len(a.alphabet) + 1)
        + _gamma_bits(a.precision)
        + _gamma_bits(a.initial + 1)
    )
    return bits + sum(_gamma_bits(ord(sym) + 1) for sym in a.alphabet)


def payload_length(a: Pdfa) -> int:
    """Fixed-width state table: ``n * (|alphabet| * (l + ceil(log2 n)) + l)`` bits."""
    l = a.precision
    return a.n * (len(a.alphabet) * (l + _log2_ceil(a.n)) + l)


def encoding_length(a: Pdfa) -> int:
    """Exact bit length of the canonical encoding; polynomial in n, |alphabet|, l."""
    return header_length(a) + payload_length(a)


def encode(a: Pdfa) -> bytes:
    """Canonical encoding, ``encoding_length(a)`` bits padded to whole bytes."""
    w = _BitWriter()
    w.write_gamma(a.n)
    w.write_gamma(len(a.alphabet) + 1)
    w.write_gamma(a.precision)
    w.write_gamma(a.initial + 1)
    for sym in a.alphabet:
        w.write_gamma(ord(sym) + 1)
    scale = 1 << a.precision
    target_bits = _log2_ceil(a.n)
    for stop, table in zip(a.stops, a._trans_maps):
        w.write(int(round(stop * scale)) % scale, a.precision)
        for sym in a.alphabet:
            p, target = table.get(sym, (0.0, 0))
            w.write(int(round(p * scale)), a.precision)
            w.write(target, target_bits)
    assert w.length == encoding_length(a)
    return w.to_bytes()


def decode(data: bytes) -> Pdfa:
    """Inverse of :func:`encode`; validates the redundant stop field."""
    r = _BitReader(data)
    n = r.read_gamma()
    alpha_size = r.read_gamma() - 1
    precision = r.read_gamma()
    if not 1 <= precision <= 52:
        raise ValueError(f"corrupt encoding: precision {precision} outside 1..52 bits")
    initial = r.read_gamma() - 1
    alphabet = tuple(chr(r.read_gamma() - 1) for _ in range(alpha_size))
    scale = 1 << precision
    target_bits = _log2_ceil(n)
    states = []
    for q in range(n):
        stop_field = r.read(precision)
        trans: dict[str, tuple[float, int]] = {}
        total = 0
        for sym in alphabet:
            num = r.read(precision)
            target = r.read(target_bits) if target_bits else 0
            total += num
            if num:
                trans[sym] = (num / scale, target)
        stop_num = scale - total
        if stop_num < 0 or stop_num % scale != stop_field:
            raise ValueError(f"corrupt encoding: stop field mismatch at state {q}")
        states.append((stop_num / scale, trans))
    return Pdfa.build(alphabet, precision, states, initial)
