"""Probabilistic deterministic finite automata as string-distribution sources.

A machine is one dense table: per state a stop probability and, per
symbol, a ``(probability, target)`` pair, ``(0.0, 0)`` where the state has
no transition on that symbol. Every probability is an integer multiple of
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
- payload, the table in fixed-width fields, state by state: the stop
  numerator modulo ``2**l`` (``l`` bits), then per symbol in alphabet
  order the entry's numerator (``l`` bits) and target (``ceil(log2 n)``
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
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .distributions import Distribution, Domain, _json_float, _json_int, _trusted

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
    """Quantized PDFA as a dense transition table.

    ``table[q][j]`` is the ``(probability, target)`` pair of state ``q``
    on ``alphabet[j]``, ``(0.0, 0)`` where the machine has no transition;
    ``stops[q]`` is the stop probability at state ``q``. Probabilities are
    exact dyadics with denominator ``2**precision``, so float equality
    between machines is exact.
    """

    alphabet: tuple[str, ...]
    precision: int
    initial: int
    stops: tuple[float, ...]
    table: tuple[tuple[tuple[float, int], ...], ...]

    def __post_init__(self) -> None:
        if not 1 <= _json_int(self.precision, "precision") <= 52:
            raise ValueError("precision must be between 1 and 52 bits")
        scale = 1 << self.precision
        _check_alphabet(self.alphabet)
        n = len(self.stops)
        if n < 1:
            raise ValueError("a machine needs at least one state")
        if not 0 <= _json_int(self.initial, "initial") < n:
            raise ValueError("initial state out of range")
        if len(self.table) != n:
            raise ValueError("one table row per state required")
        for q, (stop, row) in enumerate(zip(self.stops, self.table)):
            if len(row) != len(self.alphabet):
                raise ValueError(f"state {q} needs one table entry per symbol")
            total = self._numerator(stop, scale, f"stop probability of state {q}")
            for sym, (prob, target) in zip(self.alphabet, row):
                num = self._numerator(prob, scale, f"transition {q} --{sym}-->")
                # An absent transition (probability 0) targets state 0.
                if not 0 <= _json_int(target, f"transition {q} --{sym}--> target") < (n if num else 1):
                    raise ValueError(f"state {q} transition target {target} out of range")
                if num == scale:
                    raise ValueError(
                        f"transition {q} --{sym}--> has probability 1; cap is 1 - 2**-precision"
                    )
                total += num
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
        stops, table = [], []
        for q, (stop, trans) in enumerate(states):
            hops = {sym: (float(p), _json_int(to, "target")) for sym, (p, to) in trans.items()}
            hops = {sym: hop for sym, hop in hops.items() if hop[0] != 0.0}
            unknown = hops.keys() - set(alphabet)
            if unknown:
                raise ValueError(f"state {q} transitions on unknown symbol {min(unknown)!r}")
            stops.append(float(stop))
            table.append(tuple(hops.get(sym, (0.0, 0)) for sym in alphabet))
        return cls(alphabet, precision, initial, tuple(stops), tuple(table))

    @property
    def n(self) -> int:
        return len(self.stops)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "alphabet": list(self.alphabet),
            "precision": self.precision,
            "initial": self.initial,
            "states": [
                {
                    "stop": stop,
                    "trans": {s: {"p": p, "to": to} for s, (p, to) in zip(self.alphabet, row) if p},
                }
                for stop, row in zip(self.stops, self.table)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "Pdfa":
        states = [
            (
                _json_float(state["stop"], "stop"),
                {s: (_json_float(e["p"], f"transition p on {s!r}"), e["to"]) for s, e in state["trans"].items()},
            )
            for state in data["states"]
        ]
        machine = cls.build(tuple(data["alphabet"]), data["precision"], states, data["initial"])
        if machine.n != _json_int(data["n"], "n"):
            raise ValueError("state count field disagrees with the states list")
        return machine

    @classmethod
    def from_json(cls, text: str) -> "Pdfa":
        return cls.from_dict(json.loads(text))


def string_probability(a: Pdfa, s: str) -> float:
    """Probability that the machine generates ``s`` and stops: the float product along its path."""
    q = a.initial
    prob = 1.0
    for ch in s:
        if ch not in a.alphabet:
            raise ValueError(f"symbol outside alphabet: {ch!r}")
        p, q = a.table[q][a.alphabet.index(ch)]
        if p == 0.0:
            return 0.0
        prob *= p
    return prob * a.stops[q]


class TruncatedStringDomain(Domain):
    """All strings of length <= max_len plus the overflow atom, as a Domain.

    Strings are ordered by length, then lexicographically in alphabet
    order: the order in which :func:`truncate` lays out its masses, built
    when ``atoms``, ``index``, ``repr`` or ``hash`` first needs them. Two
    such domains compare by ``alphabet`` and ``max_len``, others by atoms.
    """

    @classmethod
    def build(cls, alphabet: Sequence[str], max_len: int) -> "TruncatedStringDomain":
        alphabet = tuple(alphabet)
        _check_alphabet(alphabet)
        if (max_len := _json_int(max_len, "max_len")) < 0:
            raise ValueError("max_len must be non-negative")
        count = cls.atom_count(len(alphabet), max_len)
        if count > DEFAULT_MAX_ATOMS:
            raise ValueError(
                f"enumeration over limit: {count} atoms exceeds the cap of {DEFAULT_MAX_ATOMS}"
            )
        return _trusted(cls, alphabet=alphabet, max_len=max_len)  # unchecked: checking would enumerate its atoms

    @cached_property
    def atoms(self) -> tuple[str, ...]:
        atoms, level = [""], [""]
        for _ in range(self.max_len):
            level = [prefix + sym for prefix in level for sym in self.alphabet]
            atoms.extend(level)
        # Strings over distinct single characters other than OVERFLOW_ATOM are distinct.
        return (*atoms, OVERFLOW_ATOM)

    domain = property(lambda self: self, doc="This domain: it is its own Domain.")

    @property
    def size(self) -> int:
        return self.atom_count(len(self.alphabet), self.max_len)

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncatedStringDomain):  # size 2 is "" and ⊥ alone, whatever the alphabet
            return self.size == other.size and (self.size == 2 or self.alphabet == other.alphabet)
        return self.atoms == other.atoms if isinstance(other, Domain) else NotImplemented

    __hash__ = Domain.__hash__

    @staticmethod
    def atom_count(alphabet_size: int, max_len: int) -> int:
        if alphabet_size == 1:
            return max_len + 2
        return (alphabet_size ** (max_len + 1) - 1) // (alphabet_size - 1) + 1


def _path_masses(a: Pdfa, max_len: int) -> np.ndarray:
    """Masses of all strings up to ``max_len``, level by level, then the overflow.

    A level holds one (state, path probability) pair per string of that
    length. The next level multiplies each path by every entry of its
    state's row of :attr:`Pdfa.table` (an absent transition's 0.0 and
    state 0 included), symbol ``j``'s products filling every ``width``-th
    entry from the ``j``-th, so each string's mass is the float product
    ``((1.0 * p1) * p2 ...) * stop``, in the order
    :func:`string_probability` multiplies.
    """
    width = len(a.alphabet)
    prob, target = np.array(a.table, dtype=float).reshape(a.n, width, 2).T  # one row per symbol
    target, stops = target.astype(np.intp), np.asarray(a.stops)
    mass = np.empty(TruncatedStringDomain.atom_count(width, max_len))
    states, paths, start = np.array([a.initial]), np.array([1.0]), 0
    for length in range(max_len + 1):
        np.multiply(paths, stops.take(states), out=mass[start : start + len(paths)])
        start += len(paths)
        if length < max_len:
            grown, moved = np.empty(width * len(paths)), np.empty(width * len(paths), np.intp)
            for j in range(width):
                np.multiply(paths, prob[j].take(states), out=grown[j::width])
                moved[j::width] = target[j].take(states)
            paths, states = grown, moved
    mass[-1] = max(0.0, 1.0 - float(np.sum(mass[:-1])))
    return mass


def truncate(a: Pdfa, max_len: int) -> Distribution:
    """Float-faithful distribution over strings of length <= max_len plus overflow mass.

    Each short string starts from its path product, bit for bit what
    :func:`string_probability` returns, and the overflow atom from the
    remaining mass; the :class:`Distribution` then renormalizes the whole
    vector to unit mass. Two machines truncated at the same length can be
    compared with any divergence.
    """
    return truncate_all((a,), max_len)[0]


def truncate_all(machines: Sequence[Pdfa], max_len: int) -> tuple[Distribution, ...]:
    """:func:`truncate` every machine at ``max_len``; machines over one alphabet share one Domain."""
    spaces = {a.alphabet: TruncatedStringDomain.build(a.alphabet, max_len) for a in machines}
    return tuple(Distribution(spaces[a.alphabet], _path_masses(a, max_len)) for a in machines)


def sample_string(a: Pdfa, rng: np.random.Generator) -> str:
    """One random walk through the machine; deterministic given the generator.

    Each step draws one uniform ``u`` and takes the first outcome (stop,
    then the symbols in alphabet order) whose cumulative probability
    exceeds ``u``. The running sums are exact dyadics that end at exactly
    1, so an absent transition, adding 0.0, is never taken.
    """
    q = a.initial
    out: list[str] = []
    for _ in range(DEFAULT_EMISSION_CAP):
        u = rng.random()
        acc = a.stops[q]
        if u < acc:
            return "".join(out)
        for sym, (p, target) in zip(a.alphabet, a.table[q]):
            acc += p
            if u < acc:
                break
        out.append(sym)
        q = target
    raise RuntimeError(f"runaway generation: no stop within {DEFAULT_EMISSION_CAP} emissions")


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
    """Big-endian bit string read from the front: the unread bits as an int plus their count."""

    def __init__(self, data: bytes) -> None:
        self.size = 8 * len(data)
        self.rest = int.from_bytes(data, "big")
        self.left = self.size

    def read(self, width: int) -> int:
        """The next ``width`` bits, most significant first."""
        if width > self.left:
            raise ValueError(f"corrupt encoding: data ends at bit {self.size}")
        self.left -= width
        value = self.rest >> self.left
        self.rest &= (1 << self.left) - 1
        return value

    def read_gamma(self) -> int:
        # The zero run is the unread bits above the first one: width - 1 zeros, then
        # value's width bits. With no one bit left the read runs past the end.
        return self.read(2 * (self.left - self.rest.bit_length()) + 1)


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
    for stop, row in zip(a.stops, a.table):
        w.write(int(round(stop * scale)) % scale, a.precision)
        for p, target in row:
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
    codes = [r.read_gamma() - 1 for _ in range(alpha_size)]
    if codes and max(codes) > sys.maxunicode:
        raise ValueError(f"corrupt encoding: symbol code point {max(codes):#x} outside Unicode")
    alphabet = tuple(map(chr, codes))
    scale = 1 << precision
    target_bits = _log2_ceil(n)
    stops, table = [], []
    for q in range(n):
        stop_field = r.read(precision)
        row = [(r.read(precision), r.read(target_bits)) for _ in alphabet]
        stop_num = scale - sum(num for num, _ in row)
        if stop_num < 0 or stop_num % scale != stop_field:
            raise ValueError(f"corrupt encoding: stop field mismatch at state {q}")
        stops.append(stop_num / scale)
        table.append(tuple((num / scale, target if num else 0) for num, target in row))
    return Pdfa(alphabet, precision, initial, tuple(stops), tuple(table))
