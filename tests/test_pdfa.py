"""PDFA string distributions: path probabilities, truncation, encoding."""

import itertools
import json
import math
import tracemalloc
from bisect import bisect_right
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bayesrisk import pdfa
from bayesrisk.distributions import Distribution, Domain, l1_distance
from bayesrisk.pdfa import (
    OVERFLOW_ATOM,
    Pdfa,
    TruncatedStringDomain,
    decode,
    encode,
    encoding_length,
    header_length,
    payload_length,
    sample_string,
    string_probability,
    truncate,
    truncate_all,
)


def geometric():
    """Stop 1/2, emit 'a' 1/2: P(a^n) = 2**-(n+1)."""
    return Pdfa.build(("a",), 1, [(0.5, {"a": (0.5, 0)})])


def geometric_two_state():
    """Distribution-equal twin of geometric() with an extra state."""
    return Pdfa.build(
        ("a",), 1, [(0.5, {"a": (0.5, 1)}), (0.5, {"a": (0.5, 0)})]
    )


def point_mass():
    return Pdfa.build(("a",), 1, [(1.0, {})])


def empty_alphabet():
    return Pdfa.build((), 4, [(1.0, {})])


def two_symbol():
    return Pdfa.build(
        ("a", "b"),
        4,
        [
            (4 / 16, {"a": (6 / 16, 1), "b": (6 / 16, 0)}),
            (8 / 16, {"a": (4 / 16, 0), "b": (4 / 16, 1)}),
        ],
    )


def three_state():
    return Pdfa.build(
        ("a", "b"),
        8,
        [
            (64 / 256, {"a": (128 / 256, 1), "b": (64 / 256, 2)}),
            (128 / 256, {"a": (64 / 256, 2), "b": (64 / 256, 0)}),
            (192 / 256, {"b": (64 / 256, 1)}),
        ],
        initial=0,
    )


@st.composite
def small_machines(draw):
    """Random PDFA: 1-3 symbols, 1-3 states, 1-12 bits, some transitions missing."""
    alphabet = "abc"[: draw(st.integers(1, 3))]
    n = draw(st.integers(1, 3))
    precision = draw(st.integers(1, 12))
    scale = 1 << precision
    states = []
    for _ in range(n):
        cuts = sorted(draw(st.lists(st.integers(0, scale), min_size=len(alphabet), max_size=len(alphabet))))
        nums = np.diff([0, *cuts, scale])
        stop, trans = int(nums[0]), {}
        for sym, num in zip(alphabet, nums[1:]):
            if num == 0 or draw(st.booleans()):
                stop += int(num)  # a missing transition: its mass stops here instead
            else:
                trans[sym] = (int(num) / scale, draw(st.integers(0, n - 1)))
        assume(all(p < 1.0 for p, _ in trans.values()))
        states.append((stop / scale, trans))
    return Pdfa.build(alphabet, precision, states, initial=draw(st.integers(0, n - 1)))


def zoo():
    return {
        "geometric": geometric(),
        "geometric_two_state": geometric_two_state(),
        "point_mass": point_mass(),
        "empty_alphabet": empty_alphabet(),
        "two_symbol": two_symbol(),
        "three_state": three_state(),
    }


class TestValidation:
    def test_probabilities_must_be_quantized(self):
        with pytest.raises(ValueError, match="multiple"):
            Pdfa.build(("a",), 2, [(0.3, {"a": (0.7, 0)})])

    def test_state_mass_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            Pdfa.build(("a",), 2, [(0.25, {"a": (0.25, 0)})])

    def test_probability_one_transition_rejected(self):
        with pytest.raises(ValueError, match="cap"):
            Pdfa.build(("a",), 2, [(0.0, {"a": (1.0, 0)})])

    def test_target_out_of_range(self):
        with pytest.raises(ValueError, match="target"):
            Pdfa.build(("a",), 1, [(0.5, {"a": (0.5, 3)})])

    def test_multichar_symbols_rejected(self):
        with pytest.raises(ValueError, match="single characters"):
            Pdfa.build(("ab",), 1, [(0.5, {"ab": (0.5, 0)})])

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ValueError, match="unknown symbol 'b'"):
            Pdfa.build(("a",), 1, [(0.5, {"b": (0.5, 0)})])

    def test_direct_constructor_checks_the_table(self):
        assert Pdfa(("a",), 1, 0, (0.5,), (((0.5, 0),),)) == geometric()
        with pytest.raises(ValueError, match="one table entry per symbol"):
            Pdfa(("a", "b"), 1, 0, (0.5,), (((0.5, 0),),))
        with pytest.raises(ValueError, match="target 1 out of range"):
            # An absent transition on "b" must target state 0.
            Pdfa(("a", "b"), 1, 0, (0.5, 1.0), (((0.5, 1), (0.0, 1)), ((0.0, 0), (0.0, 0))))

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: Pdfa.build(("a",), 1, [(0.5, {"a": (0.5, 0.6)})]), id="build-target"),
            pytest.param(lambda: Pdfa.build(("a", "b"), 1, [(0.5, {"a": (0.5, 0), "b": (0.0, 0.5)})]),
                         id="build-absent-target"),
            pytest.param(lambda: Pdfa.build(("a",), 1.0, [(0.5, {"a": (0.5, 0)})]), id="build-precision"),
            pytest.param(lambda: Pdfa.build(("a",), 1, [(0.5, {"a": (0.5, 0)})], 0.0), id="build-initial"),
            pytest.param(lambda: Pdfa(("a",), 1, 0.0, (0.5,), (((0.5, 0),),)), id="initial"),
            pytest.param(lambda: Pdfa(("a",), True, 0, (0.5,), (((0.5, 0),),)), id="precision-bool"),
            pytest.param(lambda: Pdfa(("a",), 1, 0, (0.5,), (((0.5, 0.0),),)), id="target"),
        ],
    )
    def test_constructors_never_round_integer_fields(self, make):
        with pytest.raises(ValueError, match="must be an integer"):
            make()

    @pytest.mark.parametrize(
        "path, value",
        [
            (("n",), 1.0),
            (("n",), True),
            (("precision",), 2.0),
            (("initial",), 0.0),
            (("initial",), False),
            (("states", 0, "trans", "a", "to"), 0.6),
            (("states", 0, "trans", "a", "to"), 0.0),
        ],
    )
    def test_integer_fields_are_never_rounded(self, path, value):
        data = json.loads((DATA / "machine_half.json").read_text())
        Pdfa.from_dict(data)
        *parents, key = path
        inner = data
        for step in parents:
            inner = inner[step]
        inner[key] = value
        with pytest.raises(ValueError, match="must be an integer"):
            Pdfa.from_dict(data)


class TestStringProbability:
    def test_geometric_chain(self):
        assert string_probability(geometric(), "aa") == 0.125

    def test_empty_string(self):
        assert string_probability(geometric(), "") == 0.5

    def test_point_mass_machine(self):
        m = point_mass()
        assert string_probability(m, "") == 1.0
        assert string_probability(m, "a") == 0.0
        assert string_probability(m, "aaa") == 0.0

    def test_symbol_outside_alphabet(self):
        with pytest.raises(ValueError, match="outside alphabet"):
            string_probability(geometric(), "ab")


class TestTruncate:
    def test_geometric_tail_arithmetic(self):
        dist = truncate(geometric(), 2)
        assert dist.domain.atoms == ("", "a", "aa", OVERFLOW_ATOM)
        assert np.array_equal(dist.mass, [0.5, 0.25, 0.125, 0.125])

    def test_point_mass_has_no_overflow(self):
        dist = truncate(point_mass(), 3)
        assert dist.prob("") == 1.0
        assert dist.prob(OVERFLOW_ATOM) == 0.0

    def test_overflow_shrinks_with_length(self):
        m = geometric()
        overflow = [truncate(m, L).prob(OVERFLOW_ATOM) for L in range(1, 17)]
        assert all(a > b for a, b in zip(overflow, overflow[1:]))
        assert overflow[-1] == pytest.approx(2.0**-17, abs=1e-15)

    def test_zoo_truncations_are_unit_mass(self):
        for name, machine in zoo().items():
            L = 8 if len(machine.alphabet) > 1 else 12
            dist = truncate(machine, L)
            assert abs(float(dist.mass.sum()) - 1.0) <= 1e-12, name

    def test_enumeration_limit(self):
        with pytest.raises(ValueError, match="over limit"):
            truncate(two_symbol(), 25)

    def test_atom_cap_checked_before_enumeration(self, monkeypatch):
        class Tripwire(str):
            def __radd__(self, other):
                raise AssertionError("strings enumerated")

        alphabet = (Tripwire("a"), Tripwire("b"))
        with pytest.raises(AssertionError, match="enumerated"):
            TruncatedStringDomain.build(alphabet, 2).domain.atoms
        monkeypatch.setattr(pdfa, "DEFAULT_MAX_ATOMS", 100)
        with pytest.raises(ValueError, match="over limit"):
            TruncatedStringDomain.build(alphabet, 8)

        def no_masses(*args):
            raise AssertionError("masses computed")

        monkeypatch.setattr(pdfa, "_path_masses", no_masses)
        with pytest.raises(ValueError, match="over limit"):
            truncate(two_symbol(), 8)

    @given(small_machines(), st.integers(0, 6))
    @settings(max_examples=150, deadline=None)
    def test_every_atom_is_its_path_product(self, machine, max_len):
        dist = truncate(machine, max_len)
        raw = np.array([string_probability(machine, s) for s in dist.domain.atoms[:-1]])
        overflow = max(0.0, 1.0 - float(np.sum(raw)))
        # Distribution renormalizes; the masses are the path products it was given.
        expected = Distribution(dist.domain, np.append(raw, overflow)).mass
        assert dist.mass.tobytes() == expected.tobytes()
        if machine.precision * (max_len + 1) <= 53:
            # Every product and partial sum is an exact dyadic here, so the
            # total is exactly 1 and renormalization leaves each product as is.
            assert dist.mass[:-1].tobytes() == raw.tobytes()

    def test_truncate_all_shares_one_domain_per_alphabet(self):
        machines = [two_symbol(), three_state(), geometric()]
        dists = truncate_all(machines, 6)
        assert dists[0].domain is dists[1].domain
        assert dists[2].domain is not dists[0].domain
        for machine, dist in zip(machines, dists):
            alone = truncate(machine, 6)
            assert dist.domain == alone.domain
            assert dist.mass.tobytes() == alone.mass.tobytes()

    def test_atom_count_formula(self):
        for size, L in [(0, 4), (1, 6), (2, 5), (3, 4)]:
            expected = TruncatedStringDomain.atom_count(size, L)
            if size == 0:
                assert expected == 2
            else:
                assert expected == sum(size**i for i in range(L + 1)) + 1
        tsd = TruncatedStringDomain.build(("a", "b"), 5)
        assert tsd.domain.size == TruncatedStringDomain.atom_count(2, 5)

    def test_designed_equal_pair_matches_everywhere(self):
        a, b = geometric(), geometric_two_state()
        for L in (1, 2, 4, 8, 16):
            assert np.array_equal(truncate(a, L).mass, truncate(b, L).mass)

    def test_distinct_machines_differ(self):
        machines = zoo()
        equal_pair = {"geometric", "geometric_two_state"}
        unary = {n: m for n, m in machines.items() if m.alphabet == ("a",)}
        for (n1, m1), (n2, m2) in itertools.combinations(unary.items(), 2):
            dist = l1_distance(truncate(m1, 10), truncate(m2, 10))
            if {n1, n2} == equal_pair:
                assert dist == 0.0
            else:
                assert dist > 1e-6, (n1, n2)
        assert l1_distance(truncate(two_symbol(), 8), truncate(three_state(), 8)) > 1e-6


def eager_domain(alphabet, max_len):
    """The plain Domain of every string up to ``max_len`` in length-then-alphabet order, then ⊥."""
    strings = ("".join(s) for n in range(max_len + 1) for s in itertools.product(alphabet, repeat=n))
    return Domain((*strings, OVERFLOW_ATOM))


class TestLazyDomain:
    """A TruncatedStringDomain builds its strings only when they are read, and is otherwise the
    eager Domain of those strings."""

    @pytest.mark.parametrize("max_len", range(7))
    @pytest.mark.parametrize("alphabet", [("a",), ("b", "a"), ("a", "b", "c")])
    def test_matches_the_eager_domain(self, alphabet, max_len):
        eager = eager_domain(alphabet, max_len)
        lazy, twin = (TruncatedStringDomain.build(alphabet, max_len) for _ in range(2))
        assert lazy == twin and not lazy != twin
        assert lazy.size == len(lazy) == eager.size == len(eager)
        assert "atoms" not in vars(lazy) and "atoms" not in vars(twin)
        assert lazy == eager and eager == lazy and not (lazy != eager or eager != lazy)
        assert twin.atoms == eager.atoms
        assert hash(lazy) == hash(twin) == hash(eager)
        assert [lazy.index(atom) for atom in eager.atoms] == list(range(eager.size))
        assert lazy.domain is lazy

    def test_equal_exactly_when_the_atoms_are(self):
        """Symbol order and length decide equality, except where the atoms are "" and ⊥ alone."""
        keys = [(alphabet, L) for alphabet in [(), ("a",), ("b",), ("a", "b"), ("b", "a"), ("a", "b", "c")]
                for L in range(5)]
        for x, y in itertools.product(keys, repeat=2):
            lazy_x, lazy_y = TruncatedStringDomain.build(*x), TruncatedStringDomain.build(*y)
            assert (lazy_x == lazy_y) == (eager_domain(*x) == eager_domain(*y)), (x, y)
            assert "atoms" not in vars(lazy_x) and "atoms" not in vars(lazy_y)
        assert TruncatedStringDomain.build(("a", "b"), 3) != TruncatedStringDomain.build(("b", "a"), 3)


class TestSampleString:
    def test_point_mass_always_empty(self):
        rng = np.random.default_rng(0)
        assert all(sample_string(point_mass(), rng) == "" for _ in range(100))

    def test_deterministic_given_seed(self):
        a = [sample_string(geometric(), np.random.default_rng(5)) for _ in range(50)]
        b = [sample_string(geometric(), np.random.default_rng(5)) for _ in range(50)]
        assert a == b

    def test_geometric_empirical_frequency(self):
        rng = np.random.default_rng(99)
        n = 10**5
        hits = sum(sample_string(geometric(), rng) == "" for _ in range(n))
        assert abs(hits / n - 0.5) < 0.01

    def test_empirical_frequencies_match_exact_probabilities(self):
        # statistical acceptance band: 3 sigma plus a 1e-4 slop
        rng = np.random.default_rng(99)
        n = 10**6
        machine = geometric()
        counts: dict[str, int] = {}
        for _ in range(n):
            s = sample_string(machine, rng)
            counts[s] = counts.get(s, 0) + 1
        for length in range(5):
            s = "a" * length
            p = string_probability(machine, s)
            tol = 3.0 * math.sqrt(p * (1 - p) / n) + 1e-4
            assert abs(counts.get(s, 0) / n - p) <= tol

    @mock.patch.object(pdfa, "DEFAULT_EMISSION_CAP", 200)
    @given(small_machines(), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_draws_match_a_walk_over_the_present_transitions(self, machine, seed):
        def reference_walk(rng, cap):
            # Per state, bisect the cumulative stop-then-transition probabilities of the
            # transitions the machine has, one uniform per step.
            states = machine.to_dict()["states"]
            q, out = machine.initial, ""
            for _ in range(cap):
                hops = list(states[q]["trans"].items())
                ps = [states[q]["stop"], *(hop["p"] for _, hop in hops)]
                pick = bisect_right(list(itertools.accumulate(ps)), rng.random())
                if pick == 0:
                    return out
                sym, hop = hops[pick - 1]
                out, q = out + sym, hop["to"]
            return "runaway"

        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            try:
                drawn = sample_string(machine, ours)
            except RuntimeError:
                drawn = "runaway"
            assert drawn == reference_walk(theirs, 200)
        assert ours.random() == theirs.random()

    def test_runaway_generation_guard(self, monkeypatch):
        spinning = Pdfa.build(
            ("a", "b"), 1, [(0.0, {"a": (0.5, 0), "b": (0.5, 0)})]
        )
        monkeypatch.setattr(pdfa, "DEFAULT_EMISSION_CAP", 1000)
        with pytest.raises(RuntimeError, match="runaway"):
            sample_string(spinning, np.random.default_rng(0))


DATA = Path(__file__).parent / "data"


class TestEncoding:
    @pytest.mark.parametrize(
        "name, expected", [("machine_half", "a5031500"), ("machine_quarter", "a5031380")]
    )
    def test_pinned_bytes_of_data_machines(self, name, expected):
        machine = Pdfa.from_json((DATA / f"{name}.json").read_text())
        assert encode(machine).hex() == expected

    def test_payload_formula_minimal_machine(self):
        m = Pdfa.build(("a",), 8, [(128 / 256, {"a": (128 / 256, 0)})])
        assert payload_length(m) == 1 * (1 * (8 + 0) + 8)
        assert encoding_length(m) == header_length(m) + 16

    def test_empty_alphabet_payload(self):
        m = empty_alphabet()
        assert payload_length(m) == m.precision

    def test_round_trip_zoo(self):
        for name, machine in zoo().items():
            data = encode(machine)
            assert decode(data) == machine, name
            assert len(data) * 8 - encoding_length(machine) < 8

    def test_json_round_trip_zoo(self):
        for name, machine in zoo().items():
            assert Pdfa.from_json(machine.to_json()) == machine, name

    def test_polynomial_growth_when_doubling_states(self):
        ell = 6
        for n in (1, 2, 4, 8, 16, 32):
            chain = [
                (0.5, {"a": (0.25, (q + 1) % n), "b": (0.25, (q + 1) % n)})
                for q in range(n)
            ]
            small = Pdfa.build(("a", "b"), ell, chain)
            double = Pdfa.build(("a", "b"), ell, chain + chain)
            ratio = payload_length(double) / payload_length(small)
            assert ratio <= 2.0 * (1.0 + math.ceil(math.log2(2 * n)) / ell)

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"\x00",
            b"\xa5",
            encode(Pdfa.from_json((DATA / "machine_half.json").read_text()))[:-1],
        ],
        ids=["empty", "zero-byte", "header-only", "machine-half-cut"],
    )
    def test_truncated_input_is_corrupt_encoding(self, data):
        with pytest.raises(ValueError, match="corrupt encoding"):
            decode(data)

    @pytest.mark.parametrize("precision", [60, 2**27])
    def test_out_of_range_precision_is_corrupt_encoding(self, precision):
        # One state, no symbols, the claimed precision, then a 64-bit zero stop field.
        w = pdfa._BitWriter()
        for value in (1, 1, precision, 1):
            w.write_gamma(value)
        w.write(0, 64)
        data = w.to_bytes()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="corrupt encoding"):
                decode(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("code_point", [0x110000, 2**40])
    def test_out_of_range_symbol_is_corrupt_encoding(self, code_point):
        # One state, one symbol at the claimed code point, precision 1, initial state 0.
        w = pdfa._BitWriter()
        for value in (1, 2, 1, 1, code_point + 1):
            w.write_gamma(value)
        with pytest.raises(ValueError, match="corrupt encoding: symbol code point"):
            decode(w.to_bytes())

    def test_corruption_never_passes_silently(self):
        machine = two_symbol()
        data = bytearray(encode(machine))
        data[len(data) // 2] ^= 0xFF
        try:
            assert decode(bytes(data)) != machine
        except ValueError:
            pass
