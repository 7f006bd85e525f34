from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachewright import field
from cachewright.errors import (
    DivisionByZero,
    EvenModulus,
    LengthMismatch,
    NotPrime,
    SymbolOutOfByteRange,
)
from cachewright.field import (Lanes, coded_to_wire, default_modulus, is_prime, join_bytes,
                               make_field)

from reference_field import in_one_slot, vec_add, vec_scale, vec_sub
from test_packed import _assert_bounded, _bounded, _raw


def test_make_field_accepts_odd_primes():
    assert make_field(257).p == 257
    assert make_field(3).p == 3


def test_make_field_rejects_composite():
    with pytest.raises(NotPrime):
        make_field(4)
    with pytest.raises(NotPrime):
        make_field(1)


def test_make_field_rejects_two():
    with pytest.raises(EvenModulus):
        make_field(2)


def test_is_prime_against_trial_division():
    def slow(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, int(n ** 0.5) + 1))

    for n in range(2000):
        assert is_prime(n) == slow(n), n


# the least strong pseudoprimes to the first 12 and the first 13 prime bases
PSI_12 = 318_665_857_834_031_151_167_461  # 399,165,290,221 x 798,330,580,441
PSI_13 = 3_317_044_064_679_887_385_961_981


def test_the_least_strong_pseudoprimes_to_bases_up_to_37_and_41_are_refused():
    assert 399_165_290_221 * 798_330_580_441 == PSI_12 and not is_prime(PSI_12)
    with pytest.raises(NotPrime, match=f"^{PSI_12} is not prime$"):
        make_field(PSI_12)
    for p in (PSI_13, 2 ** 89 - 1):  # the Mersenne prime 2**89 - 1 is too large to prove
        with pytest.raises(NotPrime, match=f"^{p} is not below {PSI_13}, so it cannot be"):
            make_field(p)
    assert make_field(2 ** 61 - 1).p == 2 ** 61 - 1


def test_default_modulus():
    assert default_modulus(4) == 257
    assert default_modulus(256) == 257
    assert default_modulus(300) == 307
    assert default_modulus(257) == 263


def test_inverse_of_two_mod_257():
    fld = make_field(257)
    assert fld.inv(2) == 129
    assert 2 * 129 % 257 == 1


def test_inverse_property_random():
    fld = make_field(257)
    rng = random.Random(7)
    for _ in range(200):
        a = rng.randrange(1, 257)
        assert a * fld.inv(a) % 257 == 1
    # every divisor the scheme can produce is invertible when p > K
    assert all(v * fld.inv(v) % 257 == 1 for v in range(1, 257))
    with pytest.raises(DivisionByZero):
        fld.inv(0)


def test_byte_round_trip():
    fld = make_field(257)
    assert fld.split(b"", 1) == ([(0,)], 1)
    assert join_bytes(((),)) == b""
    assert fld.split(b"\x00\xff", 1) == ([(0, 255)], 2)
    assert join_bytes(((0, 255),)) == b"\x00\xff"
    rng = random.Random(11)
    for _ in range(50):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(200)))
        parts, _ = fld.split(blob, rng.randrange(1, 4))
        assert join_bytes(parts)[:len(blob)] == blob


def test_decode_rejects_coded_symbols():
    with pytest.raises(SymbolOutOfByteRange):
        join_bytes(((256,),))


@pytest.mark.parametrize("bad", [256, -1])
def test_decode_names_the_first_symbol_outside_a_byte(bad):
    rng = random.Random(3)
    symbols = [rng.randrange(256) for _ in range(5000)]
    symbols[4321] = bad
    symbols[4500] = 1000
    message = f"^symbol {bad} is not a byte; content is coded$"
    with pytest.raises(SymbolOutOfByteRange, match=message):
        join_bytes((symbols,))


def test_decode_of_valid_symbols_is_the_plain_bytes():
    rng = random.Random(4)
    symbols = [rng.randrange(256) for _ in range(5000)]
    assert join_bytes((symbols,)) == bytes(bytearray(symbols))
    assert join_bytes((tuple(symbols),)) == bytes(bytearray(symbols))


def test_encode_needs_wide_modulus():
    with pytest.raises(SymbolOutOfByteRange):
        make_field(251).split(b"x", 1)
    assert make_field(251).split((250, 0, 7), 2) == ([(250, 0), (7, 0)], 2)


def test_coded_wire_round_trip():
    symbols = (0, 1, 255, 256, 65535)
    wire = coded_to_wire(symbols)
    assert len(wire) == 2 * len(symbols)
    assert wire[:4] == b"\x00\x00\x00\x01"
    assert tuple(int.from_bytes(wire[i:i + 2], "big") for i in range(0, len(wire), 2)) == symbols
    with pytest.raises(SymbolOutOfByteRange):
        coded_to_wire((65536,))


def test_vector_helpers():
    fld = make_field(5)
    assert vec_add(fld, (1, 4), (4, 4)) == (0, 3)
    assert vec_sub(fld, (0, 1), (1, 4)) == (4, 2)
    assert vec_scale(fld, (1, 2, 3), 3) == (3, 1, 4)


def _reference(fld, terms):
    """The sum of c * v over the terms, one vec_add or vec_sub at a time."""
    p = fld.p
    expected = (0,) * len(terms[0][1])
    for c, v in terms:
        if c < 0:
            expected = vec_sub(fld, expected, vec_scale(fld, v, -c % p))
        else:
            expected = vec_add(fld, expected, vec_scale(fld, v, c % p))
    return expected


def _coefs(p):
    return [-p - 3, -2 * p, -1, 0, 1, 2, p - 1, p, p + 1, 3 * p + 2]


@pytest.mark.parametrize("p", [5, 257])
def test_vec_combine_matches_reference(p):
    fld = make_field(p)
    rng = random.Random(f"vec-combine-{p}")
    for trial in range(200):
        length = rng.randrange(0, 9)
        count = rng.randrange(1, 6)
        terms = [(rng.choice(_coefs(p)) if trial % 2 else rng.randrange(-3 * p, 3 * p),
                  tuple(rng.randrange(p) for _ in range(length))) for _ in range(count)]
        expected = _reference(fld, terms)
        assert fld.combine(*in_one_slot(terms)) == expected
        assert fld.combine(*in_one_slot(iter(terms))) == expected


@pytest.mark.parametrize("length", [63, 64, 65, 1000, 5462])
def test_vec_combine_long_vectors_at_257_match_reference(length):
    fld = make_field(257)
    rng = random.Random(f"vec-combine-long-{length}")
    for count in (1, 2, 7, 300):
        terms = [(rng.choice(_coefs(257)) if i % 2 else rng.randrange(-771, 771),
                  tuple(rng.choices((0, 256, *range(257)), k=length)))
                 for i in range(count)]
        expected = _reference(fld, terms)
        assert fld.combine(*in_one_slot(terms)) == expected
        assert fld.combine(*in_one_slot(iter(terms))) == expected
        assert fld.combine(*in_one_slot([(c, fld.pack(v)) for c, v in terms])) == expected


@pytest.mark.parametrize("length", [64, 1000])
@pytest.mark.parametrize("entry", [-1, 512, 2 ** 32 - 1, 2 ** 32])
def test_entries_outside_the_lane_invariant_take_the_list_path(length, entry):
    # one tuple term, here with an entry no lane could hold, sends its Lanes neighbours there too
    fld = make_field(257)
    terms = [(-1, fld.pack((1,) * length)), (256, (entry,) + (511,) * (length - 1)),
             (256, fld.pack((3,) * length))]
    result = fld.combine(*in_one_slot(terms))
    assert not isinstance(result, Lanes)
    assert result == _reference(fld, terms)


def _every_folded_value():
    """Lanes that the 16-bit fold takes to hi + lo, one lane per value up to 2 * 0xFFFF, so
    they exercise every later step; and 0, a sum of 128 terms of 256 * 511, and 2**32 - 1."""
    lanes = [(t - min(t, 0xFFFF) << 16) + min(t, 0xFFFF) for t in range(2 * 0xFFFF + 1)]
    return lanes + [0, 256 * 511 * 128, 2 ** 32 - 1]


def test_lane_reduction_covers_every_folded_value():
    lanes = _every_folded_value()
    assert _bounded(lanes) == tuple(x % 257 for x in lanes)
    low = range(2 ** 17)  # a bound below 2**17 takes the same fold
    assert _bounded(low) == tuple(x % 257 for x in low)


def test_a_sum_whose_bound_crosses_2_32_folds_its_terms_and_matches_the_list_path():
    fld, lanes = make_field(257), _every_folded_value()
    big, small = _bounded(lanes), _bounded([x % 65537 for x in lanes])
    symbols = tuple(i % 257 for i in range(len(lanes)))
    terms = [(1, big), (-3, small), (2 ** 40 + 3, big), (1, fld.pack(symbols))]
    assert sum(c % 257 * v.bound for c, v in terms) >= 2 ** 32  # the first sum may carry
    result = field._combine_packed(*in_one_slot(terms))
    _assert_bounded(result)
    # summed again from canonical terms: each term was made canonical in place, bound 256,
    # so the sum's bound is 256 * sum (c mod 257)
    assert result.bound == 256 * sum(c % 257 for c, _ in terms)
    assert _raw(big) == [x % 257 for x in lanes] and big.bound == 256
    assert _raw(small) == [x % 65537 % 257 for x in lanes] and small.bound == 256
    assert big == tuple(x % 257 for x in lanes)
    by_list = field._combine_list(257, [(1, lanes), (-3, [x % 65537 for x in lanes]),
                                        (2 ** 40 + 3, lanes), (1, symbols)])
    assert result == by_list
    assert fld.combine(*in_one_slot(terms)) == by_list


def test_packed_kernel_holds_at_its_term_limit():
    # every term 256 times lanes spread over the folded values, at the largest bound any
    # Lanes carries, in all 65,535 terms
    fld = make_field(257)
    lanes = _every_folded_value()[::10000] + [2 ** 32 - 1]
    terms = [(256, _bounded(lanes))] * field._PACKED_MAX_TERMS
    expected = tuple(field._PACKED_MAX_TERMS * 256 * x % 257 for x in lanes)
    result = field._combine_packed(*in_one_slot(terms))
    assert isinstance(result, Lanes)
    _assert_bounded(result)
    assert result == expected
    assert fld.combine(*in_one_slot(terms)) == expected
    # one term more goes to the list path, with the same answer
    terms.append((1, fld.pack((1,) * len(lanes))))
    result = fld.combine(*in_one_slot(terms))
    assert not isinstance(result, Lanes)
    assert result == tuple((e + 1) % 257 for e in expected)


@settings(deadline=None)
@given(st.data())
def test_packed_and_list_paths_agree(data):
    # the raw lanes of each term: canonical symbols, or any lanes below 2**32
    length = data.draw(st.integers(1, 80))
    wide = data.draw(st.booleans())
    entries = st.integers(0, 2 ** 32 - 1) if wide else st.integers(0, 256)
    raw = data.draw(st.lists(st.tuples(st.integers(), st.tuples(*[entries] * length)),
                             min_size=1, max_size=6))
    by_list = field._combine_list(257, raw)
    result = field._combine_packed(*in_one_slot([(c, _bounded(v)) for c, v in raw]))
    _assert_bounded(result)
    assert result == by_list
    assert make_field(257).combine(*in_one_slot([(c, _bounded(v)) for c, v in raw])) == by_list


def test_vec_combine_reads_bytes_like_vectors_as_symbols():
    fld = make_field(257)
    terms = [(3, bytes(range(100, 200))), (-1, bytearray(range(100))), (1, (256,) * 100)]
    assert fld.combine(*in_one_slot(terms)) == _reference(fld, terms)
    # four bytes per machine word, so a packed read would see 25 small lanes
    terms = [(1, (256,) * 100), (2, b"\x07\x00\x00\x00" * 25)]
    assert fld.combine(*in_one_slot(terms)) == _reference(fld, terms)


def test_vec_combine_takes_the_packed_path_at_257_at_every_length(monkeypatch):
    calls = []

    def spy(step, slots):
        _, (slot, key) = step[0]
        calls.append(len(slots[slot][key]))
        return kernel(step, slots)

    kernel = field._combine_packed
    monkeypatch.setattr(field, "_combine_packed", spy)
    for p in (263, 65537):
        fld = make_field(p)
        long_terms = [(2, fld.pack(range(200))), (-1, fld.pack(range(200)))]
        assert fld.combine(*in_one_slot(long_terms)) == _reference(fld, long_terms)
    assert calls == []
    f257 = make_field(257)
    for n in (0, 1, 5, 6, 200):
        assert f257.combine(*in_one_slot([(1, f257.pack((5,) * n))] * 2)) == (10,) * n
    assert calls == [0, 1, 5, 6, 200]


@pytest.mark.parametrize("n", [0, 1, 5, 6, 1000])
def test_combine_returns_lanes_exactly_when_every_term_is_lanes(n):
    fld = make_field(257)
    rng = random.Random(f"lanes-rule-{n}")
    symbols = [tuple(rng.choices(range(257), k=n)) for _ in range(3)]
    packed = [fld.pack(v) for v in symbols]
    assert all(isinstance(v, Lanes) for v in packed)
    for forms in itertools.product((packed, symbols), repeat=3):
        terms = [(c, form[i]) for i, (c, form) in enumerate(zip((3, -1, 256), forms))]
        result = fld.combine(*in_one_slot(terms))
        assert isinstance(result, Lanes) == all(isinstance(v, Lanes) for _, v in terms)
        assert result == _reference(fld, terms)


def test_vec_combine_rejects_unequal_lengths():
    fld = make_field(5)
    with pytest.raises(LengthMismatch):
        fld.combine(*in_one_slot([(1, (1, 2)), (2, (3,))]))
    with pytest.raises(LengthMismatch):
        fld.combine(*in_one_slot([(1, (1,)), (-1, (1,)), (3, (1, 2))]))


def test_vec_combine_rejects_unequal_lengths_on_the_packed_path():
    fld = make_field(257)
    with pytest.raises(LengthMismatch, match="lengths 100 and 99"):
        fld.combine(*in_one_slot([(1, fld.pack((1,) * 100)), (2, fld.pack((3,) * 100)),
                                  (1, fld.pack((1,) * 99))]))
    with pytest.raises(LengthMismatch, match="lengths 64 and 65"):
        fld.combine(*in_one_slot(iter([(1, fld.pack((1,) * 64)), (1, fld.pack((1,) * 65))])))


def test_vec_combine_needs_a_term():
    with pytest.raises(LengthMismatch, match="no vectors"):
        make_field(257).combine(*in_one_slot(iter(())))
