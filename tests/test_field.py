from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cachewright.errors import (
    DivisionByZero,
    EvenModulus,
    LengthMismatch,
    NotPrime,
    SymbolOutOfByteRange,
)
from cachewright.field import (
    coded_to_wire,
    decode_bytes,
    default_modulus,
    encode_bytes,
    is_prime,
    make_field,
    vec_add,
    vec_combine,
    vec_scale,
    vec_sub,
    wire_to_coded,
)


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


def test_default_modulus():
    assert default_modulus(4) == 257
    assert default_modulus(256) == 257
    assert default_modulus(300) == 307
    assert default_modulus(257) == 263


def test_inverse_of_two_mod_257():
    fld = make_field(257)
    assert fld.inv(2) == 129
    assert fld.mul(2, 129) == 1


def test_inverse_property_random():
    fld = make_field(257)
    rng = random.Random(7)
    for _ in range(200):
        a = rng.randrange(1, 257)
        assert fld.mul(a, fld.inv(a)) == 1
    with pytest.raises(DivisionByZero):
        fld.inv(0)


def test_additive_identity_and_neg():
    fld = make_field(257)
    for a in (0, 1, 77, 256):
        assert fld.add(a, 0) == a
        assert fld.add(a, fld.neg(a)) == 0


def test_scale_rational():
    fld = make_field(257)
    assert fld.scale_rational(10, Fraction(1, 1)) == 10
    assert fld.scale_rational(10, Fraction(1, 2)) == 5
    assert fld.scale_rational(3, Fraction(-1, 2)) == fld.neg(fld.mul(3, 129))
    # every divisor the scheme can produce is invertible when p > K
    for v in range(1, 257):
        assert fld.mul(fld.scale_rational(7, Fraction(1, v)), v) == 7
    with pytest.raises(DivisionByZero):
        fld.scale_rational(1, Fraction(1, 257))


def test_byte_round_trip():
    fld = make_field(257)
    assert encode_bytes(b"", fld) == ()
    assert decode_bytes(()) == b""
    assert encode_bytes(b"\x00\xff", fld) == (0, 255)
    assert decode_bytes((0, 255)) == b"\x00\xff"
    rng = random.Random(11)
    for _ in range(50):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(200)))
        assert decode_bytes(encode_bytes(blob, fld)) == blob


def test_decode_rejects_coded_symbols():
    with pytest.raises(SymbolOutOfByteRange):
        decode_bytes((256,))


def test_encode_needs_wide_modulus():
    with pytest.raises(SymbolOutOfByteRange):
        encode_bytes(b"x", make_field(251))


def test_coded_wire_round_trip():
    symbols = (0, 1, 255, 256, 65535)
    wire = coded_to_wire(symbols)
    assert len(wire) == 2 * len(symbols)
    assert wire[:4] == b"\x00\x00\x00\x01"
    assert wire_to_coded(wire) == symbols
    with pytest.raises(SymbolOutOfByteRange):
        coded_to_wire((65536,))
    with pytest.raises(SymbolOutOfByteRange):
        wire_to_coded(b"\x01")


def test_vector_helpers():
    fld = make_field(5)
    assert vec_add(fld, (1, 4), (4, 4)) == (0, 3)
    assert vec_sub(fld, (0, 1), (1, 4)) == (4, 2)
    assert vec_scale(fld, (1, 2, 3), 3) == (3, 1, 4)


@pytest.mark.parametrize("p", [5, 257])
def test_vec_combine_matches_reference(p):
    fld = make_field(p)
    rng = random.Random(f"vec-combine-{p}")
    coefs = [-p - 3, -2 * p, -1, 0, 1, 2, p - 1, p, p + 1, 3 * p + 2]
    for trial in range(200):
        length = rng.randrange(0, 9)
        count = rng.randrange(1, 6)
        terms = [(rng.choice(coefs) if trial % 2 else rng.randrange(-3 * p, 3 * p),
                  tuple(rng.randrange(p) for _ in range(length))) for _ in range(count)]
        expected = (0,) * length
        for c, v in terms:
            if c < 0:
                expected = vec_sub(fld, expected, vec_scale(fld, v, -c % p))
            else:
                expected = vec_add(fld, expected, vec_scale(fld, v, c % p))
        assert vec_combine(fld, terms) == expected
        assert vec_combine(fld, iter(terms)) == expected


def test_vec_combine_rejects_unequal_lengths():
    fld = make_field(5)
    with pytest.raises(LengthMismatch):
        vec_combine(fld, [(1, (1, 2)), (2, (3,))])
    with pytest.raises(LengthMismatch):
        vec_combine(fld, [(1, (1,)), (-1, (1,)), (3, (1, 2))])
