"""The packed form of long F_257 vectors: Lanes from split to decoded bytes."""

from __future__ import annotations

import random
import sys
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachewright import field
from cachewright.baselines import MAN
from cachewright.errors import SymbolOutOfByteRange
from cachewright.field import (
    Lanes,
    encode_bytes,
    join_bytes,
    make_field,
    vec_combine,
)
from cachewright.model import NetworkConfig, split_file, split_symbols

from reference_field import vec_add, vec_scale

F257 = make_field(257)


def _lanes(symbols):
    """Lanes holding the given symbols in [0, 257), built the way the program builds them."""
    data = bytes(min(s, 255) for s in symbols)
    packed = field.pack_bytes(data, F257, 1, len(symbols))[0]
    bump = tuple(int(s == 256) for s in symbols)
    return vec_combine(F257, [(1, packed), (1, bump)])


def man_split(data, cfg):
    return MAN.split(data, cfg)


def _reference(terms):
    expected = (0,) * len(terms[0][1])
    for c, v in terms:
        expected = vec_add(F257, expected, vec_scale(F257, tuple(v), c % 257))
    return expected


@pytest.mark.parametrize("scheme, split, count", [
    ("new", split_file, 12),
    ("man", man_split, 4),
])
@pytest.mark.parametrize("size", [63, 64, 65, "padded"])
def test_split_at_257_equals_the_symbol_split(scheme, split, count, size):
    cfg = NetworkConfig(3, 4)
    length = 64 * count - 5 if size == "padded" else size * count
    data = random.Random(f"split-{scheme}-{size}").randbytes(length)
    keys = None if scheme == "new" else range(1, 5)
    expected = split_symbols(encode_bytes(data, cfg.field), cfg, len(data), keys)
    grid = split(data, cfg)
    assert grid.subfile_len == expected.subfile_len
    assert grid.original_length == expected.original_length == length
    assert list(grid.parts) == list(expected.parts)
    for key, part in grid.parts.items():
        assert isinstance(part, Lanes) == (grid.subfile_len >= 64)
        assert part == expected.parts[key]
        assert expected.parts[key] == part
        assert list(part) == list(expected.parts[key])


def test_lanes_read_as_the_tuple_of_their_symbols():
    symbols = tuple(random.Random(5).choices(range(257), k=100))
    lanes = _lanes(symbols)
    assert isinstance(lanes, Lanes)
    assert lanes == symbols and symbols == lanes
    assert not (lanes != symbols) and not (symbols != lanes)
    assert len(lanes) == 100
    assert tuple(iter(lanes)) == symbols
    assert [lanes[i] for i in (0, 17, 99, -1)] == [symbols[i] for i in (0, 17, 99, -1)]
    assert lanes[10:20] == symbols[10:20]
    assert lanes == _lanes(symbols)
    shorter, changed = symbols[:-1], symbols[:50] + ((symbols[50] + 1) % 257,) + symbols[51:]
    for other in (shorter, changed, _lanes(shorter), _lanes(changed)):
        assert lanes != other and other != lanes
        assert not (lanes == other) and not (other == lanes)
    assert lanes != list(symbols)
    # a trailing zero lane leaves the packed int as it is; only the length differs
    padded = _lanes(symbols + (0,))
    assert padded.value == lanes.value
    assert padded != lanes and lanes != padded


def test_lanes_bytes_are_the_low_bytes_and_refuse_256():
    symbols = tuple(random.Random(6).choices(range(256), k=300))
    assert bytes(_lanes(symbols)) == bytes(symbols)
    with pytest.raises(ValueError):
        bytes(_lanes(symbols[:299] + (256,)))


@pytest.mark.parametrize("bad", [-1, 512])
def test_mixed_terms_match_the_list_path(bad):
    rng = random.Random(f"mixed-{bad}")
    packed = _lanes(tuple(rng.choices(range(257), k=200)))
    plain = tuple(rng.choices(range(512), k=200))
    breaking = (bad,) + plain[1:]
    for terms in ([(3, packed), (-1, plain), (256, packed)],
                  [(1, plain), (2, packed)],
                  [(5, packed), (7, breaking), (-2, packed)],
                  [(1, breaking), (1, packed)]):
        by_list = field._combine_list(257, terms[0][0], tuple(terms[0][1]),
                                      [(c, tuple(v)) for c, v in terms[1:]])
        assert vec_combine(F257, terms) == by_list == _reference(terms)


@settings(deadline=None)
@given(st.data())
def test_every_packed_result_keeps_its_lanes_below_257(data):
    length = data.draw(st.integers(64, 90))
    vectors = st.one_of(st.tuples(*[st.integers(0, 511)] * length),
                        st.tuples(*[st.integers(0, 256)] * length).map(_lanes))
    terms = data.draw(st.lists(st.tuples(st.integers(-2 ** 40, 2 ** 40), vectors),
                               min_size=1, max_size=6))
    result = vec_combine(F257, terms)
    assert isinstance(result, Lanes)
    lanes = array(field._LANE)
    lanes.frombytes(result.value.to_bytes(4 * result.n, sys.byteorder))
    assert all(0 <= x < 257 for x in lanes)
    assert result == _reference(terms)


def test_join_bytes_names_the_first_lane_outside_a_byte():
    rng = random.Random(3)
    symbols = [rng.randrange(256) for _ in range(5000)]
    symbols[4321] = 256
    symbols[4500] = 1000
    pieces = [_lanes(tuple(symbols[:2000])), _lanes(tuple(symbols[2000:4400])),
              tuple(symbols[4400:])]
    with pytest.raises(SymbolOutOfByteRange) as from_symbols:
        join_bytes((symbols,))
    message = "^symbol 256 is not a byte; content is coded$"
    with pytest.raises(SymbolOutOfByteRange, match=message) as from_lanes:
        join_bytes(pieces)
    assert str(from_lanes.value) == str(from_symbols.value)
    symbols[4321] = symbols[4500] = 7  # and with every symbol a byte, the bytes themselves
    assert join_bytes([_lanes(tuple(symbols[:2000])), tuple(symbols[2000:])]) == bytes(symbols)
