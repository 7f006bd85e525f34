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
from cachewright.errors import ConfigMismatch, LengthMismatch, SymbolOutOfByteRange
from cachewright.field import Lanes, join_bytes, make_field
from cachewright.model import NetworkConfig, pair_order, split_file

from reference_field import in_one_slot, vec_add, vec_scale

F257 = make_field(257)


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
@pytest.mark.parametrize("size", [0, 1, 5, 6, 63, 64, 65, "padded"])
def test_split_at_257_equals_the_symbol_split(scheme, split, count, size):
    cfg = NetworkConfig(3, 4)
    length = 64 * count - 5 if size == "padded" else size * count
    data = random.Random(f"split-{scheme}-{size}").randbytes(length)
    keys = pair_order(4) if scheme == "new" else range(1, 5)
    # the symbol split by hand, as tuples, apart from FieldCtx.split and the packed kernel
    n = max(1, -(-length // count))
    padded = tuple(data) + (0,) * (n * count - length)
    expected = [padded[i:i + n] for i in range(0, n * count, n)]
    grid = split(data, cfg)
    assert grid.subfile_len == n
    assert grid.original_length == length
    assert list(grid.parts) == list(keys)
    from_symbols = split_file(tuple(data), cfg, keys)
    assert (from_symbols.subfile_len, from_symbols.original_length) == (n, length)
    for part, symbols, want in zip(grid.parts.values(), from_symbols.parts.values(), expected):
        for got in (part, symbols):
            assert isinstance(got, Lanes)
            assert got == want
            assert want == got
            assert list(got) == list(want)


@pytest.mark.parametrize("p", [257, 7, 263, 65537])
def test_pack_round_trips_and_packs_every_length_only_at_257(p):
    fld, rng = make_field(p), random.Random(f"pack-{p}")
    for n in (0, 1, 5, 6, 64, 1000):
        symbols = tuple([0, p - 1][:n] + [rng.randrange(p) for _ in range(n - 2)])
        for given in (symbols, list(symbols)):
            packed = fld.pack(given)
            assert isinstance(packed, Lanes) == (p == 257)
            assert len(packed) == n
            assert packed == symbols and symbols == packed and tuple(packed) == symbols
            if isinstance(packed, Lanes):
                assert packed.bound == 256 and _raw(packed) == list(symbols)
                assert F257.combine(*in_one_slot([(1, packed), (-1, symbols)])) == (0,) * n


@pytest.mark.parametrize("n", [0, 1, 5, 6, 5462])
def test_pack_reads_bytes_as_one_symbol_each(n):
    data = random.Random(f"pack-bytes-{n}").randbytes(n)
    for given in (data, bytearray(data)):
        packed = F257.pack(given)
        assert isinstance(packed, Lanes)
        assert packed == tuple(data) and bytes(packed) == data


@pytest.mark.parametrize("p", [257, 7, 263, 65537])
@pytest.mark.parametrize("n", [1, 5, 6, 100])
def test_pack_refuses_a_symbol_outside_the_field_and_names_it(p, n):
    fld = make_field(p)
    for bad in (-1, 257, 511, 512, 2 ** 32 - 1, 2 ** 32, p):
        if 0 <= bad < p:
            continue
        for at in sorted({0, n // 2, n - 1}):
            symbols = [p - 1] * n
            symbols[at] = bad
            if at < n - 1:
                symbols[-1] = -2  # a later symbol outside the field is not the one named
            message = rf"^symbol {bad} is not in Z_{p}, \[0, {p}\)$"
            with pytest.raises(ConfigMismatch, match=message):
                fld.pack(symbols)


def test_lanes_read_as_the_tuple_of_their_symbols():
    symbols = tuple(random.Random(5).choices(range(257), k=100))
    lanes = F257.pack(symbols)
    assert isinstance(lanes, Lanes)
    assert lanes == symbols and symbols == lanes
    assert not (lanes != symbols) and not (symbols != lanes)
    assert len(lanes) == 100
    assert tuple(iter(lanes)) == symbols
    assert [lanes[i] for i in (0, 17, 99, -1)] == [symbols[i] for i in (0, 17, 99, -1)]
    assert lanes[10:20] == symbols[10:20]
    assert lanes == F257.pack(symbols)
    shorter, changed = symbols[:-1], symbols[:50] + ((symbols[50] + 1) % 257,) + symbols[51:]
    for other in (shorter, changed, F257.pack(shorter), F257.pack(changed)):
        assert lanes != other and other != lanes
        assert not (lanes == other) and not (other == lanes)
    assert lanes != list(symbols)
    # a trailing zero lane leaves the packed int as it is; only the length differs
    padded = F257.pack(symbols + (0,))
    assert padded.value == lanes.value
    assert padded != lanes and lanes != padded


def _count_spreads(monkeypatch):
    """The byte-backed Lanes that get lanes from here on, each counted as it is packed."""
    packed = []

    def spread(data):
        packed.append(data)
        return spread_bytes(data)

    spread_bytes = field._spread
    monkeypatch.setattr(field, "_spread", spread)
    return packed


def test_lanes_from_bytes_keep_their_bytes_for_bytes_alone(monkeypatch):
    packed = _count_spreads(monkeypatch)
    data = random.Random(7).randbytes(100)
    flipped = data[:-1] + bytes([data[-1] ^ 1])
    lanes, twin = F257.pack(data), F257.pack(bytes(data))
    assert bytes(lanes) is data and packed == []
    # the first read of the symbols packs once, and every later read reads those lanes
    assert lanes == tuple(data) and packed == [data]
    assert tuple(data) == lanes and tuple(lanes) == tuple(data)
    assert [lanes[i] for i in (0, 57, -1)] == [data[i] for i in (0, 57, -1)]
    assert lanes[10:20] == tuple(data[10:20])
    assert lanes.value == _canonical(tuple(data)).value and packed == [data]
    assert lanes == twin and lanes != F257.pack(flipped) and packed == [data, data, flipped]
    assert F257.combine(*in_one_slot([(2, lanes), (-1, lanes)])) == tuple(data)
    assert F257.combine(*in_one_slot([(1, twin), (-1, lanes)])) == (0,) * 100
    assert packed == [data, data, flipped]
    assert lanes == twin and bytes(lanes) is data
    # a bytearray is copied, so a later write to it leaves the Lanes as it was
    buffer = bytearray(data)
    copy = F257.pack(buffer)
    buffer[0] ^= 1
    assert bytes(copy) == data


@pytest.mark.parametrize("name, packs", [("new", 18), ("man", 4)])
def test_a_roundtrip_packs_only_the_subfiles_its_kernel_reads(name, packs, tmp_path,
                                                              monkeypatch):
    # at (3, 4) a new roundtrip splits 36 subfiles and combines 18 of them; man splits 12
    # and combines K = 4, those its one packet sums
    from cachewright import cli
    packed = _count_spreads(monkeypatch)
    source, out = tmp_path / "in.bin", tmp_path / "out.bin"
    source.write_bytes(random.Random(f"lazy-{name}").randbytes(65536))
    for demand in ("1,2,3,1", "3,3,1,2", "2,1,3,3"):
        for user in range(1, 5):
            packed.clear()
            assert cli.main(["roundtrip", "--n", "3", "--k", "4", "--scheme", name,
                             "--demand", demand, "--user", str(user), str(source),
                             "--out", str(out)]) == 0
            assert out.read_bytes() == source.read_bytes()
            assert len(packed) == packs, (demand, user)
            assert len({id(data) for data in packed}) == packs


@pytest.mark.parametrize("name", ["new", "man"])
def test_no_scheme_program_at_257_takes_the_list_path(name, tmp_path, monkeypatch):
    # at (3, 130) a step sums up to K = 130 terms, and verify at N = 2 combines vectors of
    # two lanes, one per relabelling of the files
    from cachewright import cli
    from cachewright.verify import run_verification
    kernel, listed = field._combine_list, []
    monkeypatch.setattr(field, "_combine_list",
                        lambda p, terms: listed.append(len(terms)) or kernel(p, terms))
    source, out = tmp_path / "in.bin", tmp_path / "out.bin"
    source.write_bytes(random.Random(f"no-list-{name}").randbytes(100))
    demand = ",".join(str(i % 3 + 1) for i in range(130))
    assert cli.main(["roundtrip", "--n", "3", "--k", "130", "--scheme", name, "--demand",
                     demand, "--user", "130", str(source), "--out", str(out)]) == 0
    assert out.read_bytes() == source.read_bytes()
    assert run_verification(2, 4, name).ok
    assert listed == []


@pytest.mark.parametrize("name", ["new", "man"])
def test_the_cli_hot_paths_pack_only_bytes_at_257(name, tmp_path, monkeypatch):
    # pack of ints at 257 builds a tuple, tests its range and converts it through an array;
    # a roundtrip and a verify sweep split bytes, which pack keeps as they are
    from cachewright import cli
    from cachewright.verify import run_verification
    pack, given = field.FieldCtx.pack, []

    def spy(self, symbols):
        if self.p == 257:
            given.append(type(symbols))
        return pack(self, symbols)

    monkeypatch.setattr(field.FieldCtx, "pack", spy)
    source, out = tmp_path / "in.bin", tmp_path / "out.bin"
    source.write_bytes(random.Random(f"bytes-only-{name}").randbytes(1000))
    assert cli.main(["roundtrip", "--n", "3", "--k", "4", "--scheme", name, "--demand",
                     "1,2,3,1", str(source), "--out", str(out)]) == 0
    assert out.read_bytes() == source.read_bytes()
    roundtrip = len(given)
    assert run_verification(3, 5, name).ok
    assert 0 < roundtrip < len(given)
    assert set(given) == {bytes}


@pytest.mark.parametrize("name", ["new", "man"])
def test_decode_returns_uncoded_pieces_as_the_splits_own_bytes(name, monkeypatch):
    from cachewright import scheme as engine
    from cachewright.verify import SCHEMES
    chosen, cfg = SCHEMES[name], NetworkConfig(3, 4)
    rng = random.Random(f"own-bytes-{name}")
    files = [rng.randbytes(12 * 100) for _ in range(3)]
    library = [chosen.split(blob, cfg) for blob in files]
    joined = []
    monkeypatch.setattr(engine, "join_bytes", lambda pieces: joined.append(pieces)
                        or join_bytes(pieces))
    demand = (2, 1, 3, 2)
    sent = chosen.deliver(library, demand, cfg)
    for cache in chosen.place(library, cfg):
        joined.clear()
        wanted = library[demand[cache.user - 1] - 1]
        assert chosen.decode(cache, sent, cfg) == files[demand[cache.user - 1] - 1]
        [pieces] = joined
        own = [bytes(piece) is bytes(part) for piece, part in zip(pieces, wanted.parts.values())]
        # every piece the user caches uncoded is the split's bytes object, not a copy
        cached = [key for key, part in wanted.parts.items()
                  if any(part is packet for packet in cache.parts[demand[cache.user - 1] - 1]
                         .values())]
        assert own == [key in cached for key in wanted.parts]
        assert sum(own) == (6 if name == "new" else 3)


def test_lanes_bytes_are_the_low_bytes_and_refuse_256():
    symbols = tuple(random.Random(6).choices(range(256), k=300))
    assert bytes(F257.pack(symbols)) == bytes(symbols)
    with pytest.raises(ValueError):
        bytes(F257.pack(symbols[:299] + (256,)))


@pytest.mark.parametrize("bad", [-1, 512])
def test_mixed_terms_match_the_list_path(bad):
    rng = random.Random(f"mixed-{bad}")
    packed = F257.pack(tuple(rng.choices(range(257), k=200)))
    plain = tuple(rng.choices(range(512), k=200))
    breaking = (bad,) + plain[1:]
    for terms in ([(3, packed), (-1, plain), (256, packed)],
                  [(1, plain), (2, packed)],
                  [(5, packed), (7, breaking), (-2, packed)],
                  [(1, breaking), (1, packed)]):
        by_list = field._combine_list(257, [(c, tuple(v)) for c, v in terms])
        assert F257.combine(*in_one_slot(terms)) == by_list == _reference(terms)


@pytest.mark.parametrize("where", [0, 2, 4])
def test_a_tuple_term_among_lanes_sends_every_term_down_the_list_path(where, monkeypatch):
    # the packed kernel checks each term as it sums, and a tuple first, in the middle or last
    # hands the whole list to the list path, whose answer is the reference's
    rng = random.Random(f"tuple-among-lanes-{where}")
    terms = [(rng.randrange(-600, 600), F257.pack(tuple(rng.choices(range(257), k=90))))
             for _ in range(5)]
    terms[where] = (rng.randrange(-600, 600), tuple(rng.choices(range(257), k=90)))
    listed = []
    by_list = field._combine_list
    monkeypatch.setattr(field, "_combine_list",
                        lambda p, terms: listed.append(terms) or by_list(p, terms))
    result = F257.combine(*in_one_slot(terms))
    assert listed == [terms]
    assert not isinstance(result, Lanes)
    assert result == _reference(terms)


@pytest.mark.parametrize("where", [None, 0, 2, 4])
def test_terms_of_unequal_length_are_refused_on_either_path(where):
    terms = [(1, F257.pack((7,) * (90 if i != 3 else 91))) for i in range(5)]
    if where is not None:
        terms[where] = (1, tuple(terms[where][1]))
    with pytest.raises(LengthMismatch, match="cannot combine vectors of lengths"):
        F257.combine(*in_one_slot(terms))


@settings(deadline=None)
@given(st.data())
def test_every_packed_result_keeps_its_lanes_below_257(data):
    length = data.draw(st.integers(1, 90))
    vectors = st.one_of(st.lists(st.integers(0, 2 ** 32 - 1), min_size=length,
                                 max_size=length).map(_bounded),
                        st.tuples(*[st.integers(0, 256)] * length).map(_canonical))
    terms = data.draw(st.lists(st.tuples(st.integers(-2 ** 40, 2 ** 40), vectors),
                               min_size=1, max_size=6))
    result = field._combine_packed(*in_one_slot(terms))  # the kernel itself, at any length
    assert isinstance(result, Lanes)
    _assert_bounded(result)
    assert F257.combine(*in_one_slot(terms)) == result
    lanes = array(field._LANE)
    lanes.frombytes(result.value.to_bytes(4 * result.n, sys.byteorder))
    assert all(0 <= x < 257 for x in lanes)
    assert result == _reference(terms)


def test_join_bytes_names_the_first_lane_outside_a_byte():
    rng = random.Random(3)
    symbols = [rng.randrange(256) for _ in range(5000)]
    symbols[4321] = 256
    symbols[4500] = 1000
    pieces = [F257.pack(tuple(symbols[:2000])), F257.pack(tuple(symbols[2000:4400])),
              tuple(symbols[4400:])]
    with pytest.raises(SymbolOutOfByteRange) as from_symbols:
        join_bytes((symbols,))
    message = "^symbol 256 is not a byte; content is coded$"
    with pytest.raises(SymbolOutOfByteRange, match=message) as from_lanes:
        join_bytes(pieces)
    assert str(from_lanes.value) == str(from_symbols.value)
    symbols[4321] = symbols[4500] = 7  # and with every symbol a byte, the bytes themselves
    assert join_bytes([F257.pack(tuple(symbols[:2000])), tuple(symbols[2000:])]) == bytes(symbols)


def _bounded(lanes):
    """Lanes whose raw 32-bit lanes are the given values, each below 2**32, bound by the
    largest of them."""
    return Lanes(int.from_bytes(array(field._LANE, lanes), sys.byteorder), len(lanes),
                 max(lanes))


def _raw(lanes):
    """The lanes of a Lanes as stored, without making them canonical."""
    out = array(field._LANE)
    out.frombytes(lanes._lanes.to_bytes(4 * lanes.n, sys.byteorder))
    return list(out)


def _canonical(symbols):
    return Lanes(int.from_bytes(array(field._LANE, symbols), sys.byteorder), len(symbols))


def _assert_bounded(lanes):
    """Every lane of lanes, as stored, is at most its bound, which is below 2**32."""
    assert max(_raw(lanes)) <= lanes.bound < 2 ** 32


def test_the_term_limit_is_the_largest_that_cannot_carry():
    largest = 256 * 256  # a coefficient below 257 times a canonical lane
    assert field._PACKED_MAX_TERMS == 2 ** 16 - 1
    assert field._PACKED_MAX_TERMS * largest < 2 ** 32 <= (field._PACKED_MAX_TERMS + 1) * largest


def test_packed_kernel_holds_at_its_term_limit_with_loose_lanes():
    # lanes at and just below the largest value, and bound, a Lanes may carry
    column = tuple(2 ** 32 - 1 - i for i in range(8))
    top = _bounded(column)
    assert _bounded(column) == tuple(-i % 257 for i in range(8))  # 2**32 = 1 (mod 257)
    terms = [(256, top)] * field._PACKED_MAX_TERMS
    by_list = field._combine_list(257, [(256, column)] * len(terms))
    result = field._combine_packed(*in_one_slot(terms))
    _assert_bounded(result)
    # the first sum carried, so top was made canonical in place and the terms summed again
    assert _raw(top) == [-i % 257 for i in range(8)] and top.bound == 256
    assert result.bound == field._PACKED_MAX_TERMS * 256 * 256
    assert result == by_list
    assert F257.combine(*in_one_slot(terms)) == by_list
    # one term more goes to the list path, with the list path's answer
    terms.append((256, top))
    result = F257.combine(*in_one_slot(terms))
    assert not isinstance(result, Lanes)
    assert result == tuple((x + 256 * -i) % 257 for i, x in enumerate(by_list))


def test_a_sum_that_cannot_carry_is_kept_as_it_is():
    # no fold: each lane is its exact sum, the bound is sum (c mod 257) * bound, and the
    # terms are left as they were
    rng = random.Random(11)
    raws = [[rng.randrange(2 ** 16) for _ in range(64)] for _ in range(3)]
    terms = [(c, _bounded(raw)) for c, raw in zip((-1, 2 ** 40 + 5, 300), raws)]
    result = F257.combine(*in_one_slot(terms))
    assert result.bound == sum(c % 257 * v.bound for c, v in terms) < 2 ** 32
    assert _raw(result) == [sum(c % 257 * raw[i] for (c, _), raw in zip(terms, raws))
                            for i in range(64)]
    assert [(_raw(v), v.bound) for _, v in terms] == [(raw, max(raw)) for raw in raws]
    assert result == field._combine_list(257, [(c, raw) for (c, _), raw in zip(terms, raws)])


def test_a_sum_whose_bound_just_reaches_2_32_is_summed_again():
    # lanes of 2**32 - 1 and 1 carry into the next lane; a bound of exactly 2**32 sends the
    # sum back to the canonical terms, where 2**32 - 1 = 0 (mod 257)
    top, one = _bounded([2 ** 32 - 1] * 8), _bounded([1] * 8)
    result = F257.combine(*in_one_slot([(1, top), (1, one)]))
    _assert_bounded(result)
    assert result.bound == 2 * 256
    assert result == (1,) * 8


def _fresh(lanes):
    """A copy of a combine's Lanes, lanes and bound, so each read below is the first that
    copy sees."""
    assert lanes._bytes is None
    return Lanes(lanes._lanes, lanes.n, lanes.bound)


@settings(deadline=None)
@given(st.data())
def test_chained_loose_results_read_as_the_list_path(data):
    length = data.draw(st.integers(64, 80))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    plain = tuple(rng.choices(range(512), k=length))
    symbols = tuple(rng.choices(range(257), k=length))
    data_bytes = rng.randbytes(length)
    # the program's vectors, and beside each the list path's tuple of its symbols
    wide = _bounded([rng.randrange(2 ** 32) for _ in range(length)])
    pool = [(_bounded(plain), plain), (_canonical(symbols), symbols),
            (wide, tuple(x % 257 for x in _raw(wide))), (F257.pack(data_bytes), tuple(data_bytes))]
    for _ in range(data.draw(st.integers(3, 6))):
        picks = data.draw(st.lists(st.tuples(st.integers(-2 ** 40, 2 ** 40),
                                             st.integers(0, len(pool) - 1)),
                                   min_size=1, max_size=6))
        result = F257.combine(*in_one_slot([(c, pool[i][0]) for c, i in picks]))
        assert isinstance(result, Lanes)
        _assert_bounded(result)
        expected = field._combine_list(257, [(c, pool[i][1]) for c, i in picks])
        pool.append((result, expected))
    for vector, _ in pool:  # a term a combine folded in place keeps the bound invariant
        if vector._lanes is not None:
            _assert_bounded(vector)
    for result, expected in pool[4:]:
        assert _fresh(result) == _canonical(expected)
        assert _canonical(expected) == _fresh(result)
        assert _fresh(result) == expected and expected == _fresh(result)
        assert tuple(_fresh(result)) == expected
        assert [_fresh(result)[i] for i in (0, -1)] == [expected[0], expected[-1]]
        assert _fresh(result).value == _canonical(expected).value
        if 256 in expected:
            with pytest.raises(ValueError):
                bytes(_fresh(result))
        else:
            assert bytes(_fresh(result)) == bytes(expected)
        # reading once leaves the canonical lanes in place of the others
        assert result == expected and result.bound <= 256
        assert _raw(result) == list(expected)


def test_a_loose_lane_congruent_to_256_is_not_a_byte():
    lanes = [7] * 100
    lanes[42] = (0xFFFF << 16) + 130812 - 0xFFFF  # folds to 256 + 508 * 257
    loose = _bounded(lanes)
    assert _raw(loose)[42] % 257 == 256
    with pytest.raises(SymbolOutOfByteRange, match="^symbol 256 is not a byte; content is coded$"):
        join_bytes([_canonical((1,) * 64), loose])
    assert join_bytes([_bounded([7 + 257 * 500] * 64)]) == bytes([7] * 64)


def test_round_trips_of_many_file_lengths_keep_a_bounded_set_of_lane_masks(tmp_path):
    # the masks of a 1 MiB file at (3, 4) take about 2 MiB, so one process that
    # round-trips files of many lengths must not keep one set per length
    from cachewright import cli
    source, out = tmp_path / "in.bin", tmp_path / "out.bin"
    field._lane_masks.cache_clear()
    for i in range(10):
        blob = random.Random(f"lane-masks-{i}").randbytes(2 ** 20 + 768 * i)
        source.write_bytes(blob)
        assert cli.main(["roundtrip", "--n", "3", "--k", "4", "--demand", "1,2,3,1",
                         str(source), "--out", str(out)]) == 0
        assert out.read_bytes() == blob
        assert field._lane_masks.cache_info().currsize <= 2, i
    assert field._lane_masks.cache_info().misses == 10
