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


def _subfiles_read(chosen, cfg, demand, user):
    """(file index, key) of each subfile a roundtrip's kernel reads: those its delivery combines,
    and those of the cache packets its decoder combines, a copied packet being its subfile and
    a combined one the subfiles its caching step reads. No copy step reads through the kernel,
    and the broadcast and the decoder's own results are sums, not subfiles."""
    from cachewright.scheme import MIXED

    def combined(program):
        return [step for step in program.values() if len(step) > 1 or step[0][0] != 1]

    delivery, decoder = chosen.serving(cfg, chosen.pattern(demand, cfg))
    caching = chosen.caching(cfg, user)
    read = {(demand[s] - 1, key) for step in combined(delivery) for _, (s, key) in step}
    for step in combined(decoder(user)):
        for _, (s, key) in step:
            if 0 <= s < cfg.k or s == MIXED:  # a part of the cache: the file it holds, or slot N
                packet = caching[(demand[s] - 1, key) if s >= 0 else (cfg.n, key)]
                read |= {at for _, at in packet}
    return read


@pytest.mark.parametrize("name", ["new", "man"])
def test_a_roundtrip_packs_only_the_subfiles_its_kernel_reads(name, tmp_path, monkeypatch):
    # at (3, 4) a new roundtrip splits 36 subfiles, places 7 combined packets, of which the
    # decoder reads some, and delivers 4 packets of 3 subfiles each; man splits 12 and
    # combines K = 4, those its one packet sums
    from cachewright import cli
    from cachewright.verify import SCHEMES
    packed = _count_spreads(monkeypatch)
    cfg = NetworkConfig(3, 4)
    source, out = tmp_path / "in.bin", tmp_path / "out.bin"
    source.write_bytes(random.Random(f"lazy-{name}").randbytes(65536))
    counts = set()
    for demand in ("1,2,3,1", "3,3,1,2", "2,1,3,3"):
        for user in range(1, 5):
            packed.clear()
            assert cli.main(["roundtrip", "--n", "3", "--k", "4", "--scheme", name,
                             "--demand", demand, "--user", str(user), str(source),
                             "--out", str(out)]) == 0
            assert out.read_bytes() == source.read_bytes()
            packs = len(_subfiles_read(SCHEMES[name], cfg, tuple(map(int, demand.split(","))),
                                       user))
            assert len(packed) == packs, (demand, user)
            assert len({id(data) for data in packed}) == packs
            counts.add(packs)
    # the coded scheme reads 15 or 16 of its 36 subfiles, where placing every packet at once
    # read 18; man reads the K its packet sums
    assert counts == ({15, 16} if name == "new" else {4})


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


_COEFFICIENTS = st.one_of(st.sampled_from([0, 1, 256, 257, 258, -1, -256]),
                         st.integers(-2 ** 40, 2 ** 40))


def _pending_sum(terms):
    """A pending sum of byte-backed vectors, as placement leaves a cache packet, with its
    symbols and the bound the kernel will sum it to, worked out without reading it."""
    pending = F257.combine(*in_one_slot([(c, F257.pack(b)) for c, b in terms]), pending=True)
    assert pending._pending is not None
    bound = 256 * sum(c % 257 for c, _ in terms)
    return pending, _reference([(c, tuple(b)) for c, b in terms]), bound


@settings(deadline=None)
@given(st.data())
def test_the_kernel_sums_any_step_as_the_list_path_does(data):
    # 1 to 8 terms over byte-backed, canonical, loose and pending Lanes of one length, some of
    # them drawn twice; a unit term adds its lanes unscaled and a zero term adds nothing, and a
    # pending term is summed where the kernel first reads it
    length = data.draw(st.integers(1, 40))
    raw = st.binary(min_size=length, max_size=length)
    pool = data.draw(st.lists(st.one_of(
        raw.map(lambda b: (F257.pack(b), tuple(b), 256)),
        st.tuples(*[st.integers(0, 256)] * length).map(lambda s: (_canonical(s), s, 256)),
        st.lists(st.integers(0, 2 ** 32 - 1), min_size=length, max_size=length).map(
            lambda lanes: (_bounded(lanes), tuple(x % 257 for x in lanes), max(lanes))),
        st.lists(st.tuples(_COEFFICIENTS, raw), min_size=1, max_size=4).map(_pending_sum)),
        min_size=1, max_size=4))
    picks = data.draw(st.lists(st.tuples(_COEFFICIENTS, st.integers(0, len(pool) - 1)),
                               min_size=1, max_size=8))
    terms = [(c, pool[i][0]) for c, i in picks]
    symbols = [s for _, s, _ in pool]  # each vector's symbols, found without reading it
    result = field._combine_packed(*in_one_slot(terms))
    bound = sum(c % 257 * pool[i][2] for c, i in picks)  # the bounds the kernel reads
    if bound < 2 ** 32:
        assert result.bound == bound
    else:  # summed again from the canonical terms
        assert result.bound == 256 * sum(c % 257 for c, _ in terms)
    _assert_bounded(result)
    shared = result._lanes
    assert result == field._combine_list(257, [(c, symbols[i]) for c, i in picks])
    # a single unit term is its own sum: the result starts from the term's int, and making
    # the result canonical replaces the result's int, never the term's
    if len(terms) == 1 and terms[0][0] % 257 == 1:
        assert shared is terms[0][1]._lanes
    assert [tuple(v) for v, _, _ in pool] == symbols


def _bytes_or_refusal(vector):
    try:
        return bytes(vector)
    except ValueError:
        return "not bytes"


@pytest.mark.parametrize("name", ["new", "man"])
def test_every_placed_packet_reads_as_the_combine_of_its_caching_step(name):
    # each combined packet is pending, with the length FieldCtx.combine gives its caching step;
    # its first read, through the kernel, by bytes() or by its symbols, gives the combine's,
    # and the kernel's read makes its lanes to the combine's bound; a copy is the library's
    # own subfile
    from cachewright.verify import SCHEMES
    chosen, rng = SCHEMES[name], random.Random(f"pending-{name}")
    for k in range(2, 6):
        for n in range(2, k + 1):
            cfg = NetworkConfig(n, k)
            length = len(chosen.keys(cfg)) * rng.randrange(1, 9)
            library = [chosen.split(rng.randbytes(length), cfg) for _ in range(n)]
            slots = [g.parts for g in library] + [{}]
            for read in ("kernel", "bytes", "symbols"):
                for cache in chosen.place(library, cfg):
                    caching = chosen.caching(cfg, cache.user)
                    assert set(caching) == {(slot, key) for slot, part in
                                            enumerate(cache.parts) for key in part}
                    for (slot, key), step in caching.items():
                        got = cache.parts[slot][key]
                        if len(step) == 1 and step[0][0] == 1:
                            (_, (s, copied)), = step
                            assert got is slots[s][copied]
                            continue
                        want = cfg.field.combine(step, slots)
                        assert got._pending is not None, (n, k, slot, key)
                        assert len(got) == len(want)
                        if read == "kernel":  # lanes made, not yet canonical
                            bound = want.bound
                            assert field._combine_packed(*in_one_slot([(1, got)])) == want
                            assert got.bound == bound
                        if read == "bytes":
                            assert _bytes_or_refusal(got) == _bytes_or_refusal(want)
                        assert got == want and tuple(got) == tuple(want)
                        assert _bytes_or_refusal(got) == _bytes_or_refusal(want)
                        assert got._pending is None and got.bound == want.bound


@pytest.mark.parametrize("name", ["new", "man"])
def test_a_library_changed_after_placement_changes_no_cache(name):
    # place reads copies of the files' part dicts, so replacing every part of the library
    # after placement leaves each packet, pending or copied, the combine of the library placed
    from cachewright.verify import SCHEMES
    chosen, rng = SCHEMES[name], random.Random(f"placed-{name}")
    for k in range(2, 5):
        for n in range(2, k + 1):
            cfg = NetworkConfig(n, k)
            length = len(chosen.keys(cfg)) * rng.randrange(1, 5)
            library = [chosen.split(rng.randbytes(length), cfg) for _ in range(n)]
            placed = [dict(g.parts) for g in library] + [{}]
            caches = chosen.place(library, cfg)
            for g in library:
                for key, v in g.parts.items():
                    g.parts[key] = F257.pack(bytes(255 - b for b in bytes(v)))
            for cache in caches:
                for (slot, key), step in chosen.caching(cfg, cache.user).items():
                    assert cache.parts[slot][key] == cfg.field.combine(step, placed), \
                        (n, k, cache.user, slot, key)


def test_a_caching_step_over_unequal_lengths_is_refused_by_place():
    # place checks every subfile's length, and every file's keys, once, before any step
    from cachewright.coded_placement import NEW
    cfg = NetworkConfig(2, 3)
    library = [NEW.split(random.Random(i).randbytes(30), cfg) for i in range(2)]
    library[0].parts[(1, 3)] = F257.pack(b"\0" * 4)  # one symbol short
    for users in ((1,), (2, 3), None):  # user 2 only copies it, and user 3 never reads it
        with pytest.raises(LengthMismatch, match="^a subfile is not 5 symbols long$"):
            NEW.place(library, cfg, users=users)
    library[0].parts[(1, 3)] = library[1].parts[(1, 3)]
    assert [cache.user for cache in NEW.place(library, cfg)] == [1, 2, 3]
    # a file keyed otherwise, with as many keys, is not split for this (N, K)
    library[1].parts[(3, 1)] = library[1].parts.pop((1, 3))
    with pytest.raises(ConfigMismatch, match="^file not split for this"):
        NEW.place(library, cfg, users=(2,))


def test_a_step_is_pending_whenever_its_first_term_is_lanes():
    # the first read sums it as the list path does, whatever the kernel then meets: a
    # caller's tuple term, a bound reaching 2**32, a pending term; unequal lengths are
    # refused at that read
    packed, plain = F257.pack(bytes(range(1, 9))), tuple(range(8))
    top = _bounded([2 ** 32 - 1] * 8)
    for read in (_bytes_or_refusal, tuple):
        inner = F257.combine(*in_one_slot([(1, packed), (2, packed)]), pending=True)
        for terms in ([(1, packed), (2, packed)], [(2, packed), (-1, packed)],
                      [(1, packed), (2, plain)], [(3, top), (-1, plain), (1, packed)],
                      [(1, top), (1, _bounded([1] * 8))], [(1, inner), (-1, packed)]):
            got = F257.combine(*in_one_slot(terms), pending=True)
            assert isinstance(got, Lanes) and got._pending is not None and len(got) == 8
            first = read(got)
            assert got._pending is None and isinstance(got.value, int)
            want = field._combine_list(257, [(c, tuple(v)) for c, v in terms])
            assert first == read(F257.pack(want)) and got == want
        assert inner._pending is None
    uneven = F257.combine(*in_one_slot([(1, packed), (1, F257.pack(b"\0" * 7))]), pending=True)
    with pytest.raises(LengthMismatch, match="^cannot combine vectors of lengths 8 and 7$"):
        tuple(uneven)
    # a step the kernel cannot start, and every step at another prime, is summed at once
    listed = F257.combine(*in_one_slot([(1, plain), (2, packed)]), pending=True)
    assert not isinstance(listed, Lanes) and listed == tuple(3 * i + 2 for i in range(8))
    other = make_field(263).combine(*in_one_slot([(1, plain), (1, plain)]), pending=True)
    assert other == tuple(2 * i for i in range(8))


@pytest.mark.parametrize("n, k, sums, placed", [(3, 4, 27, 28), (8, 8, 104, 392)])
def test_verify_sums_only_the_cache_packets_its_decoders_read(n, k, sums, placed,
                                                              monkeypatch):
    # every cache holds N(K-2) differences and one sum packet, K(N(K-2) + 1) in all; the
    # decoders of (8, 8) read 104 of them, and at (3, 4) every one but one
    from cachewright.verify import run_verification
    counts = [0, 0]  # packets left pending, pending sums made
    kernel, summed = field._combine_packed, field.Lanes._sum

    def combine(step, slots, pending=False):
        result = kernel(step, slots, pending)
        counts[0] += getattr(result, "_pending", None) is not None
        return result

    def made(self):
        counts[1] += 1
        return summed(self)

    monkeypatch.setattr(field, "_combine_packed", combine)
    monkeypatch.setattr(field.Lanes, "_sum", made)
    assert run_verification(n, k, "new").ok
    assert counts == [placed, sums]
    assert placed == k * (n * (k - 2) + 1)


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
