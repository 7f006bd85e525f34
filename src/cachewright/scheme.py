"""One data plane for every linear scheme: coefficient programs and the engine that runs them.

A scheme is its split keys, which FieldCtx.split cuts a file by, plus two compilers of
programs, each a dict from a result's name to its step, a tuple of (coefficient, (slot, name))
terms. Coefficients are plain integers, dividing only through cfg.field.inv; `run` copies a
step of one term with coefficient 1, hands every other step with the slots to one
FieldCtx.combine, which reads each term's vector from its slot and alone reduces the
coefficients, and stores each result under its name in the last slot, where later steps read
it. caching(cfg, user) reads file f at slot f-1 and names a packet (f-1, key), or (N, name) if
it mixes files. serving(cfg, pattern) compiles a pattern's delivery, and returns a decoder
that compiles one user's program per call. Delivery reads the file user u requests at slot u-1
and names a packet by its position on the wire. User k's decoder reads what the user caches of
that file at slot u-1, the broadcast at SENT, its cache's slot N at MIXED and its own results
at OWN, and names each piece it computes by its key; the user caches the rest of the wanted file.
Both read a demand only through the scheme's pattern of it. Scheme.send and Scheme.recover lay
out those slots and run compiled programs, which verify compiles once per pattern (a Scheme
keeps none); Scheme.deliver and Scheme.decode compile and run one demand, as roundtrip does.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import ConfigMismatch, LengthMismatch
from .field import FieldCtx, Symbol, join_bytes
from .model import Demand, NetworkConfig, SubfileGrid, split_file, validate_demand, validate_users

SENT, MIXED, OWN = -3, -2, -1  # a decoder's last slots, from the end of Scheme.recover's list


def run(program: dict, slots: list, field: FieldCtx) -> dict:
    """Run the steps in order, storing each under its name in the last slot; return that."""
    out = slots[-1]
    for name, step in program.items():
        if len(step) == 1 and step[0][0] == 1:
            s, key = step[0][1]
            out[name] = slots[s][key]
        else:
            out[name] = field.combine(step, slots)
    return out


class Cache(NamedTuple):
    """One user's cache: parts[f-1] maps key to packet for file f alone, parts[N] mixes files;
    keys are the scheme's split keys, in the order a file's pieces are recovered."""

    user: int
    parts: tuple[dict, ...]
    file_lengths: tuple[int, ...]
    subfile_len: int
    keys: tuple

    @property
    def symbol_count(self) -> int:
        return sum(map(len, self.parts)) * self.subfile_len


class Broadcast(NamedTuple):
    """The packets sent for one demand."""

    demand: Demand
    packets: tuple[Sequence[Symbol], ...]

    @property
    def symbol_count(self) -> int:
        return sum(len(p) for p in self.packets)


class Scheme(NamedTuple):
    """A linear scheme as its split keys and the compilers of its programs."""

    keys: Callable  # cfg -> the keys a file is split under, in file order
    # (demand, cfg) -> what the programs read of a demand; raises if unserved. It must be
    # constant on each orbit: verify asks only the first demand model.demand_orbits yields
    pattern: Callable
    # (cfg, user) -> {(slot, key) in the cache: step}. Placement must commute with relabelling
    # files: placed on the library relabelled by s, a cache holds in slot f-1 what it holds in
    # slot s(f)-1 placed on the library itself, and the same slot N; verify places once on a
    # library whose lanes are every relabelling of one library
    caching: Callable
    # (cfg, pattern) -> ({position on the wire: step}, user -> {name: step}); a decoder names
    # each key whose piece it computes, not those cached, and compiles one user per call
    serving: Callable

    def split(self, data: bytes | Sequence[Symbol], cfg: NetworkConfig) -> SubfileGrid:
        return split_file(data, cfg, keys=self.keys(cfg))

    def _subfile_len(self, library: list[SubfileGrid], cfg: NetworkConfig) -> int:
        if len(library) != cfg.n:
            raise ConfigMismatch(f"library holds {len(library)} files, config says {cfg.n}")
        lengths = {g.subfile_len for g in library}
        if len(lengths) != 1:
            raise ConfigMismatch("files split with differing subfile lengths")
        count = len(self.keys(cfg))
        if any(len(g.parts) != count for g in library):
            raise ConfigMismatch("file not split for this (N, K)")
        return lengths.pop()

    def place(self, library: list[SubfileGrid], cfg: NetworkConfig,
              users: Iterable[int] | None = None) -> list[Cache]:
        """The caches of the listed users, in the order given; all K by default."""
        programs = [(user, self.caching(cfg, user)) for user in validate_users(users, cfg)]
        sub_len = self._subfile_len(library, cfg)
        keys = tuple(self.keys(cfg))
        files = [g.parts for g in library]
        lengths = tuple(g.original_length for g in library)
        caches = []
        for user, program in programs:
            parts = tuple({} for _ in range(cfg.n + 1))
            for (slot, key), packet in run(program, [*files, {}], cfg.field).items():
                parts[slot][key] = packet
            caches.append(Cache(user, parts, lengths, sub_len, keys))
        return caches

    def send(self, cfg: NetworkConfig, delivery: dict, library: list[SubfileGrid],
             demand: Demand) -> dict:
        """The broadcast packets by position for demand, a delivery of its pattern."""
        return run(delivery, [library[f - 1].parts for f in demand] + [{}], cfg.field)

    def recover(self, cfg: NetworkConfig, decoding: dict, cache: Cache, demand: Demand,
                sent: Sequence | dict) -> tuple:
        """The pieces of the file cache's user wants, in key order: each piece one user's
        decoding of demand's pattern names, decoded from the broadcast sent, by position, and
        the cache; else the piece the user caches of that file under the key."""
        held = [cache.parts[f - 1] for f in demand]
        try:
            out = run(decoding, [*held, sent, cache.parts[-1], {}], cfg.field)
            return itemgetter(*cache.keys)(held[cache.user - 1] | out)
        except KeyError as key:  # its str is the key's repr
            raise ConfigMismatch(f"user {cache.user} neither decodes nor caches {key}") from None

    def deliver(self, library: list[SubfileGrid], demand, cfg: NetworkConfig) -> Broadcast:
        d = validate_demand(demand, cfg)
        delivery, _ = self.serving(cfg, self.pattern(d, cfg))
        self._subfile_len(library, cfg)
        return Broadcast(d, tuple(self.send(cfg, delivery, library, d).values()))

    def decode(self, cache: Cache, sent: Broadcast, cfg: NetworkConfig) -> bytes:
        d = validate_demand(sent.demand, cfg)
        delivery, decoder = self.serving(cfg, self.pattern(d, cfg))
        if len(sent.packets) != len(delivery):
            raise ConfigMismatch(
                f"broadcast holds {len(sent.packets)} packets, not {len(delivery)}")
        if set(map(len, sent.packets)) != {cache.subfile_len}:
            raise LengthMismatch("broadcast and cache subfile lengths differ")
        pieces = self.recover(cfg, decoder(cache.user), cache, d, sent.packets)
        return join_bytes(pieces)[: cache.file_lengths[d[cache.user - 1] - 1]]

    def point(self, cfg: NetworkConfig, cache: Cache,
              packets: Iterable[Sequence[Symbol]]) -> tuple[Fraction, Fraction]:
        """(M, R) occupied by one cache and one broadcast's packets, in file units."""
        f_sym = len(self.keys(cfg)) * cache.subfile_len
        return Fraction(cache.symbol_count, f_sym), Fraction(sum(map(len, packets)), f_sym)
