"""One data plane for every linear scheme: coefficient programs and the engine that runs them.

A scheme is its split keys, which FieldCtx.split cuts a file by, plus two compilers of
programs, each a dict from a result's name to its step, a tuple of (coefficient, (slot, name))
terms. Coefficients are plain integers, dividing only through cfg.field.inv; `run` makes one
FieldCtx.combine per step, which alone reduces them, copies a step of one term with
coefficient 1, and stores each result under its name in the last slot, where later steps read
it. caching(cfg, user) reads file f at slot f-1 and names a packet (f-1, key), or (N, name) if
it mixes files. serving(cfg, pattern) compiles a pattern's delivery, and returns a decoder
that compiles one user's program per call. Delivery reads the file user u requests at slot u-1
and names a packet by its position on the wire. User k's decoder reads what the user caches of
that file at slot u-1, the broadcast at K, its cache's slot N at K+1 and its own results at
K+2, and names each piece of the wanted file by its key. Both read a demand only through the
scheme's pattern of it. A Scheme keeps no programs: a caller that runs one pattern's programs
many times compiles them once and holds them itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .errors import ConfigMismatch, LengthMismatch
from .field import FieldCtx, Symbol, join_bytes
from .model import Demand, NetworkConfig, SubfileGrid, split_file, validate_demand, validate_users


def run(program: dict, slots: list, field: FieldCtx) -> dict:
    """Run the steps in order, storing each under its name in the last slot; return that."""
    out = slots[-1]
    for name, step in program.items():
        if len(step) == 1 and step[0][0] == 1:
            s, key = step[0][1]
            out[name] = slots[s][key]
        else:
            out[name] = field.combine([(c, slots[s][key]) for c, (s, key) in step])
    return out


@dataclass
class Cache:
    """One user's cache: parts[f-1] maps key to packet for file f alone, parts[N] mixes files."""

    user: int
    parts: tuple[dict, ...]
    file_lengths: tuple[int, ...]
    subfile_len: int

    @property
    def symbol_count(self) -> int:
        return sum(map(len, self.parts)) * self.subfile_len


@dataclass
class Broadcast:
    """The packets sent for one demand."""

    demand: Demand
    packets: tuple[Sequence[Symbol], ...]

    @property
    def symbol_count(self) -> int:
        return sum(len(p) for p in self.packets)


@dataclass(frozen=True)
class Scheme:
    """A linear scheme as its split keys and the compilers of its programs."""

    keys: Callable  # cfg -> the keys a file is split under, in file order
    # (demand, cfg) -> what the programs read of a demand; raises if unserved. It must be
    # constant on each orbit of model.demand_orbits: verify asks only an orbit's first demand
    pattern: Callable
    caching: Callable  # (cfg, user) -> {(slot, key) in the cache: step}
    # (cfg, pattern) -> ({position on the wire: step}, user -> {name: step}); a decoder
    # names every key and compiles its user's program on each call
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
        files = [g.parts for g in library]
        lengths = tuple(g.original_length for g in library)
        caches = []
        for user, program in programs:
            parts = tuple({} for _ in range(cfg.n + 1))
            for (slot, key), packet in run(program, [*files, {}], cfg.field).items():
                parts[slot][key] = packet
            caches.append(Cache(user, parts, lengths, sub_len))
        return caches

    def send(self, cfg: NetworkConfig, delivery: dict, requested: Sequence) -> dict:
        """The broadcast packets by position; slot u-1 is requested[u-1], what user u requests."""
        return run(delivery, [*requested, {}], cfg.field)

    def recover(self, cfg: NetworkConfig, decoding: dict, held: Sequence,
                sent: Sequence | dict, mixed: dict) -> dict:
        """One user's results by name, the wanted file's pieces under its keys, decoded from the
        broadcast sent, its cache's mixed packets, and held[u-1]: what it caches of the file
        user u requests."""
        return run(decoding, [*held, sent, mixed, {}], cfg.field)

    def deliver(self, library: list[SubfileGrid], demand, cfg: NetworkConfig) -> Broadcast:
        d = validate_demand(demand, cfg)
        delivery, _ = self.serving(cfg, self.pattern(d, cfg))
        self._subfile_len(library, cfg)
        packets = self.send(cfg, delivery, [library[f - 1].parts for f in d])
        return Broadcast(d, tuple(packets.values()))

    def decode(self, cache: Cache, sent: Broadcast, cfg: NetworkConfig) -> bytes:
        d = validate_demand(sent.demand, cfg)
        delivery, decoder = self.serving(cfg, self.pattern(d, cfg))
        if len(sent.packets) != len(delivery):
            raise ConfigMismatch(
                f"broadcast holds {len(sent.packets)} packets, not {len(delivery)}")
        if set(map(len, sent.packets)) != {cache.subfile_len}:
            raise LengthMismatch("broadcast and cache subfile lengths differ")
        out = self.recover(cfg, decoder(cache.user), [cache.parts[f - 1] for f in d],
                           sent.packets, cache.parts[-1])
        pieces = itemgetter(*self.keys(cfg))(out)
        return join_bytes(pieces)[: cache.file_lengths[d[cache.user - 1] - 1]]

    def point(self, cfg: NetworkConfig, cache: Cache, sent: Broadcast) -> tuple[Fraction, Fraction]:
        """(M, R) occupied by one cache and one broadcast, in file units."""
        f_sym = len(self.keys(cfg)) * cache.subfile_len
        return Fraction(cache.symbol_count, f_sym), Fraction(sent.symbol_count, f_sym)
