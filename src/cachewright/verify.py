"""Exhaustive decode verification over the demand set D.

For a given (N, K) and scheme, every user decodes every demand in D from its
own data, and any symbol that differs from the file is recorded as a failure.
Each subfile is one symbol of Z_p, a seeded byte reduced mod p (at p >= 257 the
byte itself), so every admissible prime can be swept. A scheme's programs
read a demand only through its pattern, which is constant on each orbit of D
under relabelling the files, so the sweep takes D orbit by orbit from
model.demand_orbits, asks each orbit its pattern once, and merges orbits of
equal pattern into one group. A group's demands are its columns: a slot's
subfile is the vector of that subfile's symbol over the group's demands. A
group compiles its pattern's programs itself and drops them when it ends; it
runs the delivery once and each user's decoder once, so a wide group makes
long vectors, which FieldCtx.combine may keep packed. An orbit lists its
relabellings in one fixed order, so groups share columns: a run gathers each
subfile of a column once, from the library or from one user's cache, and
packs it with FieldCtx.pack; the gathers live only as long as the run. The
library content is deterministic in (N, K), so workers, each given whole
patterns, rebuild identical state, and failures merge in demand order.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from multiprocessing import Pool
from operator import itemgetter

from . import baselines, coded_placement
from .errors import ConfigMismatch
from .model import Demand, NetworkConfig, demand_orbits
from .scheme import Cache

SCHEMES = {"new": coded_placement.NEW, "man": baselines.MAN}


@dataclass
class VerifyReport:
    config: dict
    demands_checked: int
    failures: list[dict] = field(default_factory=list)
    wall_time: float = 0.0
    memory: Fraction = Fraction(0)
    rate: Fraction = Fraction(0)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "demands_checked": self.demands_checked,
            "failures": self.failures,
            "measured": {"M": str(self.memory), "R": str(self.rate)},
            "wall_time": round(self.wall_time, 6),
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def _by_key(files) -> dict:
    """Each key of the one-symbol subfiles files[f], mapped to its symbol in every file."""
    return {key: tuple([part[key][0] for part in files]) for key in files[0]}


class _Memo(dict):
    """A dict that makes each missing entry once, as make(key), on its first read."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _columns(symbols: dict, pack) -> _Memo:
    """Each column, a file index per demand, mapped to {key: that subfile's symbol per demand,
    packed}; symbols maps a key to its symbol in every file. A column, and each key a program
    reads of it, is built once, on its first read."""
    def column(c: tuple[int, ...]) -> _Memo:
        pick = itemgetter(*c) if len(c) > 1 else lambda s: (s[c[0]],)
        return _Memo(lambda key: pack(pick(symbols[key])))
    return _Memo(column)


def _check_group(scheme, cfg: NetworkConfig, library: _Memo,
                 caches: list[tuple[Cache, _Memo, _Memo]], group: list[Demand]) -> list[dict]:
    """Deliver and decode one pattern's demands together, one column per demand."""
    delivery, decoder = scheme.serving(cfg, scheme.pattern(group[0], cfg))
    columns = [tuple(f - 1 for f in files) for files in zip(*group)]  # slot u-1's, per user u
    requested = [library[c] for c in columns]
    sent = scheme.send(cfg, delivery, requested)
    wanted = itemgetter(*scheme.keys(cfg))  # each piece of a file, in key order
    failures = []
    for cache, held, mixed in caches:
        pieces = wanted(scheme.recover(cfg, decoder(cache.user), [held[c] for c in columns],
                                       sent, mixed[(0,) * len(group)]))
        plain = wanted(requested[cache.user - 1])
        # the pieces are compared whole, and only a mismatch is transposed into columns
        if pieces != plain:
            for demand, got, want in zip(group, zip(*pieces), zip(*plain)):
                if got != want:
                    failures.append({"demand": list(demand), "user": cache.user,
                                     "reason": "decoded bytes differ"})
    return failures


def _check_chunk(args) -> tuple[int, list[dict], tuple[Fraction, Fraction]]:
    """Check whole patterns' demands; also (M, R) of cache 1 and the first demand's broadcast."""
    n, k, p, name, groups = args
    scheme = SCHEMES[name]
    cfg = NetworkConfig(n, k, p)
    seeds = [random.Random(f"cachewright-{n}-{k}-{i}") for i in range(n)]
    plain = [tuple(b % p for b in rng.randbytes(len(scheme.keys(cfg)))) for rng in seeds]
    library = [scheme.split(symbols, cfg) for symbols in plain]
    caches = scheme.place(library, cfg)
    point = scheme.point(cfg, caches[0], scheme.deliver(library, groups[0][0], cfg))
    gathered = _columns(_by_key([g.parts for g in library]), cfg.field.pack)
    # a cache's slot N read as one file, so file 0's column at a group's width repeats each packet
    held = [(cache, _columns(_by_key(cache.parts[:n]), cfg.field.pack),
             _columns(_by_key(cache.parts[-1:]), cfg.field.pack)) for cache in caches]
    failures = [f for group in groups for f in _check_group(scheme, cfg, gathered, held, group)]
    return sum(map(len, groups)), failures, point


def run_verification(n: int, k: int, scheme: str = "new", jobs: int = 1,
                     p: int | None = None) -> VerifyReport:
    if scheme not in SCHEMES:
        raise ConfigMismatch(f"unknown scheme {scheme!r}; pick one of {tuple(SCHEMES)}")
    if jobs < 1:
        raise ConfigMismatch(f"jobs {jobs} is below 1")
    cfg = NetworkConfig(n, k, p)
    start = time.perf_counter()
    by_pattern: dict = {}
    for orbit in demand_orbits(cfg):
        by_pattern.setdefault(SCHEMES[scheme].pattern(orbit[0], cfg), []).extend(orbit)
    # in order of first appearance, so chunk 0 starts with D's first demand
    groups = list(by_pattern.values())
    jobs = min(jobs, len(groups), os.cpu_count() or 1)
    chunks = [(n, k, cfg.p, scheme, groups[i::jobs]) for i in range(jobs)]
    if jobs == 1:
        results = [_check_chunk(chunks[0])]
    else:
        with Pool(processes=jobs) as pool:
            results = pool.map(_check_chunk, chunks)
    failures = [f for _, fs, _ in results for f in fs]
    failures.sort(key=lambda f: (f["demand"], f["user"]))
    memory, rate = results[0][2]
    return VerifyReport(
        config={"k": k, "n": n, "p": cfg.p, "scheme": scheme},
        demands_checked=sum(c for c, _, _ in results),
        failures=failures,
        wall_time=time.perf_counter() - start,
        memory=memory,
        rate=rate,
    )
