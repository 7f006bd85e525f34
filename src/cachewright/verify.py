"""Exhaustive decode verification over the demand set D.

For a given (N, K) and scheme, every demand in D is delivered once and every
user decodes; any byte mismatch is recorded. The library content is
deterministic in (N, K), so independent workers rebuild identical state and
reports merge in demand order. One symbol per subfile keeps the sweep fast.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from multiprocessing import Pool
from typing import Callable

from . import baselines, coded_placement
from .errors import ConfigMismatch
from .model import NetworkConfig, demand_context, enumerate_demands, split_file


@dataclass(frozen=True)
class Scheme:
    """One linear scheme as the steps a sweep or a roundtrip runs.

    Each step looks its function up through its module when called, so a
    function replaced on the module (for tracing, say) is the one that runs.
    """

    split: Callable  # (data, cfg) -> SubfileGrid
    place: Callable  # (library, cfg, users=None) -> caches of those users, all by default
    deliver: Callable  # (library, demand, cfg, ctx) -> what is broadcast
    context: Callable  # (demand, cfg) -> per-demand state deliver and decode reuse
    decode: Callable  # (cache, sent, demand, cfg, ctx) -> bytes
    subfiles: Callable  # cfg -> subfiles per file
    sent_symbols: Callable  # sent -> broadcast symbols

    def point(self, cfg: NetworkConfig, library, cache, sent) -> tuple[Fraction, Fraction]:
        """(M, R) occupied by one cache and one broadcast, in file units."""
        f_sym = self.subfiles(cfg) * library[0].subfile_len
        return Fraction(cache.symbol_count, f_sym), Fraction(self.sent_symbols(sent), f_sym)


SCHEMES = {
    "new": Scheme(
        split=lambda data, cfg: split_file(data, cfg),
        place=lambda library, cfg, users=None: coded_placement.place(library, cfg, users=users),
        deliver=lambda library, d, cfg, ctx: coded_placement.deliver(library, d, cfg, ctx),
        context=lambda demand, cfg: demand_context(demand, cfg),
        decode=lambda cache, sent, d, cfg, ctx: coded_placement.decode(cache, sent, cfg, ctx),
        subfiles=lambda cfg: cfg.subfiles_per_file,
        sent_symbols=lambda sent: sent.symbol_count),
    "man": Scheme(
        split=lambda data, cfg: baselines.man_split(data, cfg),
        place=lambda library, cfg, users=None: baselines.man_place(library, cfg, users=users),
        deliver=lambda library, d, cfg, ctx: baselines.man_deliver(library, d, cfg),
        context=lambda demand, cfg: None,
        decode=lambda cache, sent, d, cfg, ctx: baselines.man_decode(cache, sent, d, cfg),
        subfiles=lambda cfg: cfg.k,
        sent_symbols=len),
}


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


def _deterministic_blob(n: int, k: int, index: int, length: int) -> bytes:
    return random.Random(f"cachewright-{n}-{k}-{index}").randbytes(length)


def _check_chunk(args) -> tuple[int, list[dict], tuple[Fraction, Fraction]]:
    """Check one run of demands; also (M, R) of cache 1 and the first broadcast."""
    n, k, p, name, chunk = args
    scheme = SCHEMES[name]
    cfg = NetworkConfig(n, k, p)
    plain = [_deterministic_blob(n, k, i, scheme.subfiles(cfg)) for i in range(n)]
    library = [scheme.split(blob, cfg) for blob in plain]
    caches = scheme.place(library, cfg)
    failures: list[dict] = []
    point = None
    for demand in chunk:
        ctx = scheme.context(demand, cfg)
        sent = scheme.deliver(library, demand, cfg, ctx)
        point = point or scheme.point(cfg, library, caches[0], sent)
        for user in range(1, k + 1):
            got = scheme.decode(caches[user - 1], sent, demand, cfg, ctx)
            if got != plain[demand[user - 1] - 1]:
                failures.append({"demand": list(demand), "user": user,
                                 "reason": "decoded bytes differ"})
    return len(chunk), failures, point


def run_verification(n: int, k: int, scheme: str = "new", jobs: int = 1,
                     p: int | None = None) -> VerifyReport:
    if scheme not in SCHEMES:
        raise ConfigMismatch(f"unknown scheme {scheme!r}; pick one of {tuple(SCHEMES)}")
    cfg = NetworkConfig(n, k, p or 0)
    start = time.perf_counter()
    demands = list(enumerate_demands(cfg))
    jobs = max(1, min(jobs, len(demands), os.cpu_count() or 1))
    if jobs == 1:
        results = [_check_chunk((n, k, cfg.p, scheme, demands))]
    else:
        size = -(-len(demands) // jobs)
        chunks = [demands[i:i + size] for i in range(0, len(demands), size)]
        with Pool(processes=len(chunks)) as pool:
            results = pool.map(_check_chunk,
                               [(n, k, cfg.p, scheme, c) for c in chunks])
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
