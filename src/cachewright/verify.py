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

from . import baselines, coded_placement
from .errors import ConfigMismatch
from .model import NetworkConfig, enumerate_demands

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


def _check_chunk(args) -> tuple[int, list[dict], tuple[Fraction, Fraction]]:
    """Check one run of demands; also (M, R) of cache 1 and the first broadcast."""
    n, k, p, name, chunk = args
    scheme = SCHEMES[name]
    cfg = NetworkConfig(n, k, p)
    plain = [random.Random(f"cachewright-{n}-{k}-{i}").randbytes(len(scheme.keys(cfg)))
             for i in range(n)]
    library = [scheme.split(blob, cfg) for blob in plain]
    caches = scheme.place(library, cfg)
    failures: list[dict] = []
    point = None
    # a pattern's demands one after another, so its K + 1 programs compile once
    for demand in sorted(chunk, key=lambda d: scheme.pattern(d, cfg)):
        sent = scheme.deliver(library, demand, cfg)
        point = point or scheme.point(cfg, caches[0], sent)
        for cache in caches:
            if scheme.decode(cache, sent, cfg) != plain[demand[cache.user - 1] - 1]:
                failures.append({"demand": list(demand), "user": cache.user,
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
