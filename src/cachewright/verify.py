"""Exhaustive decode verification over the demand set D.

For a given (N, K) and scheme, every user decodes every demand in D from its
own data, and any symbol that differs from the file is recorded as a failure.
Each subfile of the seeded library is one symbol of Z_p, a seeded byte reduced
mod p (at p >= 257 the byte itself), so every admissible prime can be swept.
model.demand_orbits yields each orbit of D as its first demand d; the orbit is
d under each relabelling s of the files, and demand s(d) on a library is demand
d on the library relabelled by s. So a run places every cache once on one
relabelled library, whose subfiles have a lane per relabelling (placement
commutes with relabelling files), and checks each orbit with one delivery and
one decoding per user of d, through Scheme.send and Scheme.recover, compiled
only where an orbit's pattern differs from the last one's (the corner scheme's
once per worker). A user's pieces are compared whole with the file it wants;
only a mismatch is read lane by lane, and only a failing lane i builds its
demand s_i(d), to name it. A piece the user caches is the library's own
subfile, so only decoded pieces compare by value. Workers, each given first
demands, rebuild the same library; failures merge in demand order.
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
from .model import NetworkConfig, demand_orbits, relabellings

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
    """Check the orbit of each first demand; also (M, R) of cache 1 and the first broadcast."""
    n, k, p, name, orbits = args
    scheme = SCHEMES[name]
    cfg = NetworkConfig(n, k, p)
    seeds = [random.Random(f"cachewright-{n}-{k}-{i}").randbytes(len(scheme.keys(cfg)))
             for i in range(n)]
    # each key's symbol by file index, padded into a bytes.translate table
    tables = [bytes([b % cfg.p for b in column]).ljust(256, b"\0") for column in zip(*seeds)]
    library, labels = [], relabellings(n)
    for j in range(1, n + 1):
        # file j's subfile under a key is that key's symbol in file s(j) for each relabelling s
        reads = bytes([s[j] - 1 for s in labels])
        data = b"".join([reads.translate(table) for table in tables])
        library.append(scheme.split(data if cfg.p >= 257 else tuple(data), cfg))
    files = [tuple(g.parts.values()) for g in library]  # each file's pieces in key order
    caches = scheme.place(library, cfg)
    failures, last = [], None
    for first in orbits:  # lane i is the first demand relabelled by labels[i]
        if (pattern := scheme.pattern(first, cfg)) != last:  # hold only this pattern's programs
            delivery, decoder = scheme.serving(cfg, pattern)
            decodings, last = [decoder(cache.user) for cache in caches], pattern
        sent = scheme.send(cfg, delivery, library, first)
        if first is orbits[0]:
            point = scheme.point(cfg, caches[0], sent.values())
        for cache, decoding in zip(caches, decodings):
            pieces = scheme.recover(cfg, decoding, cache, first, sent)
            wanted = files[first[cache.user - 1] - 1]
            if pieces != wanted:  # only a mismatch is read lane by lane
                failures += [{"demand": [s[f] for f in first], "user": cache.user,
                              "reason": "decoded bytes differ"} for s, got, want
                             in zip(labels, zip(*pieces), zip(*wanted)) if got != want]
    return len(orbits) * len(labels), failures, point


def run_verification(n: int, k: int, scheme: str = "new", jobs: int = 1,
                     p: int | None = None) -> VerifyReport:
    if scheme not in SCHEMES:
        raise ConfigMismatch(f"unknown scheme {scheme!r}; pick one of {tuple(SCHEMES)}")
    if jobs < 1:
        raise ConfigMismatch(f"jobs {jobs} is below 1")
    cfg = NetworkConfig(n, k, p)
    start = time.perf_counter()
    orbits = list(demand_orbits(cfg))  # chunk 0 starts with D's first demand
    jobs = min(jobs, len(orbits), os.cpu_count() or 1)
    chunks = [(n, k, cfg.p, scheme, orbits[i::jobs]) for i in range(jobs)]
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
