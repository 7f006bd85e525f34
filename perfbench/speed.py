"""A fixed pure-Python probe of how fast the machine runs Python right now.

On a shared virtual machine the speed of plain Python code drifts by a
factor of up to 1.7 over minutes with the load of other tenants, so wall
times of one commit taken minutes apart disagree by more than any useful
regression bound. The probe does a fixed amount of the kinds of work the
program does (tuple arithmetic modulo 257 like the `vec_*` helpers, dict
building like the per-demand bookkeeping, and `Fraction` sums like
`converse`) and never calls the program. Its data stays small, so what the
ops leave in the caches barely changes its time.
It is timed right before and right after each op, and each op's time is
reported at reference speed:

    wall time * REFERENCE_S / mean probe time around the op.

A change to the program moves the op's wall time and not the probe, so it
shows in full; a change in the machine's speed moves both and cancels.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The probe's median time on the machine the benchmark was built on (a
# 2-vCPU virtual machine, Python 3.11), so scaled times read close to the
# wall times seen there. A constant: the same on every commit.
REFERENCE_S = 0.0022

_A = tuple(range(1024))
_B = tuple(range(1024, 0, -1))


def _work() -> Fraction:
    coded = tuple((x * 3 + y) % 257 for x, y in zip(_A, _B))
    table = {i: v for i, v in enumerate(coded)}
    return sum((Fraction(table[i], i + 1) for i in range(64)), Fraction(0))


SMOOTHING = 6
SETUP_PROBES = 8


def scale(times: list[float], probes: list[float]) -> list[float]:
    """Each time at reference speed, against the mean probe time of its
    neighbourhood: the probes of the SMOOTHING ops on either side and its own.
    One 2 ms probe catches the machine in one of its short fast or slow
    spells; the mean over about 26 probes (2 s of ops) gives its speed."""
    out = []
    for i, t in enumerate(times):
        near = probes[max(0, i - SMOOTHING):i + SMOOTHING + 1]
        out.append(t * REFERENCE_S * len(near) / sum(near))
    return out


def probe(count: int = 1) -> float:
    """Mean seconds one fixed unit of probe work takes now, over count units."""
    start = time.perf_counter()
    for _ in range(4 * count):
        _work()
    return (time.perf_counter() - start) / count


