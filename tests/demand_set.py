"""The demand set D as the tests read it: each first demand of model.demand_orbits under every
one of model.relabellings, sorted into lexicographic order.

tests/test_model.py pins the expanded orbits to a brute-force filter of the N^K product.
"""

from __future__ import annotations

from cachewright.model import Demand, NetworkConfig, demand_orbits, relabellings


def all_demands(cfg: NetworkConfig) -> list[Demand]:
    labels = relabellings(cfg.n)
    return sorted(tuple([s[f] for f in first]) for first in demand_orbits(cfg) for s in labels)
