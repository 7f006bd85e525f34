"""The demand set D as the tests read it: model.demand_orbits flattened, in lexicographic order.

tests/test_model.py pins the flattened orbits to a brute-force filter of the N^K product.
"""

from __future__ import annotations

from cachewright.model import Demand, NetworkConfig, demand_orbits


def all_demands(cfg: NetworkConfig) -> list[Demand]:
    return sorted(d for orbit in demand_orbits(cfg) for d in orbit)
