"""The Maddah-Ali--Niesen corner scheme MAN at M = N(K-1)/K.

Each file is cut into K pieces indexed by the excluded user, every cache
stores the K-1 pieces that mention its owner, and delivery is the single
packet summing W_{d_k}^{[K] minus k} over k. User k's decoder names only
piece k, which it takes from that packet; the cache holds the others under
their keys. The corner's closed form, and every other rate formula the tradeoff
curves use, lives in converse.tightness.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from .errors import ConfigMismatch
from .model import NetworkConfig
from .scheme import Scheme


def _caching(cfg: NetworkConfig, k: int) -> dict:
    """Every piece that mentions user k, of every file, kept under (f-1, e)."""
    if cfg.k < 2:
        raise ConfigMismatch("the K-1 subset split is degenerate for K = 1")
    return {(f, e): ((1, (f, e)),) for f in range(cfg.n) for e in range(1, cfg.k + 1) if e != k}


def _serving(cfg: NetworkConfig, pattern) -> tuple[dict, Callable[[int], dict]]:
    """One packet of F/K symbols, valid for every demand, not only D; user k's decoder takes
    piece k from it, less the cached pieces of the others' files."""
    delivery = {0: tuple((1, (u - 1, u)) for u in range(1, cfg.k + 1))}
    return delivery, partial(_decoding, cfg)


def _decoding(cfg: NetworkConfig, k: int) -> dict:
    missing = ((1, (cfg.k, 0)),) + tuple((-1, (j - 1, j)) for j in range(1, cfg.k + 1) if j != k)
    return {k: missing}


# K pieces keyed 1..K, piece e the one user e does not cache; no program reads the demand
MAN = Scheme(keys=lambda cfg: tuple(range(1, cfg.k + 1)), pattern=lambda d, cfg: (),
             caching=_caching, serving=_serving)
