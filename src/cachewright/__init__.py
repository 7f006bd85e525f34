"""Coded caching for the (N, K) broadcast network: schemes, curves, proofs.

The package provides a coded-placement scheme reaching rate 1/(K-1), the
classical corner scheme at M = N(K-1)/K, exact rate-memory tradeoff curves
for large caches, and a generator/checker pair for the entropy-inequality
certificates that establish the matching lower bounds.
"""

from .coded_placement import decode, deliver, place
from .converse.tightness import scheme_point
from .model import NetworkConfig, SubfileGrid, enumerate_demands, split_file
from .scheme import Broadcast, Cache
from .tradeoff import assemble_known_curve, emit_csv, exact_tradeoff, lower_envelope
from .verify import VerifyReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "Broadcast", "Cache", "decode", "deliver", "place", "scheme_point",
    "NetworkConfig", "SubfileGrid", "enumerate_demands", "split_file",
    "assemble_known_curve", "emit_csv", "exact_tradeoff", "lower_envelope",
    "VerifyReport", "run_verification",
    "__version__",
]
