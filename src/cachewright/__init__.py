"""Coded caching for the (N, K) broadcast network: schemes, curves, proofs.

The package provides a coded-placement scheme reaching rate 1/(K-1), the
classical corner scheme at M = N(K-1)/K, exact rate-memory tradeoff curves
for large caches, and a generator/checker pair for the entropy-inequality
certificates that establish the matching lower bounds. Each name is imported
from the module that defines it; importing the package alone loads nothing.
"""

__version__ = "0.1.0"
