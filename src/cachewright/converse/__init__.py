"""Entropy-inequality certificates for cache-network lower bounds.

The package names its entry points; every other name is imported from the
module that defines it.
"""

from .case1 import case1_certificate
from .case2 import case2_certificate
from .certificate import check_certificate, parse_certificate, perturbed, serialize_certificate
from .tightness import tightness_check
