"""Entropy-inequality certificates for cache-network lower bounds.

The package names its entry points; every other name is imported from the
module that defines it. The entry points are imported on the first lookup of
any of them, so importing the package alone loads no submodule.
"""


def __getattr__(name: str):
    from .case1 import case1_certificate
    from .case2 import case2_certificate
    from .certificate import check_certificate, parse_certificate, perturbed, serialize_certificate
    from .tightness import tightness_check
    for entry_point in (case1_certificate, case2_certificate, check_certificate,
                        parse_certificate, perturbed, serialize_certificate, tightness_check):
        globals()[entry_point.__name__] = entry_point
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
