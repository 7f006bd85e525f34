"""Set-up shared by every test module."""

import sys
import warnings


def pytest_runtest_makereport(item, call):
    # When a Hypothesis test fails, its pytest plugin imports hypothesis.extra._patching to
    # report the example, and that imports libcst, whose own modules raise a
    # DeprecationWarning while they load. Under `-W error` the warning ends the run in
    # INTERNALERROR and the example is lost, so on a failure load the module first,
    # ignoring only DeprecationWarnings raised from libcst. This runs inside the plugin's
    # report hook, before its own import.
    if call.excinfo is None or "hypothesis.extra._patching" in sys.modules:
        return
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", category=DeprecationWarning, module=r"libcst(\.|$)")
        try:
            import hypothesis.extra._patching  # noqa: F401
        except ImportError:   # no hypothesis or no libcst: the plugin cannot import it either
            pass
