"""The closed-form corners in converse.tightness refuse what they do not describe."""

from __future__ import annotations

from fractions import Fraction

import pytest

from cachewright.converse.tightness import rate_chen, rate_yu, scheme_point, yu_point
from cachewright.errors import OutOfRange


@pytest.mark.parametrize("call, message", [
    (lambda: rate_yu(5, 4, 2), "need 1 <= N <= K, got (5, 4)"),
    (lambda: rate_yu(0, 4, 2), "need 1 <= N <= K, got (0, 4)"),
    (lambda: rate_yu(2, 4, 5), "corner index 5 outside [0, 4]"),
    (lambda: rate_yu(2, 4, -1), "corner index -1 outside [0, 4]"),
    (lambda: yu_point(2, 4, 5), "corner index 5 outside [0, 4]"),
    (lambda: rate_chen(5, 4, Fraction(0)), "need 1 <= N <= K, got (5, 4)"),
    (lambda: rate_chen(2, 4, Fraction(-1, 4)), "M=-1/4 outside [0, 1/4]"),
    (lambda: scheme_point(5, 4), "need 1 <= N <= K, got (5, 4)"),
    (lambda: scheme_point(1, 1), "rate 1/(K-1) needs K >= 2"),
], ids=["yu-n-above-k", "yu-no-file", "yu-r-above-k", "yu-r-negative", "yu-point-r-above-k",
        "chen-n-above-k", "chen-negative-memory", "point-n-above-k", "point-one-user"])
def test_each_closed_form_refuses_parameters_outside_its_range(call, message):
    with pytest.raises(OutOfRange) as exc:
        call()
    assert str(exc.value) == message
