"""The package's import graph runs one way: tradeoff uses converse, never back."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("first", ["cachewright.tradeoff", "cachewright.converse"])
def test_each_side_imports_first_in_a_fresh_interpreter(first):
    code = f"import {first}; import cachewright.converse.tightness; print('ok')"
    result = subprocess.run([sys.executable, "-c", code], cwd=SRC,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"


def test_tightness_does_not_reference_tradeoff():
    source = (SRC / "cachewright" / "converse" / "tightness.py").read_text()
    assert "tradeoff" not in source
