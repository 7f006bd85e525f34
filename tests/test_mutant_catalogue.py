"""The mutant catalogue, tools/mutants.json, still applies to the sources; tools/mutants.py
runs it outside this suite."""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_each_mutant_replaces_text_that_occurs_once_in_its_file():
    entries = json.loads((ROOT / "tools" / "mutants.json").read_text())
    assert len({entry["id"] for entry in entries}) == len(entries)
    for entry in entries:
        source = (ROOT / "src" / "cachewright" / entry["file"]).read_text()
        assert source.count(entry["text"]) == 1, entry["id"]
        assert entry["replacement"] != entry["text"] and entry["tests"], entry["id"]
