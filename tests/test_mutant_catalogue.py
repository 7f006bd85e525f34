"""The mutant catalogue, tools/mutants.json, still applies to the sources and names tests
that exist; tools/mutants.py runs it outside this suite."""

from __future__ import annotations

import ast
import importlib.util
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


def test_each_mutant_names_tests_that_exist():
    # a test id pytest cannot find stops tools/mutants.py, so check each one here, unrun
    entries = json.loads((ROOT / "tools" / "mutants.json").read_text())
    for entry in entries:
        for test in entry["tests"]:
            path, _, name = test.partition("::")
            assert path.startswith("tests/") and (ROOT / path).is_file(), (entry["id"], test)
            defined = {node.name for node in ast.parse((ROOT / path).read_text()).body
                       if isinstance(node, ast.FunctionDef)}
            assert name.split("[")[0] in defined, (entry["id"], test)


def test_a_test_id_that_names_no_test_is_a_catalogue_error(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    misspelt = "tests/test_verify.py::test_jobs_capped_at_cpu_counts"
    catalogue = tmp_path / "mutants.json"
    catalogue.write_text(json.dumps([{"id": "misspelt", "file": "verify.py",
                                      "text": "if jobs == 1:", "replacement": "if jobs == 0:",
                                      "tests": [misspelt]}]))
    monkeypatch.setattr(mutants, "CATALOGUE", catalogue)
    assert mutants.main([]) == 2
    assert capsys.readouterr().err == f"error: misspelt: pytest finds no test {misspelt}\n"
