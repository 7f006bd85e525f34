"""The package's import graph runs one way: tradeoff uses converse, schemes use the engine."""

from __future__ import annotations

import ast
import subprocess
import sys
import types
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


def _loaded_after(module: str, prelude: str = "") -> set[str]:
    code = prelude + f"import sys; import {module}; print(' '.join(sorted(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], cwd=SRC,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_the_package_root_loads_no_submodule():
    assert {m for m in _loaded_after("cachewright") if m.startswith("cachewright.")} == set()


def test_the_proof_half_loads_nothing_from_the_data_plane():
    loaded = _loaded_after("cachewright.converse, cachewright.tradeoff")
    outside = {m for m in loaded
               if m.startswith("cachewright.") and not m.startswith("cachewright.converse")}
    assert outside == {"cachewright.tradeoff", "cachewright.errors"}
    assert "multiprocessing" not in loaded


@pytest.mark.parametrize("name", ["field", "model", "scheme", "coded_placement", "baselines",
                                  "verify"])
def test_the_data_plane_loads_nothing_from_the_proof_half(name):
    loaded = _loaded_after(f"cachewright.{name}")
    assert {"cachewright.converse", "cachewright.tradeoff"} & loaded == set()


def test_the_engine_imports_no_scheme():
    loaded = _loaded_after("cachewright.scheme")
    for name in ("coded_placement", "baselines", "verify", "cli"):
        assert f"cachewright.{name}" not in loaded


@pytest.mark.parametrize("module", ["cachewright.coded_placement", "cachewright.baselines"])
def test_each_scheme_runs_on_the_engine(module):
    assert "cachewright.scheme" in _loaded_after(module)


def test_the_certificate_checker_loads_only_the_converse_core():
    # converse/__init__ re-exports the generators, so a bare package stands in for it
    bare = ("import sys, types; sub = types.ModuleType('cachewright.converse'); "
            "sub.__path__ = ['cachewright/converse']; sys.modules['cachewright.converse'] = sub; ")
    loaded = {m for m in _loaded_after("cachewright.converse.certificate", bare)
              if m.startswith("cachewright.")}
    assert loaded == {"cachewright.converse", "cachewright.converse.certificate",
                      "cachewright.converse.axioms", "cachewright.converse.entropy",
                      "cachewright.errors"}


ENTRY_POINTS = {"case1_certificate", "case2_certificate", "check_certificate",
                "parse_certificate", "serialize_certificate", "perturbed", "tightness_check"}


def test_the_converse_package_binds_only_its_entry_points():
    import cachewright.converse as converse
    public = {name for name, value in vars(converse).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == ENTRY_POINTS


def _imported_modules(path: Path):
    """The absolute name of every module an import statement in path reads from."""
    package = list(path.relative_to(SRC).parent.parts)
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            yield ".".join(base + ([node.module] if node.module else []))


def test_no_module_imports_from_the_converse_package_root():
    for path in sorted((SRC / "cachewright").rglob("*.py")):
        assert "cachewright.converse" not in set(_imported_modules(path)), path.name


def test_cli_and_tradeoff_reach_the_bound_families_only_through_the_table():
    names = [f"{prefix}{case}{suffix}" for case in (1, 2)
             for prefix, suffix in (("in_case", "_range"), ("case", "_target"),
                                    ("case", "_certificate"))]
    for module in ("cli.py", "tradeoff.py"):
        source = (SRC / "cachewright" / module).read_text()
        assert [name for name in names if name in source] == [], module


# what the rest of the package may take from field; how a vector is stored stays inside it
_FIELD_NAMES = {"FieldCtx", "Symbol", "make_field", "default_modulus", "join_bytes"}


def test_only_the_field_knows_how_its_vectors_are_stored():
    for path in sorted((SRC / "cachewright").rglob("*.py")):
        if path.name == "field.py" and path.parent.name == "cachewright":
            continue
        source = path.read_text()
        assert "Lanes" not in source, path.name
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                assert not any(a.name.endswith(".field") for a in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                if (node.module or "").split(".")[-1] == "field":
                    assert names <= _FIELD_NAMES, (path.name, names - _FIELD_NAMES)
                elif node.level and node.module is None:  # from . import field
                    assert "field" not in names, path.name


def test_only_the_field_reduces_and_verify_runs_no_program_itself():
    for module in ("coded_placement.py", "baselines.py"):
        source = (SRC / "cachewright" / module).read_text()
        assert [text for text in ("cfg.p", "% p") if text in source] == [], module
    source = (SRC / "cachewright" / "verify.py").read_text()
    assert [text for text in ("run(", ".delivery(", ".decoding(") if text in source] == []


def _names_by_scope(tree: ast.AST, name: str, scope: tuple[str, ...] = ()):
    """(the dotted def/class scope, Load or Store) of each use of the bare name under tree."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, ast.Name) and child.id == name:
            yield ".".join(scope), type(child.ctx).__name__
        inner = (*scope, child.name) if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else scope
        yield from _names_by_scope(child, name, inner)


def test_only_pack_decides_whether_a_vector_is_packed():
    tree = ast.parse((SRC / "cachewright" / "field.py").read_text())
    assert sorted(_names_by_scope(tree, "_PACKED_MIN")) == [("", "Store"),
                                                            ("FieldCtx.pack", "Load")]
    for path in sorted((SRC / "cachewright").rglob("*.py")):
        if path.name != "field.py":
            assert "_PACKED_MIN" not in path.read_text(), path.name
