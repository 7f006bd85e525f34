"""The package's import graph runs one way: tradeoff uses converse, schemes use the engine;
and every top-level name under src/ is read there or is an entry point with its reason."""

from __future__ import annotations

import ast
import json
import random
import re
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
    # the rule is on imports: tightness may name tradeoff in prose, but never loads it
    path = SRC / "cachewright" / "converse" / "tightness.py"
    assert "cachewright.tradeoff" not in set(_imported_modules(path))
    loaded = _loaded_after("cachewright.converse.tightness", then=(
        "from cachewright.converse.tightness import FAMILIES, tightness_check\n"
        "assert tightness_check(3, 4).tight\n"
        "assert [f.case for f in FAMILIES if f.in_range(3, 5)] == [1, 2]\n"
        "for f in FAMILIES:\n"
        "    f.certificate(3, 5)"))
    assert "cachewright.converse.case2" in loaded and "cachewright.tradeoff" not in loaded


def _loaded_after(module: str, then: str = "") -> set[str]:
    """The modules loaded in a fresh interpreter once it has imported module and run then."""
    code = f"import sys; import {module}\n{then}\nprint(' '.join(sorted(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], cwd=SRC,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_the_package_root_loads_no_submodule():
    assert {m for m in _loaded_after("cachewright") if m.startswith("cachewright.")} == set()


def test_the_proof_half_loads_nothing_from_the_data_plane():
    # the entry points load on first use, so the test calls one from each side
    loaded = _loaded_after("cachewright.converse, cachewright.tradeoff", then=(
        "cachewright.tradeoff.assemble_known_curve(2, 3)\n"
        "from cachewright import converse\n"
        "assert converse.check_certificate(converse.case1_certificate(3, 4)).ok"))
    outside = {m for m in loaded
               if m.startswith("cachewright.") and not m.startswith("cachewright.converse")}
    assert outside == {"cachewright.tradeoff", "cachewright.errors"}
    assert "multiprocessing" not in loaded


@pytest.mark.parametrize("module", ["cachewright.cli", "cachewright.verify"])
def test_importing_the_entry_points_loads_no_worker_pool(module):
    assert "multiprocessing" not in _loaded_after(module)


def test_importing_the_proof_half_loads_no_converse_submodule():
    loaded = _loaded_after("cachewright.cli, cachewright.converse, cachewright.tradeoff")
    assert {m for m in loaded if m.startswith("cachewright.converse.")} == set()


def _loaded_by_command(tmp_path, command: str) -> set[str]:
    """The modules loaded in a fresh interpreter once cli.main has run a roundtrip, converse
    --dump or tradeoff at (3,4), or `verify --n 2 --k 3`; the roundtrip must give back its
    input, and the dump must hold a certificate."""
    source, out, dump = tmp_path / "in.bin", tmp_path / "out.bin", tmp_path / "cert.txt"
    source.write_bytes(bytes(range(256)) * 8)
    argv, runs = {
        "roundtrip": (["roundtrip", "--n", "3", "--k", "4", "--demand", "1,2,3,1", "--user", "2",
                       str(source), "--out", str(out)], "cachewright.verify"),
        "verify": (["verify", "--n", "2", "--k", "3"], "cachewright.verify"),
        "converse": (["converse", "--n", "3", "--k", "4", "--dump", str(dump)],
                     "cachewright.converse.tightness"),
        "tradeoff": (["tradeoff", "--n", "3", "--k", "4"], "cachewright.converse.tightness"),
    }[command]
    loaded = _loaded_after("cachewright.cli", then=(
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cachewright.cli.main({argv!r}) == 0"))
    assert runs in loaded
    if command == "roundtrip":
        assert out.read_bytes() == source.read_bytes()
    if command == "converse":
        assert dump.read_text(encoding="utf-8").startswith("NK 3 4 CASE 1\n")
    return loaded


@pytest.mark.parametrize("command", ["roundtrip", "verify"])
def test_the_data_plane_commands_load_nothing_from_the_proof_half(tmp_path, command):
    loaded = _loaded_by_command(tmp_path, command)
    assert {m for m in loaded if m.startswith(("cachewright.converse", "cachewright.tradeoff"))
            } == set()


@pytest.mark.parametrize("command", ["roundtrip", "verify"])
def test_the_data_plane_commands_load_no_dataclasses(tmp_path, command):
    # dataclasses imports inspect, and with it ast, dis and tokenize
    assert {"dataclasses", "inspect"} & _loaded_by_command(tmp_path, command) == set()


@pytest.mark.parametrize("command", ["converse", "tradeoff"])
def test_the_proof_half_commands_load_no_dataclasses(tmp_path, command):
    assert {"dataclasses", "inspect"} & _loaded_by_command(tmp_path, command) == set()


def test_a_curve_and_its_csv_load_no_dataclasses():
    loaded = _loaded_after("cachewright.tradeoff", then=(
        "curve = cachewright.tradeoff.lower_envelope([(0, 2), (1, 1), (3, 0)])\n"
        "assert cachewright.tradeoff.emit_csv(curve, 3).count('\\n') == 5"))
    assert "dataclasses" not in loaded


def test_no_source_module_imports_dataclasses():
    importers = [path.relative_to(SRC).as_posix() for path in sorted(SRC.rglob("*.py"))
                 if "dataclasses" in set(_imported_modules(path))]
    assert importers == []


def _verify_on_two_cpus(jobs: int) -> tuple[str, set[str]]:
    """The JSON report of `verify --n 2 --k 3 --jobs JOBS` without wall_time, run in a fresh
    interpreter whose os.cpu_count says 2, and the modules loaded when the run ended."""
    code = ("import contextlib, io, json, os, sys; os.cpu_count = lambda: 2\n"
            "from cachewright import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            f"    assert cli.main(['verify', '--n', '2', '--k', '3', '--jobs', '{jobs}']) == 0\n"
            "report = json.loads(out.getvalue()); del report['wall_time']\n"
            "print(json.dumps(report, sort_keys=True)); print(' '.join(sorted(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], cwd=SRC,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    report, loaded = result.stdout.splitlines()
    return report, set(loaded.split())


def test_only_a_verify_that_starts_workers_loads_the_worker_pool():
    serial, loaded = _verify_on_two_cpus(1)
    assert "multiprocessing" not in loaded
    parallel, loaded = _verify_on_two_cpus(2)
    assert "multiprocessing" in loaded
    assert parallel == serial and json.loads(serial)["demands_checked"] == 6


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
    loaded = {m for m in _loaded_after("cachewright.converse.certificate")
              if m.startswith("cachewright.")}
    assert loaded == {"cachewright.converse", "cachewright.converse.certificate",
                      "cachewright.converse.axioms", "cachewright.converse.entropy",
                      "cachewright.errors"}


def test_no_converse_module_calls_object_setattr():
    # what a certificate derives from its table is a plain property, not a hidden attribute
    for path in sorted((SRC / "cachewright" / "converse").rglob("*.py")):
        writes = [node for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                  and getattr(node.value, "id", None) == "object"]
        assert writes == [], path.name


# each entry point of the converse package, with the module that defines it
ENTRY_POINTS = {"case1_certificate": "case1", "case2_certificate": "case2",
                "check_certificate": "certificate", "parse_certificate": "certificate",
                "serialize_certificate": "certificate", "perturbed": "certificate",
                "tightness_check": "tightness"}

_BINDINGS = """
import importlib, json, types
import cachewright.converse as converse

def public():
    return sorted(name for name, value in vars(converse).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType))

before = public()
same = {name: getattr(converse, name) is getattr(
            importlib.import_module(f"cachewright.converse.{module}"), name)
        for name, module in ENTRY_POINTS.items()}
# hasattr is False only when the lookup raises AttributeError; any other error escapes
print(json.dumps([before, same, public(), hasattr(converse, "no_such_entry_point")]))
"""


def test_the_converse_package_binds_only_its_entry_points():
    result = subprocess.run([sys.executable, "-c", f"ENTRY_POINTS = {ENTRY_POINTS!r}{_BINDINGS}"],
                            cwd=SRC, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    before, same, after, unknown_bound = json.loads(result.stdout)
    assert before == []  # importing the package binds nothing
    assert same == dict.fromkeys(ENTRY_POINTS, True)
    assert after == sorted(ENTRY_POINTS)
    assert unknown_bound is False


def _imported_modules(path: Path):
    """The absolute name of every module an import statement in path reads from, and of each
    name a from-import takes, so that `from .. import tradeoff` yields cachewright.tradeoff."""
    package = list(path.relative_to(SRC).parent.parts)
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            source = ".".join(base + ([node.module] if node.module else []))
            yield source
            yield from (f"{source}.{alias.name}" for alias in node.names)


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
    # the engine and its schemes keep no programs between calls: no functools cache, and no
    # attribute set behind a frozen dataclass's back; a caller that reuses programs holds them
    for module in ("scheme.py", "coded_placement.py", "baselines.py"):
        source = (SRC / "cachewright" / module).read_text()
        assert "object.__setattr__" not in source, module
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                assert "functools" not in {alias.name for alias in node.names}, module
            elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                assert {alias.name for alias in node.names} <= {"partial"}, module


def _by_scope(tree: ast.AST, keep, scope: tuple[str, ...] = ()):
    """(the dotted def/class scope, node) of each node under tree that keep accepts."""
    for child in ast.iter_child_nodes(tree):
        if keep(child):
            yield ".".join(scope), child
        inner = (*scope, child.name) if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else scope
        yield from _by_scope(child, keep, inner)


def _names_by_scope(tree: ast.AST, name: str):
    """(the dotted def/class scope, Load or Store) of each use of the bare name under tree."""
    return [(scope, type(node.ctx).__name__) for scope, node in
            _by_scope(tree, lambda n: isinstance(n, ast.Name) and n.id == name)]


def test_only_pack_decides_whether_a_vector_is_packed():
    tree = ast.parse((SRC / "cachewright" / "field.py").read_text())
    # one 16-bit fold, x >> 16, and only Lanes.value makes lanes canonical with it
    folds = _by_scope(tree, lambda n: isinstance(n, ast.BinOp) and isinstance(n.op, ast.RShift)
                      and getattr(n.right, "value", None) == 16)
    assert [scope for scope, _ in folds] == ["Lanes.value"]
    # only pack builds a Lanes that keeps bytes, and only the kernel one that is pending,
    # each of which they can name only by keyword ...
    init = next(node for _, node in _by_scope(tree, lambda n: isinstance(n, ast.FunctionDef))
                if node.name == "__init__")
    assert [arg.arg for arg in init.args.kwonlyargs] == ["data", "pending"]
    built = list(_by_scope(
        tree, lambda n: isinstance(n, ast.Call) and getattr(n.func, "id", None) == "Lanes"))
    for keyword, builder in (("data", "FieldCtx.pack"), ("pending", "_combine_packed")):
        assert sorted(scope for scope, call in built
                      if any(k.arg in (keyword, None) for k in call.keywords)) == [builder]
    # ... and only Lanes.value turns those bytes into lanes; the kernel reads them through it
    assert sorted(_names_by_scope(tree, "_spread")) == [("Lanes.value", "Load")]
    # a pending sum is the kernel's own, reached through Lanes._sum alone, which the kernel and
    # value call when they first read its lanes; the kernel never calls itself, and a pending
    # term it meets is summed through _sum where it is read
    calls = list(_by_scope(tree, lambda n: isinstance(n, ast.Call)))
    assert sorted(scope for scope, call in calls
                  if getattr(call.func, "id", None) == "_combine_packed") == \
        ["FieldCtx.combine", "Lanes._sum"]
    assert sorted(scope for scope, call in calls
                  if getattr(call.func, "attr", None) == "_sum") == \
        ["Lanes.value", "_combine_packed", "_combine_packed"]
    # the kernel passes over a step once: a pending step is kept as it is, not checked first
    loops = _by_scope(tree, lambda n: isinstance(n, (ast.For, ast.AsyncFor)))
    assert [scope for scope, _ in loops].count("_combine_packed") == 1
    for path in sorted((SRC / "cachewright").rglob("*.py")):
        if path.name != "field.py":
            text = path.read_text()
            for name in ("_PACKED_MAX_TERMS", "_spread", "Lanes("):
                assert name not in text, (path.name, name)


def _module_name(path: Path, root: Path) -> str:
    parts = path.relative_to(root.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _defined(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each name a module's top-level def, class or assignment binds, with its statement;
    dunder names such as __version__ are the interpreter's, not the package's."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                defined.update((n.id, node) for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name: node for name, node in defined.items() if not name.startswith("__")}


def _unread(root: Path) -> set[str]:
    """The dotted name of each top-level name defined in the package at root that no code
    there reads: no other module imports it or reads it as module.name, and its own module
    loads it nowhere outside its own definition."""
    paths = {_module_name(path, root): path for path in sorted(root.rglob("*.py"))}
    trees = {module: ast.parse(path.read_text()) for module, path in paths.items()}
    defined = {module: _defined(tree) for module, tree in trees.items()}
    read = set()
    for module, tree in trees.items():
        package = list(paths[module].relative_to(root.parent).parent.parts)
        modules = {}  # a local name bound to a module of the package -> that module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                base = package[:len(package) - node.level + 1] if node.level else []
                source = ".".join(base + ([node.module] if node.module else []))
                for alias in node.names:
                    if f"{source}.{alias.name}" in trees:
                        modules[alias.asname or alias.name] = f"{source}.{alias.name}"
                    else:
                        read.add(f"{source}.{alias.name}")
        read |= {f"{modules[node.value.id]}.{node.attr}" for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in modules}
        for statement in tree.body:
            loaded = {n.id for n in ast.walk(statement)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            read |= {f"{module}.{name}" for name, node in defined[module].items()
                     if name in loaded and node is not statement}
    return {f"{module}.{name}" for module, names in defined.items() for name in names} - read


# top-level names that nothing under src/ reads, each with the reason it stays
UNREAD_BY_DESIGN = {
    "cachewright.coded_placement.place": "a library entry point README documents",
    "cachewright.coded_placement.deliver": "a library entry point README documents",
    "cachewright.coded_placement.decode": "a library entry point README documents",
    "cachewright.tradeoff.exact_tradeoff": "a library entry point README documents: R*(M)",
    "cachewright.tradeoff.lower_envelope": "a library entry point README documents: a hull",
    "cachewright.field.coded_to_wire": "only perfbench reads it; moves in ROADMAP item 14",
    "cachewright.tradeoff.emit_csv": "only perfbench reads it; moves in ROADMAP item 14",
}


def test_every_top_level_name_is_read_by_the_package_or_is_an_entry_point():
    assert _unread(SRC / "cachewright") == set(UNREAD_BY_DESIGN)


def test_the_scan_flags_exactly_a_name_nothing_reads(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "__init__.py").write_text("from .b import exported\n")
    (root / "a.py").write_text("def unused():\n    return unused\n\n\ndef imported():\n"
                               "    pass\n")
    (root / "b.py").write_text("from .a import imported\n\n\ndef exported():\n"
                               "    return imported()\n")
    assert _unread(root) == {"pkg.a.unused"}


def test_the_readme_library_example_runs():
    readme = (SRC.parent / "README.md").read_text()
    block = re.search(r"^## Library\n.*?^```python\n(.*?)^```", readme, re.S | re.M).group(1)
    rng = random.Random("readme-library")
    exec(compile(block, "README.md", "exec"), {"blobs": [rng.randbytes(200) for _ in range(3)]})
