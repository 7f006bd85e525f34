"""Run the mutant catalogue: each mutant edits one line of src/cachewright, and its tests must fail.

    python3 tools/mutants.py                  # every mutant in tools/mutants.json
    python3 tools/mutants.py field-max-bound  # only the mutants named

A development tool, never imported by the package; standard library only. It copies src/,
tests/ and pyproject.toml into a temporary directory, runs every named test there once on
the unmutated code (each must pass), then applies one mutant at a time: the entry's text,
which must occur exactly once in its file, is replaced, the entry's tests run, and the file
is put back. A mutant is killed when every one of its tests fails, and survives otherwise.
Prints one line per mutant and the score; exits 0 when every mutant was killed, 1 when one
survived, and 2 when the catalogue or the unmutated run is wrong.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = Path(__file__).resolve().parent / "mutants.json"


def failed_tests(copy: Path, tests: list[str]) -> set[str]:
    """The node ids among tests that fail or error when pytest runs them in copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "--tb=no", "-rfE",
                             "-p", "no:cacheprovider", *tests], cwd=copy, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    summary = re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", result.stdout, re.MULTILINE)
    # an ERROR line may name a whole file that failed to import: every test in it failed
    failed = {test for test in tests for item in summary
              if test == item or test.startswith(item + "::")}
    if result.returncode not in (0, 1) and not failed:  # 1 is "some tests failed"
        raise RuntimeError(f"pytest exited {result.returncode}:\n{result.stdout}")
    return failed


def main(argv: list[str]) -> int:
    entries = json.loads(CATALOGUE.read_text())  # id, file, text, replacement, tests
    if argv:
        unknown = set(argv) - {entry["id"] for entry in entries}
        if unknown:
            print(f"error: no mutant named {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2
        entries = [entry for entry in entries if entry["id"] in argv]
    with tempfile.TemporaryDirectory(prefix="cachewright-mutants-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        every = sorted({test for entry in entries for test in entry["tests"]})
        broken = failed_tests(copy, every)
        if broken:
            print(f"error: these fail on the unmutated code: {sorted(broken)}", file=sys.stderr)
            return 2
        survived = []
        for entry in entries:
            path = copy / "src" / "cachewright" / entry["file"]
            source = path.read_text()
            if source.count(entry["text"]) != 1:
                print(f"error: {entry['id']}: its text does not occur exactly once in "
                      f"{entry['file']}", file=sys.stderr)
                return 2
            path.write_text(source.replace(entry["text"], entry["replacement"]))
            try:
                passed = set(entry["tests"]) - failed_tests(copy, entry["tests"])
            finally:
                path.write_text(source)
            if passed:
                survived.append(entry["id"])
                print(f"SURVIVED {entry['id']}: {len(passed)} of its tests passed: "
                      f"{sorted(passed)}")
            else:
                print(f"killed   {entry['id']} ({entry['file']})")
    print(f"score: {len(entries) - len(survived)} of {len(entries)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
