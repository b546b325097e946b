"""``src/repro`` runs on the standard library alone.

Every process that imports the package pays for its import graph in
start-up time and resident memory (DESIGN §14, "Cold start"), so a
third-party import is a cost on all of them and has to be argued for,
not slipped in: this fails on any import under ``src/repro`` that is
neither the standard library nor this repository's own code, and on any
runtime dependency declared in ``pyproject.toml``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from tests.source_imports import imports_outside

ROOT = Path(__file__).resolve().parent.parent
# ``benchmarks`` is the repository's own experiment package, which
# ``repro.cli`` imports inside the commands that run an experiment.
ALLOWED = set(sys.stdlib_module_names) | {"repro", "benchmarks"}


def test_every_import_under_src_is_stdlib_or_first_party():
    offenders = imports_outside(ALLOWED.__contains__)
    assert not offenders, offenders


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project.get("dependencies", []) == []


def test_importing_every_module_loads_no_third_party_module():
    probe = (
        "import importlib, pkgutil, sys, repro\n"
        "for found in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    importlib.import_module(found.name)\n"
        "print(*sorted({name.split('.')[0] for name in sys.modules}"
        " - set(sys.stdlib_module_names) - {'repro', '__main__'}))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-B", "-c", probe], capture_output=True, text=True,
        env={"PYTHONPATH": str(ROOT / "src")}, check=True,
    )
    assert result.stdout.split() == []
