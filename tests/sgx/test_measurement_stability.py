"""An enclave's measurement is a property of its code, not of a process.

MRENCLAVE names what runs: two processes loading the same entry points
must compute the same measurement, or a verifier started in one process
refuses an enclave loaded in another.  The digest therefore covers no
memory address (nested code objects), file path or line number (a
checkout at another path), and no hash-seeded order (``frozenset``
constants).  The probe below imports every module under ``repro`` in a
fresh interpreter and prints every ``EnclaveCode`` measurement, plus the
measurement of every ``*_ENTRY_POINTS`` table; two runs under different
``PYTHONHASHSEED``\\ s, one importing a copy of the package at another
path, must print the same map.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from repro.sgx.enclave import EnclaveCode, measure_code

ROOT = Path(__file__).resolve().parent.parent.parent

PROBE = (
    "import importlib, json, pkgutil, repro\n"
    "from repro.sgx.enclave import EnclaveCode, measure_code\n"
    "found = {}\n"
    "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
    "    module = importlib.import_module(info.name)\n"
    "    for name, value in vars(module).items():\n"
    "        if isinstance(value, EnclaveCode):\n"
    "            found[value.name] = value.measurement\n"
    "        elif name.endswith('_ENTRY_POINTS') and isinstance(value, dict):\n"
    "            found[info.name + '.' + name] = measure_code(value, name)\n"
    "print(json.dumps(found, sort_keys=True))\n"
)


def measurements(src, hash_seed):
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
    result = subprocess.run(
        [sys.executable, "-B", "-c", PROBE], capture_output=True,
        text=True, env=env, check=True, cwd=str(src),
    )
    return json.loads(result.stdout)


def test_measurements_agree_across_hash_seeds_and_checkout_paths(tmp_path):
    copy = tmp_path / "elsewhere" / "src"
    shutil.copytree(
        ROOT / "src" / "repro", copy / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    here = measurements(ROOT / "src", "1")
    there = measurements(copy, "2")
    assert {"scbr-shard", "scbr-coordinator", "scbr-router",
            "service-gateway", "stream-shard", "stream-coordinator",
            "mapreduce-worker"} <= set(here)
    assert here == there


def test_nested_code_and_frozenset_constants_are_measured_by_content():
    def first(ctx, value):
        return [v for v in value if v in {"a", "b", "c"}]

    def second(ctx, value):
        return [v for v in value if v in {"a", "b", "d"}]

    def renamed_copy(ctx, value):
        return [v for v in value if v in {"c", "b", "a"}]

    measured = [measure_code({"f": f}) for f in (first, second, renamed_copy)]
    assert measured[0] != measured[1]  # a constant inside the set differs
    assert measured[0] == measured[2]  # same code, other name, other line


def test_a_constant_change_inside_a_nested_function_changes_the_measurement():
    def outer_one(ctx):
        def inner():
            return 1
        return inner()

    def outer_two(ctx):
        def inner():
            return 2
        return inner()

    one = EnclaveCode("e", {"run": outer_one})
    two = EnclaveCode("e", {"run": outer_two})
    assert one.measurement != two.measurement
