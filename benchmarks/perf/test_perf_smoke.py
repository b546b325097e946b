"""Smoke test of the benchmark itself: ``pytest benchmarks/perf -q``.

Outside tier-1 ``testpaths``; ``make bench`` (``--benchmark-only``)
skips it because nothing here uses the ``benchmark`` fixture.
"""

import glob
import json
import os
import re
import subprocess
import sys
import time

import pytest

from benchmarks.perf import ROOT, SRC
from benchmarks.perf.metrics import (
    END_TO_END, LAYERS, PER_LAYER, WORKLOADS, WORKLOAD_NAMES,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SCALE = "0.02"


def bench(*arguments):
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.perf"] + list(arguments),
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """Every workload at 2 % scale, untraced and traced, in one file."""
    path = str(tmp_path_factory.mktemp("perf") / "smoke.json")
    done = bench("--scale", SCALE, "--traced", "--out", path)
    assert done.returncode == 0, done.stdout
    with open(path) as handle:
        return path, json.load(handle)["runs"][0], done.stdout


def test_contract_mirrors_the_metric_tables(contract):
    assert sorted(contract) == ["command", "end_to_end", "paths",
                                "per_layer", "run_seconds", "workloads"]
    assert contract["paths"] == ["benchmarks/perf"]
    assert contract["workloads"] == [
        {"name": name, "why": why} for name, why in WORKLOADS
    ]
    assert contract["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, unit, better, bound, gated in END_TO_END if gated
    ]
    assert contract["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in PER_LAYER
    ]
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(row["why"]) <= 200 for row in contract["workloads"])
    assert all(0 < row["bound"] <= 0.25 for row in contract["end_to_end"])


def test_every_workload_emits_every_metric(suite):
    _path, run, stdout = suite
    assert sorted(run["workloads"]) == sorted(WORKLOAD_NAMES)
    for key in ("host.sha256_mb_per_s", "host.nproc", "python", "seed",
                "scale", "git_commit"):
        assert key in run
    for workload, entry in run["workloads"].items():
        assert all(entry["checks"].values()), (workload, entry["checks"])
        assert entry["failed_share"] == 0.0
        for name, *_rest in END_TO_END:
            assert name in entry
            assert re.search(
                r"^%s +%s " % (workload, re.escape(name)), stdout, re.M
            )
        for name, _unit, _better in PER_LAYER:
            assert name in entry["per_layer"], (workload, name)
        for name, _unit, _better, _bound, gated in END_TO_END:
            assert not gated or entry[name] > 0, (workload, name)


def test_layer_self_times_account_for_the_traced_wall(suite):
    _path, run, _stdout = suite
    for workload, entry in run["workloads"].items():
        layers = entry["per_layer"]
        accounted = layers["harness.self_s"] + sum(
            layers[layer + ".self_s"] or 0.0 for layer in LAYERS
        )
        assert accounted == pytest.approx(
            entry["traced_wall_s"], rel=0.02
        ), workload
        assert layers["trace.overhead_ratio"] > 0
        assert layers["telemetry.overhead_ratio"] > 0


def test_spans_carry_layers_parents_and_request_ids(suite):
    path, _run, _stdout = suite
    dump = path[:-len(".json")] + ".tenant_mix.spans.jsonl"
    with open(dump) as handle:
        spans = [json.loads(line) for line in handle]
    by_id = {span["id"]: span for span in spans}
    assert {span["layer"] for span in spans} >= {"service", "sgx", "scbr"}
    requests = {span["request"] for span in spans if span["request"]}
    assert len(requests) > 10
    ecalls = [s for s in spans if s["name"].endswith("Enclave.ecall")]
    assert any(by_id[s["parent"]]["request"] == s["request"]
               for s in ecalls if s["parent"] in by_id and s["request"])
    # Shard matching runs on worker threads whose spans hang off the
    # main-thread call that spawned them.
    assert any(s["thread"] != 0 and s["parent"] in by_id
               and by_id[s["parent"]]["thread"] == 0 for s in spans)


def test_compare_accepts_a_file_against_itself(suite):
    path, _run, _stdout = suite
    done = bench("--compare", path, path)
    assert done.returncode == 0, done.stdout
    assert "regression" not in done.stdout
    assert "unresolved" not in done.stdout


def test_driver_line_has_exactly_the_contract_metrics(contract):
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        done = bench("--workload", "epc_paging", "--scale", SCALE,
                     "--seed", "7", "--seconds", "0.2", "--trace", trace)
        assert done.returncode == 0, done.stdout
        line = json.loads(done.stdout.splitlines()[-1])
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert {name: value["unit"] for name, value in
                line["metrics"].items()} == {
            row["name"]: row["unit"] for row in contract[key]
        }
        assert all(isinstance(value["value"], (int, float))
                   for value in line["metrics"].values())


def test_an_unresolvable_boundary_reads_null(monkeypatch):
    monkeypatch.syspath_prepend(SRC)
    from benchmarks.perf import tracing, worker
    from repro.sim import Environment

    original = Environment.run
    boundaries = tuple(
        (layer, name.replace("Environment.run", "Environment.gone"),
         kind, amount)
        for layer, name, kind, amount in tracing.BOUNDARIES
    )
    result = worker.run({
        "workload": "tenant_mix", "mode": "traced", "seed": 1,
        "scale": 0.02, "fraction": 1.0, "seconds": None,
        "spawned": time.time(), "spans": None,
    }, boundaries)
    assert result["unresolved"] == ["repro.sim.Environment.gone"]
    assert result["layers"]["sim.env_run_us"] is None
    assert result["layers"]["sim.calls"] is None
    assert result["layers"]["service.calls"] > 0
    assert all(result["checks"].values())
    assert Environment.run is original


def test_no_module_is_collected_by_make_bench():
    here = os.path.dirname(os.path.abspath(__file__))
    assert glob.glob(os.path.join(here, "bench_*.py")) == []
