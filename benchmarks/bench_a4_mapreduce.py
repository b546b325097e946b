"""A4 (ablation) -- secure vs. plain map/reduce on the theft workload.

The smart-meter theft-detection aggregation (use case 1) runs once as
plain Python map/reduce and once on the secure engine (enclave mappers/
reducers, sealed shuffle).  Results must be identical; the table
reports the security tax: sealed bytes moved and wall time (the AEAD
work is real computation here).
"""

import time

import pytest

from repro.bigdata.mapreduce import MapReduceJob, SecureMapReduce, plain_mapreduce
from repro.sgx.platform import SgxPlatform
from repro.smartgrid.meters import SmartMeterFleet
from repro.smartgrid.theft import TheftDetector
from repro.smartgrid.topology import GridTopology

from benchmarks._harness import report

HOUR = 3600.0


def build_workload():
    grid = GridTopology.build(feeders=2, transformers_per_feeder=3,
                              meters_per_transformer=6)
    fleet = SmartMeterFleet(grid, seed=13, interval=60.0)
    fleet.inject_theft("meter-0-1-02", start=0.0, fraction=0.4)
    readings = fleet.readings_window(0.0, 1 * HOUR)
    records = [reading.to_record() for reading in readings]
    detector = TheftDetector(grid, interval=60.0)
    return grid, records, detector


def run_a4():
    from repro.smartgrid.theft import _aggregation_job

    grid, records, detector = build_workload()
    map_fn, reduce_fn = _aggregation_job(
        detector._transformer_of, detector.interval
    )

    start = time.perf_counter()
    plain = plain_mapreduce(map_fn, reduce_fn, records)
    plain_seconds = time.perf_counter() - start

    platform = SgxPlatform(seed=401, quoting_key_bits=512)
    job = MapReduceJob(map_fn, reduce_fn, mappers=4, reducers=2)
    engine = SecureMapReduce(platform, job)
    start = time.perf_counter()
    secure = engine.run(records)
    secure_seconds = time.perf_counter() - start

    assert secure == {repr(key): value for key, value in plain.items()}
    return {
        "records": len(records),
        "groups": len(plain),
        "plain_seconds": plain_seconds,
        "secure_seconds": secure_seconds,
        "sealed_kb": engine.sealed_bytes_moved / 1024.0,
        "enclave_transitions": sum(
            worker.ecall_count for worker in engine._mappers + engine._reducers
        ),
    }


@pytest.fixture(scope="module")
def a4_outcome():
    return run_a4()


def bench_a4_mapreduce(a4_outcome, benchmark):
    outcome = a4_outcome
    rows = [
        ("input records", outcome["records"]),
        ("output groups", outcome["groups"]),
        ("plain map/reduce (host ms)", outcome["plain_seconds"] * 1e3),
        ("secure map/reduce (host ms)", outcome["secure_seconds"] * 1e3),
        ("overhead factor",
         outcome["secure_seconds"] / max(outcome["plain_seconds"], 1e-9)),
        ("sealed shuffle+output (KB)", outcome["sealed_kb"]),
        ("enclave calls", outcome["enclave_transitions"]),
    ]
    report(
        "a4_mapreduce",
        "A4: theft-detection aggregation, plain vs. secure engine",
        ("quantity", "value"),
        rows,
        notes=(
            "identical outputs; the secure engine's tax is sealing every",
            "record that crosses an enclave boundary",
        ),
    )
    assert outcome["sealed_kb"] > 0
    assert outcome["groups"] > 0

    def kernel():
        return run_a4()["secure_seconds"]

    benchmark.pedantic(kernel, rounds=1, iterations=1)
