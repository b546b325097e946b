"""A6 (ablation) -- map-side combining in secure map/reduce.

Sealing dominates the secure engine's cost (A4): every key/value pair
crossing an enclave boundary is encrypted and MACed.  A combiner
pre-reduces inside the mapper enclave, so only one partial per (key,
partition) is sealed.  Measured on the smart-meter aggregation with a
high record-to-group ratio.
"""

import time

import pytest

from repro.bigdata.mapreduce import MapReduceJob, SecureMapReduce
from repro.sgx.platform import SgxPlatform
from repro.smartgrid.meters import SmartMeterFleet
from repro.smartgrid.theft import _aggregation_job
from repro.smartgrid.topology import GridTopology

from benchmarks._harness import report

HOUR = 3600.0


def _records():
    grid = GridTopology.build(feeders=2, transformers_per_feeder=3,
                              meters_per_transformer=6)
    fleet = SmartMeterFleet(grid, seed=19, interval=60.0)
    readings = fleet.readings_window(0.0, 2 * HOUR)
    detector_map = {meter: grid.transformer_of(meter) for meter in grid.meters}
    map_fn, reduce_fn = _aggregation_job(detector_map, 60.0)
    return [reading.to_record() for reading in readings], map_fn, reduce_fn


def run_a6():
    records, map_fn, reduce_fn = _records()
    rows = []
    outputs = {}
    for label, combiner in (("no combiner", None), ("combiner", reduce_fn)):
        platform = SgxPlatform(seed=501, quoting_key_bits=512)
        job = MapReduceJob(map_fn, reduce_fn, mappers=4, reducers=2,
                           combiner_fn=combiner)
        engine = SecureMapReduce(platform, job)
        start = time.perf_counter()
        outputs[label] = engine.run(records)
        seconds = time.perf_counter() - start
        rows.append(
            (label, len(records), engine.sealed_bytes_moved / 1024.0,
             seconds * 1e3)
        )
    # Combining a sum is semantics-preserving up to float association;
    # compare with a tolerance.
    plain_keys = set(outputs["no combiner"])
    assert plain_keys == set(outputs["combiner"])
    for key in plain_keys:
        assert outputs["combiner"][key] == pytest.approx(
            outputs["no combiner"][key], rel=1e-9
        )
    return rows


@pytest.fixture(scope="module")
def a6_rows():
    return run_a6()


def bench_a6_combiner(a6_rows, benchmark):
    rows = a6_rows
    report(
        "a6_combiner",
        "A6: secure map/reduce with and without map-side combining",
        ("mode", "records", "sealed_kb", "host_ms"),
        rows,
        notes=(
            "combining pre-reduces inside mapper enclaves, shrinking the",
            "sealed shuffle; outputs are numerically identical",
        ),
    )
    without_kb, with_kb = rows[0][2], rows[1][2]
    assert with_kb < without_kb / 5, "sealed shuffle shrinks >5x"

    benchmark.pedantic(run_a6, rounds=1, iterations=1)
