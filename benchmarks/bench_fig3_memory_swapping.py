"""E1 -- Figure 3: "Effect of memory swapping".

Reproduces the paper's only quantitative figure: the SCBR matching
engine runs the *same code* against a native memory and an
enclave-backed memory while the subscription database grows from well
below the EPC to 200+ MB.  The paper reports:

- negligible overhead while the working set fits the caches;
- moderate overhead (MEE decryption on LLC misses) while the database
  fits the EPC;
- performance degrading to "nearly 18x" at a 200 MB database, with the
  drop starting *before* the 128 MB EPC line because SGX metadata
  consumes protected memory.

Matching time here is *virtual* time from the cycle-accurate cost model
(see DESIGN.md section 5 for the constants' provenance); wall-clock
time of the simulator itself is meaningless and is not reported.
"""

import gc

import pytest

from repro.scbr.naive import LinearIndex
from repro.scbr.sharding import ShardedMatchingPlane
from repro.scbr.workload import ScbrWorkload
from repro.sgx.costs import DEFAULT_COSTS, MIB
from repro.sgx.memory import EpcModel, SimulatedMemory
from repro.sim.clock import CycleClock, cycles_to_seconds

from benchmarks._harness import report

DB_SIZES_MB = (8, 32, 64, 80, 96, 128, 160, 200, 224)
RECORD_BYTES = 512
POOL_SIZE = 8192
WARMUP_PUBLICATIONS = 1
MEASURED_PUBLICATIONS = 2


def _subscription_pool():
    """A pool of subscriptions reused across the sweep.

    The cost model depends on the visit pattern over records, not on
    the subscriptions' contents, so cycling a pool keeps generation
    cheap while every record still gets its own memory region.
    """
    workload = ScbrWorkload(seed=42, num_attributes=50,
                            containment_fraction=0.0)
    return workload.subscriptions(POOL_SIZE), workload.publications(
        WARMUP_PUBLICATIONS + MEASURED_PUBLICATIONS
    )


def _matching_time_ms(pool, publications, total_records, enclave):
    costs = DEFAULT_COSTS
    clock = CycleClock()
    if enclave:
        memory = SimulatedMemory(clock, costs, enclave=True,
                                 epc=EpcModel(costs), name="scbr")
    else:
        memory = SimulatedMemory(clock, costs, name="scbr")
    index = LinearIndex(memory=memory, record_bytes=RECORD_BYTES)
    for i in range(total_records):
        index.insert(pool[i % len(pool)])
    for publication in publications[:WARMUP_PUBLICATIONS]:
        index.match(publication)
    start = clock.now
    matches = []
    for publication in publications[WARMUP_PUBLICATIONS:]:
        matches.append(index.match(publication))
    cycles = (clock.now - start) / MEASURED_PUBLICATIONS
    return cycles_to_seconds(cycles, clock.frequency_hz) * 1e3, matches


def _sharded_matching_time_ms(pool, publications, total_records):
    """The same enclave matcher, partitioned by the EPC-aware plane.

    Every shard is its own machine (clock, LLC, EPC); the plane splits
    shards before their databases cross the watermark, so the working
    set of each stays cache-resident.  Virtual latency per publication
    is the slowest shard (shards match concurrently).
    """
    plane = ShardedMatchingPlane(index_factory=LinearIndex)
    for i in range(total_records):
        plane.insert(pool[i % len(pool)])
    for publication in publications[:WARMUP_PUBLICATIONS]:
        plane.match(publication)
    cycles = 0
    matches = []
    for publication in publications[WARMUP_PUBLICATIONS:]:
        matches.append(plane.match(publication))
        cycles += plane.last_match_cycles
    cycles /= MEASURED_PUBLICATIONS
    ms = cycles_to_seconds(cycles, plane.shards[0].clock.frequency_hz) * 1e3
    return ms, matches, plane.shard_count


def run_figure3_sweep(db_sizes_mb=DB_SIZES_MB, smoke=False):
    """Rows: (db_mb, native_ms, enclave_ms, slowdown, sharded_ms,
    sharded_x, shards).

    ``sharded_x`` is the sharded enclave plane's slowdown against the
    *same* monolithic native baseline; ``shards`` is how many
    partitions the watermark policy ended up with at that size.
    """
    if smoke:
        # CI smoke: exercise the full path on the two cheapest points.
        db_sizes_mb = db_sizes_mb[:2]
    gc.disable()
    try:
        pool, publications = _subscription_pool()
        rows = []
        for db_mb in db_sizes_mb:
            total_records = db_mb * MIB // RECORD_BYTES
            native_ms, _ = _matching_time_ms(
                pool, publications, total_records, enclave=False
            )
            enclave_ms, enclave_matches = _matching_time_ms(
                pool, publications, total_records, enclave=True
            )
            sharded_ms, sharded_matches, shards = _sharded_matching_time_ms(
                pool, publications, total_records
            )
            # Partitioning must not change the results: the union of
            # the shards' matches equals the monolithic match set.
            assert sharded_matches == enclave_matches, (
                "sharded plane diverged from the monolithic matcher "
                "at %d MB" % db_mb
            )
            rows.append(
                (
                    db_mb,
                    native_ms,
                    enclave_ms,
                    enclave_ms / native_ms,
                    sharded_ms,
                    sharded_ms / native_ms,
                    shards,
                )
            )
    finally:
        gc.enable()
    return rows


@pytest.fixture(scope="module")
def figure3_rows():
    return run_figure3_sweep()


def bench_fig3_memory_swapping(figure3_rows, benchmark):
    rows = figure3_rows
    usable_mb = DEFAULT_COSTS.epc_usable / MIB
    report(
        "fig3_memory_swapping",
        "Figure 3: SCBR matching time inside vs. outside the enclave",
        ("db_mb", "native_ms", "enclave_ms", "slowdown", "sharded_ms",
         "sharded_x", "shards"),
        rows,
        notes=(
            "EPC nominal 128 MB; usable for application pages: %.1f MB"
            % usable_mb,
            "paper: slowdown reaches ~18x at a 200 MB database, with the",
            "drop starting before the 128 MB line (SGX metadata overhead)",
            "sharded: EPC-aware plane splits before the watermark; each",
            "shard's working set stays cache-resident and shards match",
            "in parallel, so sharded_x stays near (or below) native",
        ),
    )
    ratio = {row[0]: row[3] for row in rows}
    sharded_x = {row[0]: row[5] for row in rows}
    shard_counts = {row[0]: row[6] for row in rows}
    # Shape assertions (paper's qualitative claims).
    assert ratio[8] < 2.0, "small databases should be near-native"
    assert 1.5 < ratio[80] < 8.0, "within-EPC overhead is limited (MEE only)"
    assert ratio[96] > 2 * ratio[80], "degradation starts before the 128 MB line"
    assert 10.0 < ratio[200] < 30.0, "roughly 18x at 200 MB"
    assert ratio[200] > 2.5 * ratio[80], "paging dominates cache misses"
    # The sharded plane restores near-native matching where the
    # monolithic enclave collapses.
    assert sharded_x[200] <= 2.0, "sharding keeps the 200 MB point near-native"
    assert shard_counts[200] >= 3, "the watermark policy actually partitioned"
    assert shard_counts[8] == 1, "small databases stay on one shard"

    # Representative kernel for pytest-benchmark: one 32 MB enclave run.
    pool, publications = _subscription_pool()

    def kernel():
        return _matching_time_ms(
            pool, publications, 32 * MIB // RECORD_BYTES, enclave=True
        )[0]

    benchmark.pedantic(kernel, rounds=1, iterations=1)
