"""E9 -- the self-stabilising secure streaming plane under churn.

Six scenarios drive the sealed streaming plane (``repro.streams``) over
the same simulated meter fleet and measure throughput, tail latency,
and -- above all -- *accounting*: every released reading must end in a
committed window, a visibly shed pane, or a visible late count.

- **steady state**: the clean baseline; its firing frames are the
  oracle every churn scenario must reproduce exactly;
- **3x overload burst**: production outruns service 3:1 with the pane
  budget armed -- credits throttle the source (queue depth never
  exceeds the bound) and the shed policy degrades *visibly*: the gate
  pins shed tombstones == the sealed shed counters, and silent loss to
  zero;
- **4% / 10% shard churn**: seeded chaos kills shard enclaves at the
  configured per-operation rate; every crash recovers by sealed
  checkpoint restore + replay and the final frames must be
  byte-identical to steady state (exactly-once survives churn);
- **node crash mass recovery**: a FaultSchedule machine death takes
  every hosted shard down in one instant mid-stream;
- **autoscale split+merge**: a low split watermark forces hot ranges
  onto fresh attested shards mid-burst and merges them back when load
  drains, with zero duplicate firings across the cutovers.

Everything runs on the virtual clock with seeded platforms and seeded
chaos, so rows and telemetry snapshots are bit-identical across runs
(the chaos determinism check diffs both).
"""

import statistics

import pytest

from repro.chaos.injector import ChaosConfig, ChaosInjector, FaultSchedule
from repro.cluster.nodes import NodeTopology
from repro.sgx.attestation import AttestationService
from repro.sim.events import Environment
from repro.smartgrid.meters import SmartMeterFleet
from repro.smartgrid.topology import GridTopology
from repro.streams import (
    ROUND_INTERVAL,
    MeterStreamSource,
    SecureStreamPlane,
    StreamConfig,
)

from benchmarks._harness import report

SEED = 99
WINDOW = {"kind": "tumbling", "size": 60.0, "lateness": 30.0}

E9_HEADER = ("scenario", "shards", "records", "windows", "shed", "late",
             "recoveries", "splits", "merges", "dup_firings",
             "queue_peak", "rec_per_vsec", "p99_lag_vsec",
             "recover_ms_med", "silent_loss")


def _config(**overrides):
    base = dict(
        window=dict(WINDOW), queue_bound=6, service_rate=2,
        checkpoint_interval=3,
    )
    base.update(overrides)
    return StreamConfig(**base)


def _fixtures(smoke):
    grid = GridTopology.build(2, 2, 3 if smoke else 4)
    fleet = SmartMeterFleet(grid, seed=SEED)
    return grid, fleet


def _p99(values):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def _run_scenario(scenario, smoke, config=None, chaos=None,
                  burst_factor=1, node_crash_at=None, shard_crash_at=None,
                  idle_rounds=0):
    """Stream one workload through a fresh plane; returns (row, frames).

    ``burst_factor`` multiplies the produced horizon (overload);
    ``node_crash_at`` / ``shard_crash_at`` schedule scripted faults on
    the virtual clock; ``idle_rounds`` pumps extra empty rounds after
    the drain so merge triggers can fire.
    """
    grid, fleet = _fixtures(smoke)
    horizon = (300.0 if smoke else 600.0) * burst_factor
    env = Environment()
    topology = NodeTopology.build(4, seed=SEED + 1)
    plane = SecureStreamPlane(
        topology, config or _config(),
        attestation_service=AttestationService(), shards=2,
        seed=SEED + 2, env=env, chaos=chaos, name="e9",
    )
    if node_crash_at is not None or shard_crash_at is not None:
        schedule = FaultSchedule(env, chaos)
        if shard_crash_at is not None:
            schedule.crash_shard_at(shard_crash_at, plane, 0)
        if node_crash_at is not None:
            schedule.crash_node_at(
                node_crash_at, plane, plane.shards[1].node.name
            )
    source = MeterStreamSource(
        "head-0", fleet, grid.meters, plane.ingest_key_bytes,
        batch_records=12,
    )
    source.produce(0.0, horizon)
    queue_peak = 0
    rounds = 0
    while source.backlog or any(
        plane.shards[sid].queue for sid in plane.table.shard_ids()
    ):
        rounds += 1
        env.run(until=env.now + ROUND_INTERVAL)
        plane.pump([source])
        queue_peak = max(queue_peak, *plane.queue_depths().values())
        assert queue_peak <= plane.config.queue_bound, (
            "queue bound violated in %s" % scenario
        )
    for shard_id in plane.table.shard_ids():
        plane.shards[shard_id].queue.append(("flush", None))
        plane._service_shard(shard_id)
    for _ in range(idle_rounds):
        env.run(until=env.now + ROUND_INTERVAL)
        plane.pump([source])

    audit = plane.audit([source])
    frames = plane.open_firings()
    window_frames = [f for f in frames if f["kind"] == "window"]
    tombstoned = sum(
        f["result"]["dropped"] for f in frames if f["kind"] == "shed"
    )
    assert tombstoned == audit["shed"], (
        "shed accounting diverged: tombstones %d vs counters %d"
        % (tombstoned, audit["shed"])
    )
    virtual_seconds = rounds * ROUND_INTERVAL
    latencies = [
        max(0.0, frame["commit_time"]
            - (frame["window_end"] + WINDOW["lateness"]))
        for frame in window_frames
    ]
    row = (
        scenario,
        len(plane.shards),
        audit["released"],
        len(window_frames),
        audit["shed"],
        audit["late"],
        len(plane.recovery_episodes),
        plane.splits,
        plane.merges,
        plane.duplicates_suppressed,
        queue_peak,
        audit["released"] / virtual_seconds,
        _p99(latencies),
        (statistics.median(
            episode["recovery_seconds"] * 1e3
            for episode in plane.recovery_episodes
        ) if plane.recovery_episodes else 0.0),
        audit["silent_loss"],
    )
    key_rows = [
        (f["window_start"], f["key"], f["kind"],
         f["result"].get("n"), f["result"].get("w_sum"))
        for f in frames
    ]
    return row, key_rows


def run_e9(smoke=False):
    """All scenarios; returns table rows.  ``smoke`` shrinks workloads."""
    steady, oracle = _run_scenario("steady state", smoke)
    burst, _ = _run_scenario(
        "3x overload burst", smoke,
        config=_config(queue_bound=4, service_rate=1, pane_budget=4),
        burst_factor=3,
    )
    churn4, frames4 = _run_scenario(
        "4% shard churn", smoke,
        chaos=ChaosInjector(ChaosConfig(seed=SEED, shard_crash_rate=0.04)),
    )
    churn10, frames10 = _run_scenario(
        "10% shard churn", smoke,
        chaos=ChaosInjector(ChaosConfig(seed=SEED, shard_crash_rate=0.10)),
    )
    node, node_frames = _run_scenario(
        "node crash mass recovery", smoke,
        chaos=ChaosInjector(ChaosConfig(seed=SEED)),
        shard_crash_at=60.0, node_crash_at=150.0,
    )
    scale, scale_frames = _run_scenario(
        "autoscale split+merge", smoke,
        config=_config(split_queue_watermark=3, merge_idle_rounds=2,
                       max_shards=6),
        idle_rounds=12,
    )
    for name, frames in (("4% churn", frames4), ("10% churn", frames10),
                         ("node crash", node_frames),
                         ("autoscale", scale_frames)):
        assert frames == oracle, (
            "%s diverged from the steady-state oracle" % name
        )
    return [steady, burst, churn4, churn10, node, scale]


@pytest.fixture(scope="module")
def e9_rows():
    return run_e9()


def bench_e9_stream_churn(e9_rows, benchmark):
    rows = e9_rows
    report(
        "e9_stream_churn",
        "E9: self-stabilising secure streaming -- backpressure, "
        "load-shedding, exactly-once windows under churn (virtual time)",
        E9_HEADER,
        rows,
        notes=(
            "rec_per_vsec is released records per virtual second;",
            "p99_lag_vsec is commit lag behind window close + lateness;",
            "dup_firings counts replay re-emissions the committer",
            "suppressed; silent_loss = released - windowed - shed - late",
        ),
    )
    by_name = {row[0]: row for row in rows}
    for row in rows:
        assert row[14] == 0, "%s lost records silently" % row[0]
        assert row[10] <= 6, "%s overran a bounded queue" % row[0]
    steady = by_name["steady state"]
    burst = by_name["3x overload burst"]
    churn4 = by_name["4% shard churn"]
    churn10 = by_name["10% shard churn"]
    node = by_name["node crash mass recovery"]
    scale = by_name["autoscale split+merge"]
    assert steady[4] == 0 and steady[5] == 0 and steady[6] == 0, (
        "the clean baseline must not shed, drop late, or recover"
    )
    assert burst[4] > 0, "the 3x burst must shed visibly"
    assert churn4[6] > 0 and churn10[6] > 0, (
        "churn scenarios must actually crash and recover shards"
    )
    assert churn10[6] >= churn4[6], (
        "10% churn must induce at least as many recoveries as 4%"
    )
    assert node[6] >= 2, (
        "the node crash plus scripted shard crash both recover"
    )
    assert node[13] > 0.0, "mass recovery latency must be measured"
    assert scale[7] > 0 and scale[8] > 0, (
        "the autoscale scenario must split under load and merge back"
    )
    assert scale[9] == 0, (
        "split+merge cutovers must produce zero duplicate firings"
    )
    assert scale[1] == 2, "the plane must scale back to its base shards"
    for churned in (churn4, churn10, node):
        assert churned[3] == steady[3], (
            "churn must not change the number of emitted windows"
        )

    benchmark.pedantic(
        lambda: run_e9(smoke=True), rounds=1, iterations=1,
    )
