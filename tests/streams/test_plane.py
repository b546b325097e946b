import pytest

from repro.errors import (
    ConfigurationError,
    IntegrityError,
    SchedulingError,
)
from repro import telemetry
from repro.streams import StreamConfig

from tests.streams.conftest import WINDOW, make_plane, make_source


def test_config_validation():
    with pytest.raises(ConfigurationError):
        StreamConfig(queue_bound=0)
    with pytest.raises(ConfigurationError):
        StreamConfig(checkpoint_interval=0)
    with pytest.raises(ConfigurationError):
        StreamConfig(service_rate=0)


def test_plane_needs_sgx_nodes():
    from repro.cluster.nodes import NodeTopology
    from repro.sgx.attestation import AttestationService
    from repro.streams import SecureStreamPlane
    topology = NodeTopology.build(2, seed=1, sgx_flags=[False, False])
    with pytest.raises(SchedulingError):
        SecureStreamPlane(topology, StreamConfig(),
                          attestation_service=AttestationService())


def test_shedding_is_accounted_exactly(grid, fleet):
    plane = make_plane(config=StreamConfig(
        window=dict(WINDOW), queue_bound=4, service_rate=1,
        checkpoint_interval=3, pane_budget=4,
    ))
    source = make_source(fleet, grid, plane)
    source.produce(0.0, 900.0)
    plane.drain([source])
    audit = plane.audit([source])
    assert audit["shed"] > 0
    assert audit["silent_loss"] == 0
    tombstoned = sum(
        frame["result"]["dropped"]
        for frame in plane.open_firings()
        if frame["kind"] == "shed"
    )
    assert tombstoned == audit["shed"]


def test_firing_meta_carries_shed_counts(grid, fleet):
    plane = make_plane(config=StreamConfig(
        window=dict(WINDOW), queue_bound=4, service_rate=1,
        checkpoint_interval=3, pane_budget=4,
    ))
    source = make_source(fleet, grid, plane)
    source.produce(0.0, 600.0)
    plane.drain([source])
    frames = plane.open_firings()
    assert all("shed_records" in frame["meta"] for frame in frames)
    assert max(frame["meta"]["shed_records"] for frame in frames) > 0


def test_telemetry_counters_and_gauges(grid, fleet):
    with telemetry.enabled() as registry:
        plane = make_plane()
        source = make_source(fleet, grid, plane)
        source.produce(0.0, 600.0)
        plane.pump([source])
        plane.fail_shard(0)
        plane.drain([source])
        snapshot = registry.to_json()
    assert b'"streams.committed_firings"' in snapshot
    assert b'"streams.recoveries"' in snapshot
    assert b'"streams.queue_depth{shard=0}"' in snapshot


def test_stats_surface(grid, fleet):
    plane = make_plane()
    source = make_source(fleet, grid, plane)
    source.produce(0.0, 300.0)
    plane.drain([source])
    stats = plane.shard_stats()
    assert set(stats) == set(plane.table.shard_ids())
    for stat in stats.values():
        assert {"open_panes", "buffered_records", "watermark",
                "late_records", "shed_records",
                "version"} <= set(stat)


def test_misrouted_batch_fails_closed(grid, fleet):
    """A host delivering a batch to the wrong shard fails the AEAD
    open -- misrouting can't double-count or vanish a reading."""
    plane = make_plane()
    source = make_source(fleet, grid, plane)
    source.produce(0.0, 60.0)
    source.release(plane)
    victim, other = plane.table.shard_ids()[:2]
    moved = [
        entry for entry in plane.shards[victim].queue
        if entry[0] == "batch"
    ]
    assert moved
    _kind, header, blob = moved[0]
    with pytest.raises(IntegrityError):
        plane.shards[other].enclave.ecall("ingest", header, blob)
    relabel = dict(header, shard=other)
    with pytest.raises(IntegrityError):
        plane.shards[other].enclave.ecall("ingest", relabel, blob)


def test_tampered_firing_fails_closed(grid, fleet):
    plane = make_plane()
    source = make_source(fleet, grid, plane)
    source.produce(0.0, 120.0)
    plane.drain([source])
    firing_id = next(iter(plane.committed))
    blob = bytearray(plane.committed[firing_id])
    blob[-1] ^= 0x01
    with pytest.raises(IntegrityError):
        plane.coordinator.ecall("open_firing", firing_id, bytes(blob))
    other = [fid for fid in plane.committed if fid != firing_id][0]
    with pytest.raises(IntegrityError):
        plane.coordinator.ecall(
            "open_firing", other, plane.committed[firing_id]
        )


def test_restore_refuses_foreign_and_live_state(grid, fleet):
    plane = make_plane()
    source = make_source(fleet, grid, plane)
    source.produce(0.0, 120.0)
    plane.pump([source])
    sid = plane.table.shard_ids()[0]
    checkpoint = plane.shards[sid].enclave.ecall("checkpoint")
    with pytest.raises(IntegrityError):
        plane.shards[sid].enclave.ecall("restore", checkpoint["blob"])
    other = plane.table.shard_ids()[1]
    plane._service_shard(other)
    plane.shards[other].enclave.ecall("flush")
    with pytest.raises(IntegrityError):
        plane.shards[other].enclave.ecall("restore", checkpoint["blob"])


def test_commit_latency_is_observable(grid, fleet):
    plane = make_plane()
    source = make_source(fleet, grid, plane)
    source.produce(0.0, 300.0)
    plane.drain([source])
    frames = plane.open_firings()
    assert all("commit_time" in frame for frame in frames)
    lags = [
        frame["commit_time"]
        - (frame["window_end"] + WINDOW["lateness"])
        for frame in frames
    ]
    assert all(lag == lag for lag in lags)  # finite, well-defined
