import pytest

from repro.errors import ConfigurationError, IntegrityError
from repro.streams import StreamConfig

from tests.streams.conftest import WINDOW, make_plane, make_source
from tests.streams.oracle import expected_windows, frame_rows, produced_records


def scaling_config(**overrides):
    base = dict(
        window=dict(WINDOW), queue_bound=6, service_rate=2,
        checkpoint_interval=3, split_queue_watermark=3,
        merge_idle_rounds=2, max_shards=6,
    )
    base.update(overrides)
    return StreamConfig(**base)


def test_burst_splits_then_merges_back(grid, fleet):
    plane = make_plane(config=scaling_config())
    source = make_source(fleet, grid, plane)
    source.produce(0.0, 900.0)
    plane.drain([source])
    assert plane.splits > 0
    assert len(plane.shards) > 2
    for _ in range(12):   # idle rounds let the merge trigger fire
        plane.pump([source])
    assert plane.merges > 0
    assert len(plane.shards) == 2


def test_scaling_is_lossless_and_duplicate_free(grid, fleet):
    plane = make_plane(config=scaling_config())
    source = make_source(fleet, grid, plane)
    source.produce(0.0, 900.0)
    plane.drain([source])
    for _ in range(12):
        plane.pump([source])
    records = produced_records(fleet, grid.meters, 0.0, 900.0)
    assert frame_rows(plane.open_firings()) == expected_windows(
        records, WINDOW["size"]
    )
    audit = plane.audit([source])
    assert audit["silent_loss"] == 0


def test_max_shards_caps_splitting(grid, fleet):
    plane = make_plane(config=scaling_config(max_shards=3))
    source = make_source(fleet, grid, plane)
    source.produce(0.0, 900.0)
    plane.drain([source])
    assert len(plane.shards) <= 3


def test_routing_invariants_hold_across_scaling(grid, fleet):
    plane = make_plane(config=scaling_config())
    source = make_source(fleet, grid, plane)
    source.produce(0.0, 900.0)
    while source.backlog or any(
        plane.shards[sid].queue for sid in plane.table.shard_ids()
    ):
        plane.pump([source])
        plane.table.check_invariants()
        assert set(plane.table.shard_ids()) == set(plane.shards)


def test_handoff_blob_fails_closed_elsewhere(grid, fleet):
    """A range handoff sealed for one recipient cannot be replayed into
    another shard, and cannot be adopted twice."""
    plane = make_plane(shards=3)
    donor = plane.table.shard_ids()[0]
    new_id = plane.split_shard(donor)
    moved = plane.table.range_of(new_id)
    blob = plane.shards[new_id].enclave.ecall(
        "extract_range", moved.to_json(), donor
    )
    other = plane.table.shard_ids()[-1]
    with pytest.raises(IntegrityError):
        plane.shards[other].enclave.ecall("load_range", new_id, blob)
    plane.shards[donor].enclave.ecall("load_range", new_id, blob)
    with pytest.raises((IntegrityError, ConfigurationError)):
        plane.shards[donor].enclave.ecall("load_range", new_id, blob)


def test_handoff_is_one_record_frame_and_nothing_else(grid, fleet):
    """State-sized stream messages travel as a record list of one; the
    same payload in the single-payload framing, or as two records under
    the right key and AAD, is refused as tampered."""
    from repro.sgx.enclave import EnclaveContext
    from repro.streams.shards import _AAD_RANGE

    plane = make_plane(shards=3)
    donor = plane.table.shard_ids()[0]
    new_id = plane.split_shard(donor)
    blob = plane.shards[new_id].enclave.ecall(
        "extract_range", plane.table.range_of(new_id).to_json(), donor
    )
    plane_key = EnclaveContext(plane.shards[donor].enclave).state["plane_key"]
    aad = _AAD_RANGE + b"%d|%d" % (new_id, donor)
    payload = plane_key.open_record(blob, aad)
    for forged in (plane_key.seal(payload, aad),
                   plane_key.seal_records([payload, payload], aad)):
        with pytest.raises(IntegrityError, match="^range handoff"):
            plane.shards[donor].enclave.ecall("load_range", new_id, forged)
    plane.shards[donor].enclave.ecall("load_range", new_id, blob)


def test_extract_requires_edge_alignment(grid, fleet):
    plane = make_plane(shards=1)
    owned = plane.table.range_of(0)
    middle = [owned.lo + owned.width // 4, owned.hi - owned.width // 4]
    with pytest.raises(ConfigurationError):
        plane.shards[0].enclave.ecall("extract_range", middle, 1)


def test_split_during_load_keeps_records_flowing(grid, fleet):
    """Records released before and after a cutover all land once."""
    plane = make_plane(config=scaling_config())
    source = make_source(fleet, grid, plane)
    source.produce(0.0, 300.0)
    plane.pump([source])
    plane.split_shard(plane.table.shard_ids()[0])
    source.produce(300.0, 600.0)
    plane.drain([source])
    audit = plane.audit([source])
    assert audit["silent_loss"] == 0
    records = produced_records(fleet, grid.meters, 0.0, 600.0)
    assert frame_rows(plane.open_firings()) == expected_windows(
        records, WINDOW["size"]
    )
