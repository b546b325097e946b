"""The stream plane's in-enclave telemetry stays in the enclave.

Window counters are enclave state.  With a telemetry key they leave
only as sealed snapshots (``telemetry_export``) that the operator opens
and nobody else can; without one they are not recorded at all.  Either
way the host's registry -- which the untrusted host reads in plaintext
-- never holds a ``streaming.*`` instrument (DESIGN section 9).
"""

import pytest

from repro import telemetry
from repro.crypto.aead import AeadKey
from repro.crypto.primitives import DeterministicRandomSource
from repro.errors import IntegrityError
from repro.streams import StreamConfig
from repro.telemetry.sealed import open_snapshot

from tests.streams.conftest import WINDOW, make_plane, make_source


def _late_and_shedding_run(grid, fleet, telemetry_key=None):
    """Drain a plane whose pane budget sheds, then re-release an old
    horizon so every shard judges some readings late.  Returns the
    plane and the host registry it ran under."""
    with telemetry.enabled() as registry:
        plane = make_plane(
            config=StreamConfig(
                window=dict(WINDOW), queue_bound=4, service_rate=1,
                checkpoint_interval=3, pane_budget=4,
            ),
            telemetry_key=telemetry_key,
        )
        source = make_source(fleet, grid, plane)
        source.produce(0.0, 600.0)
        plane.drain([source])
        source.produce(0.0, 120.0)
        plane.drain([source])
    return plane, registry


def _host_streaming_entries(registry):
    snapshot = registry.snapshot()
    return sorted(
        name for section in snapshot.values() for name in section
        if name.startswith("streaming.")
    )


def test_keyless_shards_leave_no_window_metrics_on_the_host(grid, fleet):
    """Regression: a keyless shard's window operator used to fall back
    to the host's process-global registry, leaving six plaintext
    ``streaming.*`` entries (an ``open_panes`` gauge among them, read
    from enclave state) in the host snapshot."""
    plane, registry = _late_and_shedding_run(grid, fleet)
    assert _host_streaming_entries(registry) == []
    # The plane's own host-side mirror of the sealed counters remains.
    counters = registry.snapshot()["counters"]
    assert counters["streams.shed_records"] > 0
    for shard_id in plane.table.shard_ids():
        assert plane.shards[shard_id].enclave.ecall(
            "telemetry_export"
        ) is None


class TestSealedStreamTelemetry:
    KEY = AeadKey.generate(DeterministicRandomSource(0x57E4))

    @pytest.fixture
    def run(self, grid, fleet):
        return _late_and_shedding_run(grid, fleet, telemetry_key=self.KEY)

    def test_every_export_opens_under_the_operator_key_only(self, run):
        plane, _registry = run
        other = AeadKey.generate(DeterministicRandomSource(0x0BAD))
        blobs = {"stream-coord": plane.coordinator.ecall("telemetry_export")}
        for shard_id in plane.table.shard_ids():
            blobs["stream-shard-%d" % shard_id] = (
                plane.shards[shard_id].enclave.ecall("telemetry_export")
            )
        assert len(blobs) == 1 + len(plane.table.shard_ids())
        for domain, blob in blobs.items():
            assert open_snapshot(self.KEY, blob)["domain"] == domain
            with pytest.raises(IntegrityError):
                open_snapshot(other, blob)

    def test_shard_snapshots_carry_the_late_and_shed_counters(self, run):
        plane, _registry = run
        stats = plane.shard_stats()
        assert sum(stat["late_records"] for stat in stats.values()) > 0
        assert sum(stat["shed_records"] for stat in stats.values()) > 0
        for shard_id, stat in stats.items():
            counters = open_snapshot(
                self.KEY,
                plane.shards[shard_id].enclave.ecall("telemetry_export"),
            )["metrics"]["counters"]
            assert counters["streaming.late_records{operator=0}"] == (
                stat["late_records"]
            )
            assert counters["streaming.shed_records{operator=0}"] == (
                stat["shed_records"]
            )

    def test_no_window_metric_reaches_the_host_registry(self, run):
        _plane, registry = run
        assert _host_streaming_entries(registry) == []
