"""Telemetry-asserted chaos determinism.

The chaos layer's guarantee is that everything observable is a pure
function of the seed.  The telemetry plane widens "observable": two
identical seeded chaos-smoke runs -- including the E6 shard-failover
scenarios, whose recovery work spans several shard platforms driven by
one in-order host loop -- must produce byte-identical canonical metric
snapshots, not just identical benchmark rows.
"""

import pytest

from repro import telemetry
from repro.cli import _load


def _snapshots(experiment_id):
    _module, function = _load(experiment_id)
    passes = []
    for _ in range(2):
        with telemetry.enabled() as registry:
            rows = function(smoke=True)
        passes.append((rows, registry.to_json()))
    return passes


class TestChaosTelemetryDeterminism:
    @pytest.mark.parametrize("experiment_id", ["e5", "e6"])
    def test_same_seed_same_metric_snapshot(self, experiment_id):
        (rows_a, snap_a), (rows_b, snap_b) = _snapshots(experiment_id)
        assert rows_a == rows_b
        assert snap_a == snap_b
        assert snap_a != b"{}"   # the run actually recorded something

    def test_e6_snapshot_covers_failover_metrics(self):
        """The byte-compared snapshot includes the failure/recovery
        counters, so a nondeterministic failover path cannot hide."""
        _module, function = _load("e6")
        with telemetry.enabled() as registry:
            function(smoke=True)
        counters = registry.snapshot()["counters"]
        assert counters["scbr.shard_failures"] > 0
        assert counters["scbr.recoveries"] > 0
        histograms = registry.snapshot()["histograms"]
        assert histograms["scbr.coverage_wait_cycles"]["count"] > 0
        assert histograms["scbr.recovery_cycles"]["count"] > 0
