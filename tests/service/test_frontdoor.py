"""End-to-end tests for the multi-tenant secure front door."""

import pytest

from repro.errors import ConfigurationError, IntegrityError
from repro.service import (
    FrontDoorConfig,
    SecureFrontDoor,
    TenantQuota,
)
from repro.sim.events import Environment

from tests.service.oracle import FrontDoorOracle


def _door(seed=11, **config):
    env = Environment()
    door = SecureFrontDoor(
        env, seed=seed, config=FrontDoorConfig(**config)
    )
    return env, door


def _records(count=24):
    return [("row-%03d" % i).encode() for i in range(count)]


def _map(record):
    return [(record.split("-")[0], 1)]


def _reduce(key, values):
    return sum(values)


class TestResourceModel:
    def test_register_is_idempotent(self):
        _env, door = _door()
        door.register_tenant("acme")
        count_before, head_before = door.audit_head("acme")
        door.register_tenant("acme")
        assert door.audit_head("acme") == (count_before, head_before)
        assert door.tenants == ["acme"]

    def test_unregistered_tenant_is_refused(self):
        _env, door = _door()
        with pytest.raises(ConfigurationError):
            door.upload_dataset("ghost", "d", [b"x"])
        with pytest.raises(ConfigurationError):
            door.stats("ghost")

    def test_dataset_round_trip(self):
        env, door = _door()
        door.register_tenant("acme", rate=100.0, burst=50.0)
        receipt = door.upload_dataset("acme", "sales", _records())
        assert receipt.ok
        assert receipt.detail["records"] == 24
        assert receipt.virtual_ms > 0
        env.run(until=env.now + 0.1)
        assert door.open_dataset("acme", "sales") == _records()
        with pytest.raises(ConfigurationError):
            door.open_dataset("acme", "missing")

    def test_job_runs_over_a_sealed_dataset(self):
        env, door = _door()
        door.register_tenant("acme", rate=100.0, burst=50.0)
        door.upload_dataset("acme", "sales", _records())
        env.run(until=env.now + 0.1)
        receipt = door.submit_job(
            "acme", "wordcount", "sales", _map, _reduce
        )
        assert receipt.ok
        assert receipt.detail["keys"] == 1
        assert door.jobs["acme"]["wordcount"]["result"] == {"'row'": 24}

    def test_job_against_missing_dataset_is_an_audited_error(self):
        env, door = _door()
        door.register_tenant("acme", rate=100.0, burst=50.0)
        receipt = door.submit_job(
            "acme", "wordcount", "missing", _map, _reduce
        )
        assert receipt.outcome == "error"
        assert door.failed["acme"] == 1
        # The failed job's quota charge was rolled back.
        assert door.quota.usage["acme"]["jobs"] == 0
        entries = FrontDoorOracle(
            door._root_key.key_bytes
        ).verify_tenant(door, "acme")
        assert entries[-1].outcome == "error"
        assert entries[-1].detail == "ConfigurationError"

    @pytest.mark.parametrize("stored", ["SB1 a str", 17])
    def test_non_bytes_blob_from_the_host_store_is_an_audited_error(
        self, stored
    ):
        """The host store is untrusted: whatever it hands back that is
        not bytes fails closed as ``IntegrityError`` inside the gateway,
        not as a ``TypeError`` that escapes the request's bookkeeping."""
        env, door = _door()
        door.register_tenant("acme", rate=100.0, burst=50.0)
        door.upload_dataset("acme", "sales", _records())
        env.run(until=env.now + 0.1)
        door.datasets["acme"]["sales"] = stored
        receipt = door.submit_job(
            "acme", "wordcount", "sales", _map, _reduce
        )
        assert receipt.outcome == "error"
        assert door.failed["acme"] == 1
        assert door.quota.usage["acme"]["jobs"] == 0
        totals = door.check_identity()
        assert totals["offered"] == 2
        assert door.verify_audit("acme") == totals["offered"] + 1
        with pytest.raises(IntegrityError):
            door.open_dataset("acme", "sales")

    def test_subscribe_and_publish_route_through_scbr(self):
        env, door = _door()
        door.register_tenant("pub", rate=100.0, burst=50.0)
        door.register_tenant("sub", rate=100.0, burst=50.0)
        receipt = door.subscribe("sub", "s-1", [("price", ">", 10)])
        assert receipt.ok
        hit = door.publish("pub", {"price": 20})
        miss = door.publish("pub", {"price": 5})
        assert hit.detail["notifications"] == 1
        assert miss.detail["notifications"] == 0

    def test_streams_commit_windows(self):
        from repro.smartgrid.meters import SmartMeterFleet
        from repro.smartgrid.topology import GridTopology

        env, door = _door(stream_window={
            "kind": "tumbling", "size": 60.0, "lateness": 30.0,
        })
        door.register_tenant("acme", rate=100.0, burst=50.0)
        grid = GridTopology.build(2, 2, 3)
        fleet = SmartMeterFleet(grid, seed=7)
        assert door.attach_stream("acme", "m", fleet, grid.meters).ok
        receipt = door.stream_round("acme", "m", 0.0, 120.0)
        assert receipt.ok
        assert receipt.detail["committed"] > 0
        missing = door.stream_round("acme", "nope", 0.0, 60.0)
        assert missing.outcome == "error"


class TestAdmissionAndQuota:
    def test_overload_is_shed_and_audited(self):
        env, door = _door()
        door.register_tenant("acme", rate=1.0, burst=2.0)
        outcomes = [
            door.upload_dataset("acme", "d%d" % i, [b"x"]).outcome
            for i in range(6)
        ]
        assert outcomes.count("ok") == 2
        assert outcomes.count("shed") == 4
        oracle = FrontDoorOracle(door._root_key.key_bytes)
        entries = oracle.verify_tenant(door, "acme")
        assert [e.outcome for e in entries[1:]] == outcomes
        oracle.assert_books_balance(door)

    def test_quota_exhaustion_is_counted_not_silent(self):
        env, door = _door()
        door.register_tenant(
            "acme", quota=TenantQuota(sealed_bytes=40),
            rate=100.0, burst=50.0,
        )
        assert door.upload_dataset("acme", "a", [b"x" * 30]).ok
        rejected = door.upload_dataset("acme", "b", [b"x" * 30])
        assert rejected.outcome == "quota"
        assert door.stats("acme")["quota_rejected"] == 1
        oracle = FrontDoorOracle(door._root_key.key_bytes)
        entries = oracle.verify_tenant(door, "acme")
        assert entries[-1].outcome == "quota"
        oracle.assert_books_balance(door)

    def test_books_balance_across_mixed_outcomes(self):
        env, door = _door()
        door.register_tenant(
            "acme", quota=TenantQuota(jobs=1), rate=3.0, burst=3.0,
        )
        door.upload_dataset("acme", "d", _records(8))
        env.run(until=env.now + 1.0)
        # Failed jobs release their quota charge, so the error first...
        door.submit_job("acme", "j0", "missing", _map, _reduce)
        door.submit_job("acme", "j1", "d", _map, _reduce)
        # ...and only the held job counts against the jobs=1 quota.
        door.submit_job("acme", "j2", "d", _map, _reduce)   # quota
        for i in range(5):
            door.publish("acme", {"price": i})   # some shed
        totals = FrontDoorOracle(
            door._root_key.key_bytes
        ).assert_books_balance(door)
        assert totals["offered"] == 9
        assert totals["quota_rejected"] == 1
        assert totals["failed"] == 1
        assert totals["shed"] > 0


class TestAuditSurface:
    def test_in_enclave_verification_matches_oracle(self):
        env, door = _door()
        door.register_tenant("acme", rate=100.0, burst=50.0)
        door.upload_dataset("acme", "d", [b"x"])
        assert door.verify_audit("acme") == 2
        oracle = FrontDoorOracle(door._root_key.key_bytes)
        assert len(oracle.verify_tenant(door, "acme")) == 2

    def test_host_tampering_fails_in_enclave_verification(self):
        env, door = _door()
        door.register_tenant("acme", rate=100.0, burst=50.0)
        door.upload_dataset("acme", "d", [b"x"])
        blob = door.audit_blobs["acme"][1]
        door.audit_blobs["acme"][1] = blob[:-1] + bytes(
            [blob[-1] ^ 0x01]
        )
        with pytest.raises(IntegrityError):
            door.verify_audit("acme")

    def test_host_truncation_fails_in_enclave_verification(self):
        env, door = _door()
        door.register_tenant("acme", rate=100.0, burst=50.0)
        door.upload_dataset("acme", "d", [b"x"])
        door.audit_blobs["acme"].pop()
        with pytest.raises(IntegrityError):
            door.verify_audit("acme")

    def test_key_fingerprints_differ_per_tenant(self):
        _env, door = _door()
        door.register_tenant("a")
        door.register_tenant("b")
        fp_a = door.gateway.ecall("key_fingerprints", "a")
        fp_b = door.gateway.ecall("key_fingerprints", "b")
        assert fp_a["audit"] != fp_b["audit"]
        assert fp_a["dataset"] != fp_b["dataset"]
        assert fp_a["audit"] != fp_a["dataset"]

    def test_billing_matches_completed_requests(self):
        env, door = _door()
        door.register_tenant("acme", rate=100.0, burst=50.0)
        for i in range(4):
            door.upload_dataset("acme", "d%d" % i, [b"x"])
        oracle = FrontDoorOracle(door._root_key.key_bytes)
        report = oracle.assert_billing_consistent(door)
        assert "acme" in report.lines
