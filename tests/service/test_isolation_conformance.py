"""Cross-tenant isolation conformance: fuzzed tenants vs the oracle.

Drives N tenants through a seeded mixed workload and then lets the
operator oracle audit everything the host can see: every chain must
verify under its own tenant's independently derived key and *only*
that key, no sealed dataset may open under a foreign key, the books
must balance to the request, and the QoS/billing counters must agree
with the door's ledgers exactly -- with telemetry on or off.
"""

import pytest

from repro.crypto.primitives import DeterministicRandomSource
from repro.service import SecureFrontDoor, TenantQuota
from repro.sim.events import Environment
from repro import telemetry

from tests.service.oracle import FrontDoorOracle

TENANTS = ["acme", "globex", "initech", "umbrella"]


def _mixed_workload(seed, requests=40, door_seed=21):
    """One seeded multi-tenant session; returns the door."""
    env = Environment()
    door = SecureFrontDoor(
        env, seed=door_seed,
        default_quota=TenantQuota(sealed_bytes=512, jobs=4),
    )
    rng = DeterministicRandomSource(seed)
    for tenant in TENANTS:
        door.register_tenant(tenant, rate=5.0, burst=2.0)
    for index in range(requests):
        tenant = TENANTS[
            int.from_bytes(rng.bytes(2), "big") % len(TENANTS)
        ]
        kind = int.from_bytes(rng.bytes(2), "big") % 4
        if kind == 0:
            size = 1 + int.from_bytes(rng.bytes(1), "big") % 64
            door.upload_dataset(
                tenant, "d-%d" % index, [b"r" * size, b"s" * size]
            )
        elif kind == 1:
            door.subscribe(
                tenant, "s-%d" % index,
                [("load", ">", index % 7)],
            )
        elif kind == 2:
            door.publish(tenant, {"load": index % 11})
        else:
            door.upload_dataset(tenant, "big-%d" % index, [b"z" * 96])
        env.run(until=env.now + 0.03)
    return door


class TestIsolationConformance:
    def test_every_chain_verifies_and_no_key_crosses_tenants(self):
        door = _mixed_workload(seed=5)
        oracle = FrontDoorOracle(door._root_key.key_bytes)
        for tenant in TENANTS:
            entries = oracle.verify_tenant(door, tenant)
            assert entries[0].action == "tenant.register"
        oracle.assert_all_isolated(door)

    def test_books_balance_for_every_tenant(self):
        door = _mixed_workload(seed=6)
        oracle = FrontDoorOracle(door._root_key.key_bytes)
        totals = oracle.assert_books_balance(door)
        assert totals["offered"] == 40
        # The workload is tuned to exercise more than one outcome.
        assert totals["completed"] > 0
        assert totals["shed"] + totals["quota_rejected"] > 0

    def test_billing_totals_match_qos_counters_exactly(self):
        with telemetry.enabled():
            door = _mixed_workload(seed=7)
            snapshot = telemetry.default_registry().snapshot()
        oracle = FrontDoorOracle(door._root_key.key_bytes)
        oracle.assert_billing_consistent(door)
        counters = snapshot["counters"]
        for tenant in TENANTS:
            stats = door.stats(tenant)
            assert counters.get(
                "service.offered{tenant=%s}" % tenant, 0
            ) == stats["offered"]
            assert counters.get(
                "service.admitted{tenant=%s}" % tenant, 0
            ) == stats["admitted"]
            assert counters.get(
                "service.shed{tenant=%s}" % tenant, 0
            ) == stats["shed"]
            assert counters.get(
                "qos.events_handled{service=%s}" % tenant, 0
            ) == stats["completed"]
        assert (
            counters["service.audit_entries"]
            == sum(len(door.audit_blobs[t]) for t in TENANTS)
        )

    def test_telemetry_on_and_off_are_identical(self):
        """The counter-migration invariant extended to the front door:
        enabling telemetry must not change a single decision, count,
        or sealed audit byte."""
        door_off = _mixed_workload(seed=8)
        with telemetry.enabled():
            door_on = _mixed_workload(seed=8)
        oracle = FrontDoorOracle(door_off._root_key.key_bytes)
        for tenant in TENANTS:
            assert door_on.stats(tenant) == door_off.stats(tenant)
            assert (
                oracle.audit_digest(door_on, tenant)
                == oracle.audit_digest(door_off, tenant)
            )

    def test_same_seed_sessions_are_byte_identical(self):
        door_1 = _mixed_workload(seed=9)
        door_2 = _mixed_workload(seed=9)
        oracle = FrontDoorOracle(door_1._root_key.key_bytes)
        for tenant in TENANTS:
            assert (
                oracle.audit_digest(door_1, tenant)
                == oracle.audit_digest(door_2, tenant)
            )
            assert door_1.stats(tenant) == door_2.stats(tenant)
        assert door_1.audit_head(
            TENANTS[0]
        ) == door_2.audit_head(TENANTS[0])

    def test_different_roots_produce_disjoint_key_universes(self):
        door = _mixed_workload(seed=10)
        foreign = FrontDoorOracle(b"\x42" * 32)
        with pytest.raises(Exception):
            foreign.verify_tenant(door, TENANTS[0])
