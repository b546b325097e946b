"""Chaos robustness: crash-mid-request replay with exactly-once audit.

The gateway enclave is killed by seeded chaos before and after the
audit append; every request must still terminate in exactly one
audited outcome, the restored chains must verify against their
attested heads, and two same-seed chaos runs must produce
byte-identical sealed trails and telemetry snapshots (the E10 slice of
the chaos determinism gate).
"""

import json

import pytest

from repro.chaos.injector import ChaosConfig, ChaosInjector
from repro.errors import ConfigurationError, IntegrityError
from repro.service import SecureFrontDoor
from repro.service.gateway import GATEWAY_CODE
from repro.sim.events import Environment
from repro import telemetry

from tests.service.oracle import FrontDoorOracle


def _chaos_session(seed, crash_rate=0.2, requests=24):
    """A two-tenant session under seeded gateway crashes."""
    env = Environment()
    chaos = ChaosInjector(
        ChaosConfig(seed=seed, shard_crash_rate=crash_rate)
    )
    door = SecureFrontDoor(env, seed=33, chaos=chaos)
    for tenant in ("acme", "globex"):
        door.register_tenant(tenant, rate=1000.0, burst=1000.0)
    for index in range(requests):
        tenant = ("acme", "globex")[index % 2]
        door.upload_dataset(
            tenant, "d-%d" % index, [b"x" * (8 + index)]
        )
        env.run(until=env.now + 0.01)
    return door


class TestCrashReplay:
    def test_every_request_lands_exactly_once(self):
        door = _chaos_session(seed=3)
        assert door.gateway_recoveries > 0, (
            "chaos rate produced no crashes; test is vacuous"
        )
        oracle = FrontDoorOracle(door._root_key.key_bytes)
        totals = oracle.assert_books_balance(door)
        assert totals["completed"] == 24
        assert totals["failed"] == 0
        for tenant in ("acme", "globex"):
            count, _head = door.audit_head(tenant)
            # 12 requests + 1 registration, despite every replay.
            assert count == 13
            assert door.verify_audit(tenant) == 13

    def test_recovered_chains_stay_isolated(self):
        door = _chaos_session(seed=4)
        assert door.gateway_recoveries > 0
        FrontDoorOracle(door._root_key.key_bytes).assert_all_isolated(
            door
        )

    def test_chaos_runs_are_deterministic(self):
        """Same seed, same crashes, same sealed bytes -- the property
        the repo-wide chaos-smoke gate diffs for E10."""
        with telemetry.enabled():
            door_1 = _chaos_session(seed=5)
            snap_1 = telemetry.default_registry().snapshot()
        with telemetry.enabled():
            door_2 = _chaos_session(seed=5)
            snap_2 = telemetry.default_registry().snapshot()
        assert door_1.gateway_recoveries == door_2.gateway_recoveries
        oracle = FrontDoorOracle(door_1._root_key.key_bytes)
        for tenant in ("acme", "globex"):
            assert (
                oracle.audit_digest(door_1, tenant)
                == oracle.audit_digest(door_2, tenant)
            )
        assert json.dumps(snap_1, sort_keys=True) == json.dumps(
            snap_2, sort_keys=True
        )

    def test_different_chaos_seeds_diverge(self):
        door_1 = _chaos_session(seed=6)
        door_2 = _chaos_session(seed=7)
        assert (
            door_1.gateway_recoveries != door_2.gateway_recoveries
            or door_1.stats("acme") == door_2.stats("acme")
        )
        # Whatever the crash schedule, the books always balance.
        for door in (door_1, door_2):
            FrontDoorOracle(
                door._root_key.key_bytes
            ).assert_books_balance(door)

    def test_recovery_reattests_the_gateway(self):
        door = _chaos_session(seed=8)
        assert door.gateway_recoveries > 0
        # Bring-up plus one verification per recovery, all through the
        # door's attestation service.
        assert (door.attestation.hits + door.attestation.misses
                >= 1 + door.gateway_recoveries)


class TestRestoreHardening:
    def test_swapped_sealed_heads_fail_closed(self):
        """A host feeding tenant A's sealed head as tenant B's is
        caught inside the enclave at restore time."""
        env = Environment()
        door = SecureFrontDoor(env, seed=44)
        door.register_tenant("acme")
        door.register_tenant("globex")
        door.upload_dataset("acme", "d", [b"x"])
        fresh = door.platform.load_enclave(GATEWAY_CODE, name="evil")
        swapped = {
            "acme": door.audit_heads["globex"],
            "globex": door.audit_heads["acme"],
        }
        with pytest.raises(IntegrityError):
            fresh.ecall("restore", door.sealed_root, swapped)

    def test_foreign_sealed_root_fails_closed(self):
        env = Environment()
        door = SecureFrontDoor(env, seed=45)
        door.register_tenant("acme")
        fresh = door.platform.load_enclave(GATEWAY_CODE, name="fresh")
        with pytest.raises(IntegrityError):
            fresh.ecall(
                "restore", door.audit_heads["acme"], {}
            )

    def test_restore_resumes_every_chain(self):
        env = Environment()
        door = SecureFrontDoor(env, seed=46)
        door.register_tenant("acme", rate=100.0, burst=50.0)
        door.upload_dataset("acme", "d", [b"x"])
        head_before = door.audit_head("acme")
        door.gateway.destroy()
        door._recover_gateway()
        assert door.audit_head("acme") == head_before
        assert door.upload_dataset("acme", "d2", [b"y"]).ok
        assert door.verify_audit("acme") == head_before[0] + 1

    def test_failed_restore_installs_nothing(self):
        """Tenant 1's head is honest, tenant 2's head is forged: the
        restore must not leave a live gateway holding the
        root key and tenant 1's chain behind the IntegrityError."""
        env = Environment()
        door = SecureFrontDoor(env, seed=47)
        door.register_tenant("acme")
        door.register_tenant("globex")
        door.upload_dataset("acme", "d", [b"x"])
        fresh = door.platform.load_enclave(GATEWAY_CODE, name="half")
        forged = {
            "acme": door.audit_heads["acme"],
            "globex": door.audit_heads["acme"],
        }
        with pytest.raises(IntegrityError):
            fresh.ecall("restore", door.sealed_root, forged)
        for call in (
            ("audit_head", "acme"),
            ("append_audit", "acme", 2, 0.0, "a", "r", "ok"),
            ("seal_dataset", "acme", "d", [b"x"]),
        ):
            with pytest.raises(
                ConfigurationError, match="gateway enclave is not set up"
            ):
                fresh.ecall(*call)

    def test_stale_head_fails_closed_at_the_next_append(self):
        """The host restores the gateway from a sealed head one append
        old.  The next request's position is past that head's count:
        the append raises, and nothing is appended or stored."""
        env = Environment()
        door = SecureFrontDoor(env, seed=48)
        door.register_tenant("acme", rate=1000.0, burst=1000.0)
        door.upload_dataset("acme", "d-0", [b"x"])
        stale = door.audit_heads["acme"]
        door.upload_dataset("acme", "d-1", [b"x"])
        door.audit_heads["acme"] = stale
        door.gateway.destroy()
        door._recover_gateway()
        stored = list(door.audit_blobs["acme"])
        with pytest.raises(IntegrityError, match="stale sealed head"):
            door.upload_dataset("acme", "d-2", [b"x"])
        assert door.audit_blobs["acme"] == stored
        assert door.audit_heads["acme"] is stale
        assert door.audit_head("acme")[0] == len(stored) - 1

    def test_replayed_positions_append_nothing(self):
        env = Environment()
        door = SecureFrontDoor(env, seed=49)
        door.register_tenant("acme", rate=1000.0, burst=1000.0)
        for index in range(6):
            door.upload_dataset("acme", "d-%d" % index, [b"x"])
        head_before = door.audit_head("acme")
        door.gateway.destroy()
        door._recover_gateway()
        for position in range(7):
            door._audit(
                "acme", position, "dataset.upload", "replayed", "ok"
            )
        assert door.audit_head("acme") == head_before
        assert len(door.audit_blobs["acme"]) == 7
        assert door.verify_audit("acme") == 7


class TestConstantHead:
    def test_sealed_head_does_not_grow_with_history(self):
        """The regression guard for the O(history) head: what the
        gateway platform-seals per request is ``{tenant, count, head}``,
        so only the decimal counter can widen it."""
        env = Environment()
        door = SecureFrontDoor(env, seed=50)
        door.register_tenant("acme")

        def head_length_after(appends):
            while len(door.audit_blobs["acme"]) <= appends:
                door._audit(
                    "acme", len(door.audit_blobs["acme"]),
                    "bench", "r", "ok",
                )
            return len(door.audit_heads["acme"].to_bytes())

        short, long = head_length_after(20), head_length_after(2000)
        # count: 21 -> 2001.
        assert 0 <= long - short <= 2
        assert door.verify_audit("acme") == 2001


class _CrashAtNextAck:
    """Scripted chaos: kill the gateway once, at the next ``ack``
    stage after :meth:`arm` (after the append, before the reply)."""

    def __init__(self):
        self.armed = False

    def arm(self):
        self.armed = True

    def crashes_shard(self, _shard_id, operation):
        if self.armed and operation.startswith("ack|"):
            self.armed = False
            return True
        return False


class TestLongHistoryReplay:
    def test_ack_crash_after_long_history_lands_exactly_once(self):
        """Restore needs nothing proportional to the 500-entry history,
        and the replayed request is still recognised as already
        recorded."""
        env = Environment()
        chaos = _CrashAtNextAck()
        door = SecureFrontDoor(env, seed=51, chaos=chaos)
        door.register_tenant("acme", rate=1e6, burst=1e6)
        requests = 500
        for index in range(requests):
            assert door.upload_dataset("acme", "d-%d" % index, [b"x"]).ok
        chaos.arm()
        receipt = door.upload_dataset("acme", "d-last", [b"x"])
        assert receipt.ok
        assert door.gateway_recoveries == 1
        requests += 1
        assert len(door.audit_blobs["acme"]) == requests + 1
        assert door.verify_audit("acme") == requests + 1
        totals = FrontDoorOracle(
            door._root_key.key_bytes
        ).assert_books_balance(door)
        assert totals["completed"] == requests
