"""Stateful property test: exactly-once audit from the sealed head alone.

Hypothesis interleaves ok / shed / quota / error requests from several
tenants with gateway crashes before the plane work (``pre``), after
the audit append (``ack``), on every attempt (retries exhausted) and
between requests.  After every step each tenant's chain must hold
exactly one entry per offered request plus the registration, verify
in-enclave and offline, and every restart must have been given the
sealed root and the sealed heads -- nothing else, and nothing that
grows with history.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.service import SecureFrontDoor
from repro.service.quota import TenantQuota
from repro.sim.events import Environment

from tests.service.oracle import FrontDoorOracle

TENANTS = ["acme", "globex", "initech"]
BURST = 3
QUOTA_BYTES = 64


class _ScriptedCrashes:
    """Chaos stand-in: kills the gateway at the armed stage of the
    request in flight -- once, or (``exhaust``) on every attempt."""

    def __init__(self):
        self.stage = None
        self.exhaust = False

    def arm(self, stage, exhaust=False):
        self.stage, self.exhaust = stage, exhaust

    def crashes_shard(self, _shard_id, operation):
        if self.stage is None or not operation.startswith(self.stage):
            return False
        if not self.exhaust:
            self.stage = None
        return True


class FrontDoorMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 3))
    def setup(self, seed):
        self.env = Environment()
        self.chaos = _ScriptedCrashes()
        self.door = SecureFrontDoor(self.env, seed=seed, chaos=self.chaos)
        self.restores = []
        load_enclave = self.door.platform.load_enclave

        def spying_load(code, name=None):
            enclave = load_enclave(code, name=name)
            ecall = enclave.ecall

            def spy(entry_point, *args, **kwargs):
                if entry_point == "restore":
                    self.restores.append((args, kwargs))
                return ecall(entry_point, *args, **kwargs)

            enclave.ecall = spy
            return enclave

        self.door.platform.load_enclave = spying_load
        for tenant in TENANTS:
            self.door.register_tenant(
                tenant, quota=TenantQuota(sealed_bytes=QUOTA_BYTES),
                rate=1.0, burst=float(BURST),
            )
        self.oracle = FrontDoorOracle(self.door._root_key.key_bytes)
        self.names = 0
        self.head_widths = {}

    def _refill(self):
        self.env.run(until=self.env.now + 2.0 * BURST)

    def _name(self):
        self.names += 1
        return "d-%d" % self.names

    @rule(tenant=st.sampled_from(TENANTS),
          crash=st.sampled_from([None, "pre", "ack", "exhaust"]))
    def ok_request(self, tenant, crash):
        self._refill()
        if crash is not None:
            self.chaos.arm(
                "pre" if crash == "exhaust" else crash,
                exhaust=crash == "exhaust",
            )
        # Zero-length records: never trips the byte quota.
        receipt = self.door.upload_dataset(tenant, self._name(), [b""])
        self.chaos.arm(None)
        assert receipt.outcome == ("error" if crash == "exhaust" else "ok")

    @rule(tenant=st.sampled_from(TENANTS))
    def shed_request(self, tenant):
        for _ in range(BURST + 1):
            receipt = self.door.upload_dataset(tenant, self._name(), [b""])
            if receipt.outcome == "shed":
                return
        raise AssertionError("an empty bucket must shed")

    @rule(tenant=st.sampled_from(TENANTS))
    def quota_request(self, tenant):
        self._refill()
        receipt = self.door.upload_dataset(
            tenant, self._name(), [b"x" * (QUOTA_BYTES + 1)]
        )
        assert receipt.outcome == "quota"

    @rule(tenant=st.sampled_from(TENANTS),
          crash=st.sampled_from([None, "pre"]))
    def error_request(self, tenant, crash):
        self._refill()
        self.chaos.arm(crash)
        receipt = self.door.submit_job(
            tenant, self._name(), "no-such-dataset", None, None
        )
        self.chaos.arm(None)
        assert receipt.outcome == "error"

    @rule()
    def kill_gateway_between_requests(self):
        self.door.gateway.destroy()

    @invariant()
    def one_entry_per_offered_request(self):
        for tenant in TENANTS:
            offered = self.door.admission.counts(tenant)["offered"]
            assert self.door.verify_audit(tenant) == offered + 1
            assert len(self.oracle.verify_tenant(self.door, tenant)) == (
                offered + 1
            )
        self.oracle.assert_books_balance(self.door)

    @invariant()
    def sealed_head_is_constant_size(self):
        for tenant in TENANTS:
            count, _head = self.door.audit_head(tenant)
            width = (
                len(self.door.audit_heads[tenant].to_bytes())
                - len(str(count))
            )
            assert self.head_widths.setdefault(tenant, width) == width

    @invariant()
    def restarts_get_root_and_heads_only(self):
        for args, kwargs in self.restores:
            sealed_root, heads = args
            assert not kwargs
            assert sealed_root is self.door.sealed_root
            assert sorted(heads) == sorted(TENANTS)


TestFrontDoorStateful = FrontDoorMachine.TestCase
TestFrontDoorStateful.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None
)
