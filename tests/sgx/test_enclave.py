"""Tests for enclaves, measurement, and ECALL/OCALL transitions."""

import pytest

from repro.errors import EnclaveError
from repro.sgx.costs import MemoryCosts
from repro.sgx.enclave import EnclaveCode, measure_code
from repro.sgx.platform import SgxPlatform


def echo(ctx, value):
    return value


def store(ctx, key, value):
    ctx.state[key] = value


def load(ctx, key):
    return ctx.state.get(key)


def crunch(ctx, cycles):
    ctx.compute(cycles)
    return ctx.clock.now


def call_out(ctx, fn):
    return ctx.ocall(fn)


ENTRY_POINTS = {
    "echo": echo,
    "store": store,
    "load": load,
    "crunch": crunch,
    "call_out": call_out,
}


@pytest.fixture()
def platform():
    return SgxPlatform(seed=7, quoting_key_bits=512)


@pytest.fixture()
def enclave(platform):
    return platform.load_enclave(EnclaveCode("svc", ENTRY_POINTS))


class TestMeasurement:
    def test_same_code_same_measurement(self):
        a = EnclaveCode("svc", ENTRY_POINTS)
        b = EnclaveCode("svc", ENTRY_POINTS)
        assert a.measurement == b.measurement

    def test_different_entry_points_differ(self):
        a = EnclaveCode("svc", {"echo": echo})
        b = EnclaveCode("svc", {"echo": echo, "load": load})
        assert a.measurement != b.measurement

    def test_config_changes_measurement(self):
        base = EnclaveCode("svc", ENTRY_POINTS)
        configured = EnclaveCode("svc", ENTRY_POINTS, b"mode=strict")
        assert base.measurement != configured.measurement

    def test_name_changes_measurement(self):
        a = EnclaveCode("svc-a", {"echo": echo})
        b = EnclaveCode("svc-b", {"echo": echo})
        assert a.measurement != b.measurement

    def test_version_changes_measurement(self):
        a = EnclaveCode("svc", {"echo": echo}, version=1)
        b = EnclaveCode("svc", {"echo": echo}, version=2)
        assert a.measurement != b.measurement

    def test_code_body_changes_measurement(self):
        def echo_tampered(ctx, value):
            return (value, "leaked")

        a = EnclaveCode("svc", {"echo": echo})
        b = EnclaveCode("svc", {"echo": echo_tampered})
        assert a.measurement != b.measurement

    def test_measure_code_helper(self):
        assert measure_code({"echo": echo}, name="svc") == EnclaveCode(
            "svc", {"echo": echo}
        ).measurement

    def test_empty_entry_points_rejected(self):
        with pytest.raises(EnclaveError):
            EnclaveCode("svc", {})


class TestEcalls:
    def test_ecall_runs_entry_point(self, enclave):
        assert enclave.ecall("echo", 42) == 42

    def test_unknown_entry_point(self, enclave):
        with pytest.raises(EnclaveError):
            enclave.ecall("missing")

    def test_state_persists_across_ecalls(self, enclave):
        enclave.ecall("store", "k", "v")
        assert enclave.ecall("load", "k") == "v"

    def test_transition_cost_charged(self, platform, enclave):
        before = platform.clock.now
        enclave.ecall("echo", 1)
        elapsed = platform.clock.now - before
        assert elapsed == 2 * platform.costs.transition_cycles

    def test_ocall_charges_two_more_transitions(self, platform, enclave):
        before = platform.clock.now
        enclave.ecall("call_out", lambda: "outside")
        elapsed = platform.clock.now - before
        assert elapsed == 4 * platform.costs.transition_cycles

    def test_ocall_returns_value(self, enclave):
        assert enclave.ecall("call_out", lambda: "outside") == "outside"

    def test_compute_charged_inside(self, platform, enclave):
        now = enclave.ecall("crunch", 1234)
        assert now >= 1234

    def test_destroyed_enclave_rejects_ecalls(self, enclave):
        enclave.destroy()
        with pytest.raises(EnclaveError):
            enclave.ecall("echo", 1)

    def test_destroy_clears_state(self, enclave):
        enclave.ecall("store", "secret", "x")
        enclave.destroy()
        assert enclave._state == {}

    def test_ecall_count(self, enclave):
        enclave.ecall("echo", 1)
        enclave.ecall("echo", 2)
        assert enclave.ecall_count == 2

    def test_identity_summary_has_no_state(self, enclave):
        enclave.ecall("store", "secret", "x")
        summary = enclave.identity_summary()
        assert "secret" not in str(summary)
        assert summary["measurement"] == enclave.measurement


class TestEnclaveMemoryIsolation:
    def test_each_enclave_gets_own_memory_namespace(self, platform):
        first = platform.load_enclave(EnclaveCode("a", {"echo": echo}))
        second = platform.load_enclave(EnclaveCode("b", {"echo": echo}))
        assert first.memory.name != second.memory.name

    def test_enclaves_share_platform_epc(self, platform):
        first = platform.load_enclave(EnclaveCode("a", {"echo": echo}))
        second = platform.load_enclave(EnclaveCode("b", {"echo": echo}))
        assert first.memory.epc is second.memory.epc

    def test_costs_flow_from_platform(self, enclave, platform):
        assert enclave.memory.costs is platform.costs


class TestCustomCosts:
    def test_platform_accepts_cost_overrides(self):
        costs = MemoryCosts(transition_cycles=5)
        platform = SgxPlatform(costs=costs, seed=1, quoting_key_bits=512)
        enclave = platform.load_enclave(EnclaveCode("svc", {"echo": echo}))
        before = platform.clock.now
        enclave.ecall("echo", 0)
        assert platform.clock.now - before == 10
