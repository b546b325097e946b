"""Tests for the seeded fault injector and scheduled faults."""

import pytest

from repro.chaos import (
    ChaosConfig,
    ChaosInjector,
    ChaosSyscallExecutor,
    ChaosVolume,
    FaultSchedule,
)
from repro.errors import ConfigurationError, StorageUnavailableError
from repro.scone.fs_shield import ProtectedVolume, UntrustedStore
from repro.sim.events import Environment


class TestChaosConfig:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ConfigurationError):
            ChaosConfig(message_drop_rate=1.5)
        with pytest.raises(ConfigurationError):
            ChaosConfig(mapper_crash_rate=-0.1)

    def test_config_or_overrides_not_both(self):
        with pytest.raises(ConfigurationError):
            ChaosInjector(ChaosConfig(), message_drop_rate=0.5)


class TestDecisions:
    def test_same_seed_same_decisions(self):
        a = ChaosInjector(seed=3, message_drop_rate=0.3)
        b = ChaosInjector(seed=3, message_drop_rate=0.3)
        decisions_a = [a.drops_message("t", i) for i in range(200)]
        decisions_b = [b.drops_message("t", i) for i in range(200)]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)

    def test_decisions_are_order_independent(self):
        forward = ChaosInjector(seed=9, frame_corruption_rate=0.4)
        backward = ChaosInjector(seed=9, frame_corruption_rate=0.4)
        order_a = [forward.corrupts_frame(b"t", i) for i in range(64)]
        order_b = [
            backward.corrupts_frame(b"t", i) for i in reversed(range(64))
        ]
        assert order_a == list(reversed(order_b))
        assert forward.log() == backward.log()

    def test_attempts_are_independent_draws(self):
        injector = ChaosInjector(seed=5, storage_failure_rate=0.5)
        attempts = [
            injector.storage_fails("write", "/p", attempt)
            for attempt in range(40)
        ]
        # With rate 0.5, forty dependent draws would be all-true or
        # all-false; independence means both outcomes appear.
        assert any(attempts) and not all(attempts)

    def test_different_seeds_differ(self):
        a = ChaosInjector(seed=1, message_drop_rate=0.3)
        b = ChaosInjector(seed=2, message_drop_rate=0.3)
        assert [a.drops_message("t", i) for i in range(100)] != [
            b.drops_message("t", i) for i in range(100)
        ]

    def test_zero_rate_never_fires(self):
        injector = ChaosInjector(seed=1)
        assert not any(injector.drops_message("t", i) for i in range(50))
        assert injector.injections == 0

    def test_log_and_counts(self):
        injector = ChaosInjector(seed=3, message_drop_rate=1.0)
        injector.drops_message("t", 0)
        injector.drops_message("t", 1)
        assert injector.injections == 2
        assert injector.counts() == {"message-drop": 2}

    def test_delay_is_bounded_and_deterministic(self):
        a = ChaosInjector(seed=11, message_delay_rate=1.0,
                          message_delay_max=0.001)
        b = ChaosInjector(seed=11, message_delay_rate=1.0,
                          message_delay_max=0.001)
        delays = [a.delay_for_message("t", i) for i in range(20)]
        assert delays == [b.delay_for_message("t", i) for i in range(20)]
        assert all(0.0 <= delay <= 0.001 for delay in delays)


class TestChaosVolume:
    def test_failures_are_transient_and_typed(self):
        volume = ProtectedVolume(UntrustedStore(), chunk_size=128)
        chaotic = ChaosVolume(volume, ChaosInjector(
            seed=2, storage_failure_rate=1.0
        ))
        with pytest.raises(StorageUnavailableError):
            chaotic.write("/f", b"x")
        assert chaotic.failures_injected == 1

    def test_exists_stays_reliable(self):
        volume = ProtectedVolume(UntrustedStore(), chunk_size=128)
        chaotic = ChaosVolume(volume, ChaosInjector(
            seed=2, storage_failure_rate=1.0
        ))
        assert chaotic.exists("/nope") is False


class TestFaultSchedule:
    def test_fires_at_virtual_time(self):
        env = Environment()
        injector = ChaosInjector(seed=1)
        schedule = FaultSchedule(env, injector=injector)
        struck = []
        schedule.call_at(0.5, "custom", "thing", lambda: struck.append(env.now))
        env.run()
        assert struck == [0.5]
        assert schedule.fired == [(0.5, "custom", "thing")]
        assert injector.counts() == {"custom": 1}

    def test_past_time_rejected(self):
        env = Environment()
        env.run(until=1.0)
        schedule = FaultSchedule(env)
        with pytest.raises(Exception):
            schedule.call_at(0.5, "late", "thing", lambda: None)


class TestChaosSyscallExecutor:
    def test_stall_charges_cycles(self):
        from repro.sgx.costs import DEFAULT_COSTS
        from repro.scone.syscalls import AsyncSyscallExecutor, SimulatedKernel
        from repro.sim.clock import CycleClock

        clock = CycleClock()
        executor = AsyncSyscallExecutor(
            clock, SimulatedKernel(), DEFAULT_COSTS
        )
        calm = AsyncSyscallExecutor(
            CycleClock(), SimulatedKernel(), DEFAULT_COSTS
        )
        chaotic = ChaosSyscallExecutor(executor, ChaosInjector(
            seed=4, syscall_stall_rate=1.0, syscall_stall_cycles=1000
        ))
        chaotic.call("open", "/tmp/f")
        calm.call("open", "/tmp/f")
        assert chaotic.stalled == 1
        assert clock.now - calm.clock.now >= 1000


class _FailActive:
    name = "rb-0"

    def __init__(self):
        self.failed = 0

    def fail_active(self):
        self.failed += 1


class _Failable:
    name = "svc-1"

    def __init__(self):
        self.failed = 0

    def fail(self):
        self.failed += 1


class TestFailAt:
    def test_fail_active_target_records_broker_failure(self):
        env = Environment()
        injector = ChaosInjector(seed=1)
        schedule = FaultSchedule(env, injector=injector)
        broker = _FailActive()
        schedule.fail_at(0.25, broker)
        env.run()
        assert broker.failed == 1
        assert schedule.fired == [(0.25, "broker-failure", "rb-0")]

    def test_fail_method_and_callable_targets(self):
        env = Environment()
        schedule = FaultSchedule(env)
        target = _Failable()
        struck = []

        def pull_the_plug():
            struck.append(env.now)

        schedule.fail_at(0.2, target)
        schedule.fail_at(0.3, pull_the_plug, kind="power-loss")
        env.run()
        assert target.failed == 1
        assert struck == [0.3]
        assert schedule.fired == [
            (0.2, "target-failure", "svc-1"),
            (0.3, "power-loss", "pull_the_plug"),
        ]

    def test_unfailable_target_rejected(self):
        schedule = FaultSchedule(Environment())
        with pytest.raises(ConfigurationError):
            schedule.fail_at(0.1, object())

    def test_crash_shard_at_names_the_shard(self):
        env = Environment()

        class _Plane:
            name = "scbr-plane"

            def __init__(self):
                self.killed = []

            def fail_shard(self, shard_id):
                self.killed.append(shard_id)

        plane = _Plane()
        schedule = FaultSchedule(env)
        schedule.crash_shard_at(0.4, plane, 2)
        env.run()
        assert plane.killed == [2]
        assert schedule.fired == [(0.4, "shard-crash", "scbr-plane/shard-2")]


class TestRateFieldDiscovery:
    """Every *_rate dataclass field is validated -- by discovery, not a
    hand-maintained list, so a new fault rate can never skip it."""

    def test_every_rate_field_is_validated(self):
        import dataclasses

        rate_fields = [
            spec.name for spec in dataclasses.fields(ChaosConfig)
            if spec.name.endswith("_rate")
        ]
        assert "node_crash_rate" in rate_fields
        assert "node_partition_rate" in rate_fields
        for name in rate_fields:
            with pytest.raises(ConfigurationError):
                ChaosConfig(**{name: 1.01})
            with pytest.raises(ConfigurationError):
                ChaosConfig(**{name: -0.01})
            # In-range values pass for every discovered field.
            ChaosConfig(**{name: 0.5})

    def test_non_rate_fields_are_not_probability_checked(self):
        # Durations and cycle counts may exceed 1.0 freely.
        ChaosConfig(message_delay_max=2.0, node_partition_max=3.0,
                    syscall_stall_cycles=10**9)


class TestNodeFaults:
    def test_node_crash_is_seeded_and_order_independent(self):
        a = ChaosInjector(seed=13, node_crash_rate=0.3)
        b = ChaosInjector(seed=13, node_crash_rate=0.3)
        hits_a = [a.crashes_node("node-1", op) for op in range(60)]
        hits_b = [b.crashes_node("node-1", op) for op in reversed(range(60))]
        assert hits_a == list(reversed(hits_b))
        assert any(hits_a) and not all(hits_a)
        assert a.log() == b.log()

    def test_node_partition_duration_bounded_and_deterministic(self):
        a = ChaosInjector(seed=13, node_partition_rate=1.0,
                          node_partition_max=0.002)
        b = ChaosInjector(seed=13, node_partition_rate=1.0,
                          node_partition_max=0.002)
        durations = [a.partition_for_node("node-2", op) for op in range(20)]
        assert durations == [
            b.partition_for_node("node-2", op) for op in range(20)
        ]
        assert all(0.0 <= d <= 0.002 for d in durations)
        assert any(d > 0.0 for d in durations)

    def test_zero_rates_never_fire(self):
        injector = ChaosInjector(seed=13)
        assert not any(injector.crashes_node("n", op) for op in range(30))
        assert all(
            injector.partition_for_node("n", op) == 0.0 for op in range(30)
        )
        assert injector.injections == 0

    def test_schedule_crash_and_partition_node(self):
        class _Fleet:
            def __init__(self):
                self.failed = []
                self.partitioned = []

            def fail_node(self, name):
                self.failed.append(name)

            def partition_node(self, name, duration):
                self.partitioned.append((name, duration))

        class _Plane:
            name = "plane"

            def __init__(self):
                self.fleet = _Fleet()

        env = Environment()
        injector = ChaosInjector(seed=1)
        schedule = FaultSchedule(env, injector=injector)
        plane = _Plane()
        schedule.crash_node_at(0.2, plane, "node-0")
        schedule.partition_node_at(0.3, plane, "node-1", 0.05)
        env.run()
        assert plane.fleet.failed == ["node-0"]
        assert plane.fleet.partitioned == [("node-1", 0.05)]
        assert [entry[1] for entry in schedule.fired] == [
            "node-crash", "node-partition"
        ]
        assert injector.counts() == {"node-crash": 1, "node-partition": 1}
