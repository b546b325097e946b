"""Seeded chaos must be reproducible: same seed, same faults, same logs.

Every chaos decision is a pure function of (seed, fault kind,
coordinates), so two runs of the same scenario with the same seed must
inject the same faults, trigger the same detections, and recover along
the same path -- even when the workload itself is multi-threaded.
Without this property every chaos test in the suite would be flaky by
construction.
"""

from repro.chaos import ChaosBus, ChaosInjector, FaultSchedule
from repro.crypto.aead import AeadKey
from repro.microservices.eventbus import (
    ReliableEventBus,
    ReliableSubscriber,
    SealedEvent,
)
from repro.microservices.orchestrator import Orchestrator
from repro.microservices.qos import QosMonitor
from repro.microservices.registry import ServiceRegistry
from repro.retry import RetryPolicy
from repro.bigdata.mapreduce import MapReduceJob, SecureMapReduce
from repro.scbr import (
    Constraint,
    FailoverClient,
    Operator,
    Publication,
    ReplicatedBroker,
    Subscription,
)
from repro.sgx.attestation import AttestationService
from repro.sgx.platform import SgxPlatform
from repro.sim.events import Environment

SEED = 97


def _bus_detection_log():
    """Run a lossy bus scenario; return (injection log, detection log)."""
    env = Environment()
    bus = ReliableEventBus(env, latency=0.0001, retention=64)
    chaos = ChaosInjector(seed=SEED, message_drop_rate=0.2,
                          message_duplicate_rate=0.1,
                          message_delay_rate=0.1)
    chaotic = ChaosBus(bus, chaos)
    orchestrator = Orchestrator(env, QosMonitor(env), ServiceRegistry())
    key = AeadKey(b"\x41" * 32)
    subscriber = ReliableSubscriber(
        chaotic, "t", lambda e: e.open(key), orchestrator=orchestrator
    )
    for index in range(40):
        def publish(index=index):
            sequence = bus.next_sequence("t")
            chaotic.publish(SealedEvent.seal(key, "t", "gen", sequence,
                                             b"m%d" % index))
        env.call_at(0.001 * (index + 1), publish)
    env.run()
    detections = [
        (d.service_name, d.kind, d.detected_at)
        for d in orchestrator.detections
    ]
    return chaos.log(), detections, subscriber.delivered, tuple(
        subscriber.lost
    )


def _mapreduce_recovery_log():
    """Run a crashy parallel map/reduce; return its recovery trace."""
    platform = SgxPlatform(seed=SEED, quoting_key_bits=512)
    chaos = ChaosInjector(seed=SEED, mapper_crash_rate=0.35,
                          reducer_crash_rate=0.2)
    job = MapReduceJob(
        map_fn=lambda r: [(w, 1) for w in r.split()],
        reduce_fn=lambda _k, vs: sum(vs),
        mappers=4, reducers=2,
    )
    engine = SecureMapReduce(
        platform, job, chaos=chaos,
        retry_policy=RetryPolicy(max_attempts=8, base_delay=0.004),
    )
    records = ["a b", "b c", "c a", "a a", "d b", "c d"]
    result = engine.run(records)
    recoveries = sorted(
        (r["task"], r["attempts"], r["backoff_seconds"])
        for r in engine.recoveries
    )
    return chaos.log(), recoveries, engine.crashes_detected, result


def _failover_log():
    """Run a broker failover scenario; return its detection trace."""
    env = Environment()
    platform = SgxPlatform(seed=SEED, quoting_key_bits=512)
    attestation = AttestationService()
    attestation.register_platform(
        platform.platform_id, platform.quoting_enclave.public_key
    )
    chaos = ChaosInjector(seed=SEED, notification_drop_rate=0.3)
    orchestrator = Orchestrator(env, QosMonitor(env), ServiceRegistry())
    broker = ReplicatedBroker(platform, env=env, chaos=chaos,
                              orchestrator=orchestrator)
    publisher = FailoverClient("alice", broker, attestation)
    subscriber = FailoverClient("bob", broker, attestation)
    subscriber.subscribe(
        Subscription("s", [Constraint("t", Operator.GE, 0)], "bob")
    )
    FaultSchedule(env, injector=chaos).fail_at(0.0055, broker)
    for index in range(12):
        env.call_at(0.001 * (index + 1), lambda index=index: publisher.publish(
            Publication(attributes={"t": index}, payload=b"p%d" % index)
        ))
    env.run()
    subscriber.sync()
    detections = [
        (d.service_name, d.kind, d.detected_at, d.onset)
        for d in orchestrator.detections
    ]
    inbox = sorted(p.attributes["_pub_seq"] for p in subscriber.inbox)
    return chaos.log(), detections, broker.failover_latencies, inbox


class TestSameSeedSameRun:
    def test_bus_detection_logs_identical(self):
        assert _bus_detection_log() == _bus_detection_log()

    def test_parallel_mapreduce_recovery_identical(self):
        # The driver runs tasks one after another in index order;
        # hash-based fault decisions make the injected crash set (and
        # hence the recovery trace) a function of the seed alone, not
        # of the order the driver asks in.
        assert _mapreduce_recovery_log() == _mapreduce_recovery_log()

    def test_broker_failover_trace_identical(self):
        first = _failover_log()
        assert first == _failover_log()
        # And the scenario is exactly-once on top of being stable.
        assert first[3] == list(range(12))

    def test_different_seed_changes_the_fault_set(self):
        baseline = ChaosInjector(seed=SEED, message_drop_rate=0.2)
        shifted = ChaosInjector(seed=SEED + 1, message_drop_rate=0.2)
        a = [baseline.drops_message("t", i) for i in range(100)]
        b = [shifted.drops_message("t", i) for i in range(100)]
        assert a != b
