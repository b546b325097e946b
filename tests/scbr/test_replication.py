"""Tests for replicated-broker failover and exactly-once delivery."""

import pytest

from repro.chaos import ChaosInjector, FaultSchedule
from repro.microservices.orchestrator import Orchestrator
from repro.microservices.qos import QosMonitor
from repro.microservices.registry import ServiceRegistry
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


@pytest.fixture()
def world():
    env = Environment()
    platform = SgxPlatform(seed=59, quoting_key_bits=512)
    attestation = AttestationService()
    attestation.register_platform(
        platform.platform_id, platform.quoting_enclave.public_key
    )
    return env, platform, attestation


def match_all(subscriber):
    return Subscription(
        "s-%s" % subscriber, [Constraint("t", Operator.GE, 0)], subscriber
    )


class TestFailover:
    def test_standby_restores_subscriptions_from_sealed_checkpoint(self, world):
        env, platform, attestation = world
        broker = ReplicatedBroker(platform, env=env)
        publisher = FailoverClient("alice", broker, attestation)
        subscriber = FailoverClient("bob", broker, attestation)
        subscriber.subscribe(match_all("bob"))

        broker.fail_active()
        notified = publisher.publish(
            Publication(attributes={"t": 1}, payload=b"after")
        )
        assert broker.failovers == 1
        assert notified == ["bob"]
        assert [p.payload for p in subscriber.inbox] == [b"after"]

    def test_clients_reattest_with_fresh_keys(self, world):
        env, platform, attestation = world
        broker = ReplicatedBroker(platform, env=env)
        publisher = FailoverClient("alice", broker, attestation)
        subscriber = FailoverClient("bob", broker, attestation)
        subscriber.subscribe(match_all("bob"))
        old_key = subscriber.key
        broker.fail_active()
        publisher.publish(Publication(attributes={"t": 1}, payload=b"x"))
        assert subscriber.reattachments == 1
        assert subscriber.key is not old_key
        assert len(subscriber._keys) == 2

    def test_measurement_stable_across_failover(self, world):
        env, platform, attestation = world
        broker = ReplicatedBroker(platform, env=env)
        FailoverClient("alice", broker, attestation)
        before = broker.measurement
        broker.fail_active()
        broker._failover()
        assert broker.measurement == before

    def test_failover_reported_to_orchestrator(self, world):
        env, platform, attestation = world
        orchestrator = Orchestrator(env, QosMonitor(env), ServiceRegistry())
        broker = ReplicatedBroker(platform, env=env,
                                  orchestrator=orchestrator)
        publisher = FailoverClient("alice", broker, attestation)
        FaultSchedule(env).fail_at(0.010, broker)
        env.call_at(0.020, lambda: publisher.publish(
            Publication(attributes={"t": 1}, payload=b"x")
        ))
        env.run()
        kinds = [(d.service_name, d.kind) for d in orchestrator.detections]
        assert ("scbr-broker", "broker-failover") in kinds
        latencies = orchestrator.detection_latencies()
        assert latencies and latencies[0] == pytest.approx(0.010)


class TestExactlyOnce:
    def test_dropped_notifications_replayed_once(self, world):
        env, platform, attestation = world
        chaos = ChaosInjector(seed=7, notification_drop_rate=0.4)
        broker = ReplicatedBroker(platform, env=env, chaos=chaos)
        publisher = FailoverClient("alice", broker, attestation)
        subscriber = FailoverClient("bob", broker, attestation)
        subscriber.subscribe(match_all("bob"))
        for index in range(20):
            publisher.publish(
                Publication(attributes={"t": index}, payload=b"p%d" % index)
            )
        assert broker.notifications_dropped > 0
        assert len(subscriber.inbox) < 20
        subscriber.sync()
        assert sorted(
            p.attributes["_pub_seq"] for p in subscriber.inbox
        ) == list(range(20))
        # A full unfiltered replay redelivers everything; sequence
        # dedup keeps the inbox exactly-once.
        broker.replay("bob")
        assert len(subscriber.inbox) == 20
        assert subscriber.duplicates_discarded > 0

    def test_exactly_once_across_failover(self, world):
        env, platform, attestation = world
        chaos = ChaosInjector(seed=7, notification_drop_rate=0.25)
        broker = ReplicatedBroker(platform, env=env, chaos=chaos)
        publisher = FailoverClient("alice", broker, attestation)
        subscriber = FailoverClient("bob", broker, attestation)
        subscriber.subscribe(match_all("bob"))
        for index in range(20):
            if index == 10:
                broker.fail_active()
            publisher.publish(
                Publication(attributes={"t": index}, payload=b"p%d" % index)
            )
        subscriber.sync()
        assert sorted(
            p.attributes["_pub_seq"] for p in subscriber.inbox
        ) == list(range(20))
        # Pre-failover notifications replay sealed under the old key;
        # the key history opens them.
        assert subscriber.reattachments == 1

    def test_two_subscribers_isolated_logs(self, world):
        env, platform, attestation = world
        broker = ReplicatedBroker(platform, env=env)
        publisher = FailoverClient("alice", broker, attestation)
        bob = FailoverClient("bob", broker, attestation)
        carol = FailoverClient("carol", broker, attestation)
        bob.subscribe(match_all("bob"))
        carol.subscribe(
            Subscription("s-carol",
                         [Constraint("t", Operator.GE, 5)], "carol")
        )
        for index in range(10):
            publisher.publish(
                Publication(attributes={"t": index}, payload=b"p%d" % index)
            )
        bob.sync()
        carol.sync()
        assert len(bob.inbox) == 10
        assert len(carol.inbox) == 5
        assert all(p.attributes["t"] >= 5 for p in carol.inbox)
