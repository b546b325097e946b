"""Fault tolerance of the sharded matching plane.

Shard enclaves die (chaos, fault schedules, direct kills); the plane
must detect, respawn from plane-sealed snapshots + mutation logs, and
never let a publication's match set shrink silently.  The referee for
every recovery is the single-index oracle (``tests.scbr.oracle``).
"""

import json
import random

import pytest

from repro.chaos import ChaosInjector, ChaosShardPlane, FaultSchedule
from repro.errors import ConfigurationError, RetryExhaustedError
from repro.microservices import Orchestrator, QosMonitor, ServiceRegistry
from repro.scbr.filters import Constraint, Operator, Publication, Subscription
from repro.scbr.health import ShardHealthPolicy
from repro.scbr import messages
from repro.scbr.messages import EncryptedEnvelope, serialize_publication
from repro.scbr.router import ScbrClient
from repro.scbr.sharding import (
    _AAD_SNAPSHOT,
    PartialCoverage,
    ShardedScbrRouter,
)
from repro.scbr.workload import ScbrWorkload
from repro.sgx.attestation import AttestationService
from repro.sgx.enclave import EnclaveContext
from repro.sim.events import Environment

from tests.scbr.oracle import oracle_match_sets


def sub(sub_id, bound, subscriber="alice", attribute="x"):
    return Subscription(
        sub_id, [Constraint(attribute, Operator.LE, bound)], subscriber
    )


def _publication(publisher, attributes):
    return EncryptedEnvelope.seal(
        publisher.key, publisher.client_id, "publish",
        serialize_publication(Publication(attributes)),
    )


def make_plane(seed=41, shards=2, **kwargs):
    from repro.sgx.platform import SgxPlatform

    platform = SgxPlatform(seed=seed, quoting_key_bits=512)
    attestation = AttestationService()
    attestation.register_platform(
        platform.platform_id, platform.quoting_enclave.public_key
    )
    router = ShardedScbrRouter(
        platform,
        lambda i: SgxPlatform(seed=100 * seed + i, quoting_key_bits=512),
        attestation_service=attestation,
        shards=shards,
        **kwargs,
    )
    attestation.trust_measurement(router.measurement)
    return router, attestation


def _matched_ids(alice, routed):
    """Union of matched subscription ids across routed envelopes."""
    matched = []
    for _subscriber, envelope in routed:
        _pub, ids = alice.open_notification_detail(envelope)
        matched.extend(ids)
    return sorted(matched)


class TestSnapshotRecovery:
    def test_recovered_shard_matches_like_before(self):
        router, attestation = make_plane(seed=47)
        alice = ScbrClient("alice", router, attestation)
        publisher = ScbrClient("publisher", router, attestation)
        for position in range(6):
            alice.subscribe(sub("s%d" % position, 10 * position))
        victim = router.shards[0].shard_id
        assert router.fail_shard(victim)
        assert not router.fail_shard(victim)  # already dead
        router.recover_shard(victim)
        routed = router.publish_routed(_publication(publisher, {"x": 25}))
        assert _matched_ids(alice, routed) == ["s3", "s4", "s5"]
        (episode,) = router.recovery_episodes
        assert episode["shard_id"] == victim
        assert episode["recovery_seconds"] > 0
        router.check_invariants()

    def test_mutations_after_snapshot_replay_from_log(self):
        # A tiny snapshot interval would hide log replay; a huge one
        # exercises it: every mutation since bring-up is in the log.
        router, attestation = make_plane(seed=48, snapshot_interval=1000)
        alice = ScbrClient("alice", router, attestation)
        publisher = ScbrClient("publisher", router, attestation)
        for position in range(8):
            alice.subscribe(sub("s%d" % position, 10 * position))
        alice.unsubscribe("s7")
        for shard in list(router.shards):
            router.fail_shard(shard.shard_id)
            router.recover_shard(shard.shard_id)
        assert sum(e["replayed"] for e in router.recovery_episodes) > 0
        # Only s7 (bound 70) could match x=65, and its removal was in
        # the replayed log -- a lost remove would resurrect it here.
        routed = router.publish_routed(_publication(publisher, {"x": 65}))
        assert _matched_ids(alice, routed) == []
        routed = router.publish_routed(_publication(publisher, {"x": 55}))
        assert _matched_ids(alice, routed) == ["s6"]
        router.check_invariants()

    def test_dead_shard_releases_its_memory(self):
        router, attestation = make_plane(seed=49)
        alice = ScbrClient("alice", router, attestation)
        for position in range(6):
            alice.subscribe(sub("s%d" % position, 10 * position))
        victim = router.shards[0]
        assert victim.enclave.memory.resident_bytes > 0
        router.fail_shard(victim.shard_id)
        assert victim.enclave.memory.resident_bytes == 0
        assert victim.enclave.memory.released
        # Nothing of the dead enclave lingers in its platform's EPC.
        owner = victim.enclave.memory.name
        assert all(
            key[0] != owner
            for key in victim.platform.epc.resident_page_keys()
        )
        router.recover_shard(victim.shard_id)
        router.check_invariants()

    def test_unsubscribe_during_outage_recovers_first(self):
        router, attestation = make_plane(seed=50)
        alice = ScbrClient("alice", router, attestation)
        publisher = ScbrClient("publisher", router, attestation)
        alice.subscribe(sub("gone", 50))
        home = router._home["gone"]
        router.fail_shard(home.shard_id)
        alice.unsubscribe("gone")
        routed = router.publish_routed(_publication(publisher, {"x": 10}))
        assert routed == []
        router.check_invariants()


class TestCoverageGuarantees:
    def test_report_mode_names_missing_partitions(self):
        router, attestation = make_plane(seed=51, on_partial="report")
        alice = ScbrClient("alice", router, attestation)
        publisher = ScbrClient("publisher", router, attestation)
        alice.subscribe(sub("ax", 50, attribute="x"))
        alice.subscribe(sub("ay", 50, attribute="y"))
        victim = router._home["ay"].shard_id
        router.fail_shard(victim)
        result = router.publish_routed(
            _publication(publisher, {"x": 10, "y": 10})
        )
        assert isinstance(result, PartialCoverage)
        assert result.missing == (victim,)
        assert not result.complete
        # The answering partition's matches are still delivered, and
        # "ay" is exactly what the report says is unknown.
        assert _matched_ids(alice, result.routed) == ["ax"]
        assert router.partial_publishes == 1
        # After healing, the same publication is complete again.
        router.recover_shard(victim)
        routed = router.publish_routed(
            _publication(publisher, {"x": 10, "y": 10})
        )
        assert _matched_ids(alice, routed) == ["ax", "ay"]

    def test_retry_mode_heals_and_delivers_in_full(self):
        router, attestation = make_plane(seed=52)  # on_partial="retry"
        alice = ScbrClient("alice", router, attestation)
        publisher = ScbrClient("publisher", router, attestation)
        alice.subscribe(sub("ax", 50, attribute="x"))
        alice.subscribe(sub("ay", 50, attribute="y"))
        router.fail_shard(router._home["ay"].shard_id)
        routed = router.publish_routed(
            _publication(publisher, {"x": 10, "y": 10})
        )
        assert _matched_ids(alice, routed) == ["ax", "ay"]
        assert router.partial_publishes == 1
        assert len(router.recovery_episodes) == 1
        router.check_invariants()

    def test_invalid_on_partial_rejected(self):
        with pytest.raises(ConfigurationError):
            make_plane(seed=53, on_partial="ignore")


class TestHeartbeatDetection:
    def test_scheduled_crash_is_detected_and_healed(self):
        env = Environment()
        injector = ChaosInjector(seed=7)
        monitor = QosMonitor(env)
        orchestrator = Orchestrator(env, monitor, ServiceRegistry())
        router, attestation = make_plane(
            seed=54, env=env, chaos=injector, orchestrator=orchestrator,
        )
        alice = ScbrClient("alice", router, attestation)
        publisher = ScbrClient("publisher", router, attestation)
        for position in range(6):
            alice.subscribe(sub("s%d" % position, 10 * position))
        schedule = FaultSchedule(env, injector)
        schedule.crash_shard_at(0.0032, router, 1)
        router.start_health(0.05)
        env.run(until=0.05)
        # The scripted fault fired and was logged under the plane name.
        assert any(
            name == "scbr-plane/shard-1" and kind == "shard-crash"
            for _t, kind, name in schedule.fired
        )
        # Detected once, with a finite onset-to-detection latency.
        (detection,) = router.monitor.detections
        assert detection.shard_id == 1
        assert detection.onset == pytest.approx(0.0032)
        assert 0 < detection.detection_latency < 0.05
        # Recovered: one episode, reported to the orchestrator too.
        (episode,) = router.recovery_episodes
        assert episode["shard_id"] == 1
        assert orchestrator.recovery_latencies() == [
            episode["recovery_seconds"]
        ]
        assert [d.kind for d in orchestrator.detections] == ["shard-liveness"]
        # And the healed plane still matches in full.
        routed = router.publish_routed(_publication(publisher, {"x": 25}))
        assert _matched_ids(alice, routed) == ["s3", "s4", "s5"]
        router.check_invariants()

    def test_lost_heartbeats_cause_harmless_false_positive(self):
        env = Environment()
        # Every beat is eaten: the detector must eventually suspect a
        # perfectly healthy shard -- and recovery must be idempotent.
        injector = ChaosInjector(seed=3, heartbeat_loss_rate=1.0)
        router, attestation = make_plane(
            seed=55, env=env, chaos=injector,
            health_policy=ShardHealthPolicy(startup_timeout=0.003),
        )
        alice = ScbrClient("alice", router, attestation)
        publisher = ScbrClient("publisher", router, attestation)
        for position in range(4):
            alice.subscribe(sub("s%d" % position, 10 * position))
        router.start_health(0.005)
        env.run(until=0.005)
        assert len(router.monitor.detections) >= 1
        assert len(router.recovery_episodes) >= 1
        assert injector.counts().get("heartbeat-loss", 0) > 0
        routed = router.publish_routed(_publication(publisher, {"x": 15}))
        assert _matched_ids(alice, routed) == ["s2", "s3"]
        router.check_invariants()

    def test_probing_without_env_rejected(self):
        router, _attestation = make_plane(seed=56)
        with pytest.raises(ConfigurationError):
            router.probe_heartbeats()
        with pytest.raises(ConfigurationError):
            router.start_health(0.01)


def _churn_workload(seed):
    return ScbrWorkload(seed=seed, num_attributes=6,
                        containment_fraction=0.5, num_subscribers=1)


def _alice_subscriptions(workload, count):
    """``count`` workload subscriptions, re-owned by the one test client."""
    return [
        Subscription(s.subscription_id, list(s.constraints.values()), "alice")
        for s in workload.subscriptions(count)
    ]


def _churn_scenario(seed, subscriptions=36, publications=6, crashes=3):
    """Randomised insert/remove churn with crashes at seeded points.

    Returns (per-publication delivered match sets, fault log, plane).
    The oracle gets the same live subscription set; the plane must
    deliver exactly the oracle's match sets despite losing shards
    mid-churn.
    """
    rng = random.Random(seed)
    router, attestation = make_plane(
        seed=57 + seed % 13, shards=3, snapshot_interval=4
    )
    alice = ScbrClient("alice", router, attestation)
    publisher = ScbrClient("publisher", router, attestation)
    workload = _churn_workload(seed)
    live = {}
    crash_steps = sorted(rng.sample(range(subscriptions), crashes))
    for position, subscription in enumerate(
        _alice_subscriptions(workload, subscriptions)
    ):
        alice.subscribe(subscription)
        live[subscription.subscription_id] = subscription
        if position % 5 == 2 and len(live) > 1:
            victim_id = rng.choice(sorted(live))
            alice.unsubscribe(victim_id)
            del live[victim_id]
        if position in crash_steps:
            shard = rng.choice(router.shards)
            router.fail_shard(shard.shard_id)
            if rng.random() < 0.5:
                # Sometimes heal eagerly; otherwise the next publish
                # or mutation on that shard must self-heal.
                router.recover_shard(shard.shard_id)
    probe_publications = workload.publications(publications)
    deliveries = []
    for publication in probe_publications:
        routed = router.publish_routed(
            _publication(publisher, publication.attributes)
        )
        deliveries.append(_matched_ids(alice, routed))
    oracle = oracle_match_sets(live.values(), probe_publications)
    router.check_invariants()
    return deliveries, router, oracle


class TestChurnAgainstOracle:
    @pytest.mark.parametrize("seed", [1, 8, 23])
    def test_post_recovery_match_sets_equal_oracle(self, seed):
        deliveries, router, oracle = _churn_scenario(seed)
        assert deliveries == oracle
        assert router.shard_failures >= 3
        assert len(router.recovery_episodes) >= 1

    def test_same_seed_same_deliveries_and_faults(self):
        first, router_a, _ = _churn_scenario(5)
        second, router_b, _ = _churn_scenario(5)
        assert first == second
        assert router_a.shard_failures == router_b.shard_failures
        assert (
            [e["shard_id"] for e in router_a.recovery_episodes]
            == [e["shard_id"] for e in router_b.recovery_episodes]
        )


class TestChaosShardPlane:
    def test_wrapper_crashes_and_plane_heals(self):
        injector = ChaosInjector(seed=11, shard_crash_rate=0.35)
        router, attestation = make_plane(seed=58, shards=3)
        hostile = ChaosShardPlane(router, injector)
        alice = ScbrClient("alice", router, attestation)
        publisher = ScbrClient("publisher", router, attestation)
        for position in range(9):
            alice.subscribe(sub("s%d" % position, 10 * position))
        for _ in range(8):
            routed = hostile.publish_routed(
                _publication(publisher, {"x": 45})
            )
            assert _matched_ids(alice, routed) == [
                "s5", "s6", "s7", "s8"
            ]
        assert hostile.crashes_injected > 0
        assert len(router.recovery_episodes) == hostile.crashes_injected
        router.check_invariants()

    def test_retry_exhaustion_is_a_typed_failure(self):
        """If healing itself keeps losing shards, the publish fails
        with RetryExhaustedError -- never a silently partial result."""
        injector = ChaosInjector(seed=2, shard_crash_rate=1.0)
        router, attestation = make_plane(seed=59, shards=2)
        # Make every recovery immediately fatal again by crashing on
        # each publish attempt through the wrapper.
        hostile = ChaosShardPlane(router, injector)
        alice = ScbrClient("alice", router, attestation)
        publisher = ScbrClient("publisher", router, attestation)
        alice.subscribe(sub("s0", 50))

        original = router._publish_once

        def sabotaged(envelope):
            routed, missing = original(envelope)
            for shard in router.shards:
                if not shard.enclave.destroyed:
                    router.fail_shard(shard.shard_id)
            return routed, tuple(
                sorted(set(missing) | {s.shard_id for s in router.shards})
            )

        router._publish_once = sabotaged
        with pytest.raises(RetryExhaustedError):
            hostile.publish_routed(_publication(publisher, {"x": 10}))


# --- checkpoints over memoised subscription bytes -----------------------

class _CountingJson:
    """``json`` for ``repro.scbr.messages``, counting subscription encodes."""

    loads = staticmethod(json.loads)

    def __init__(self):
        self.subscription_encodes = 0

    def dumps(self, value, **kwargs):
        if isinstance(value, dict) and "constraints" in value:
            self.subscription_encodes += 1
        return json.dumps(value, **kwargs)


def _opened_snapshots(router):
    """Each shard's next snapshot, opened: ``[header, record, ...]``."""
    plane_key = EnclaveContext(router.coordinator).state["plane_key"]
    return [
        plane_key.open_records(
            shard.enclave.ecall("snapshot")[1], _AAD_SNAPSHOT
        )
        for shard in router.shards
    ]


class TestCheckpointEncoding:
    def test_a_checkpoint_encodes_only_what_is_new(self, monkeypatch):
        """64 subscribes into a 500-subscription plane encode 128 times.

        Once by the client that builds each subscription and once by
        the shard that stores it -- however many checkpoints fall in
        between, none re-encodes the partition it seals.
        """
        router, attestation = make_plane(seed=62)
        alice = ScbrClient("alice", router, attestation)
        subscriptions = _alice_subscriptions(_churn_workload(11), 564)
        for subscription in subscriptions[:500]:
            alice.subscribe(subscription)
        for shard in router.shards:
            router.fleet.checkpoint(shard)
        counter = _CountingJson()
        monkeypatch.setattr(messages, "json", counter)
        before = router.fleet.checkpoints
        for subscription in subscriptions[500:]:
            alice.subscribe(subscription)
        assert router.fleet.checkpoints - before >= 64 // 16
        assert counter.subscription_encodes <= 2 * 64

    def test_recovered_shard_seals_what_its_uncrashed_twin_seals(self):
        def plane(crash):
            router, attestation = make_plane(seed=61, snapshot_interval=8)
            alice = ScbrClient("alice", router, attestation)
            publisher = ScbrClient("publisher", router, attestation)
            for position, subscription in enumerate(subscriptions):
                alice.subscribe(subscription)
                if crash and position == 40:
                    # 41 subscribes in, so the victim's last checkpoint
                    # sealed memoised bytes and its log is not empty.
                    victim = router.shards[0].shard_id
                    router.fail_shard(victim)
                    router.recover_shard(victim)
            deliveries = [
                _matched_ids(alice, router.publish_routed(
                    _publication(publisher, publication.attributes)
                ))
                for publication in publications
            ]
            router.check_invariants()
            return router, deliveries

        workload = _churn_workload(3)
        subscriptions = _alice_subscriptions(workload, 60)
        publications = workload.publications(6)
        crashed, crashed_deliveries = plane(crash=True)
        twin, twin_deliveries = plane(crash=False)
        assert crashed.recovery_episodes[0]["replayed"] > 0
        oracle = oracle_match_sets(subscriptions, publications)
        assert crashed_deliveries == twin_deliveries == oracle
        # Restore rebuilds the forest in snapshot order, so siblings may
        # be walked in another order than in the twin: the header and
        # every record are byte-equal, the sequence need not be.
        for mine, theirs in zip(
            _opened_snapshots(crashed), _opened_snapshots(twin)
        ):
            assert mine[0] == theirs[0]
            assert sorted(mine[1:]) == sorted(theirs[1:])

    def test_a_client_s_own_json_is_never_what_a_shard_seals(self):
        router, attestation = make_plane(seed=63)
        alice = ScbrClient("alice", router, attestation)
        subscription = sub("spaced", 50)
        canonical = messages.serialize_subscription(subscription)
        sent = json.dumps(json.loads(canonical), indent=2).encode("utf-8")
        assert sent != canonical
        router.subscribe(EncryptedEnvelope.seal(
            alice.key, alice.client_id, "subscribe", sent
        ))
        records = [
            record
            for snapshot in _opened_snapshots(router)
            for record in snapshot[1:]
        ]
        assert records == [canonical]
