"""Tests for the EPC-aware sharded matching plane (index + enclave level)."""

import pytest

from hypothesis import given, settings, strategies as st

from repro.errors import AttestationError, ConfigurationError, IntegrityError
from repro.scbr.filters import Constraint, Operator, Publication, Subscription
from repro.scbr.naive import LinearIndex
from repro.scbr.sharding import (
    DEFAULT_RECORD_BYTES,
    EpcWatermarkPolicy,
    ShardPlanner,
    ShardedMatchingPlane,
    ShardedScbrRouter,
)
from repro.scbr.router import ScbrClient
from repro.scbr.workload import ScbrWorkload
from repro.sgx.attestation import AttestationService
from repro.sgx.costs import DEFAULT_COSTS
from repro.sgx.platform import SgxPlatform


def sub(sub_id, bound, subscriber="alice", attribute="x"):
    return Subscription(
        sub_id, [Constraint(attribute, Operator.LE, bound)], subscriber
    )


class TestEpcWatermarkPolicy:
    def test_llc_bound_wins_for_default_records(self):
        """512 B records touching 64 B of hot state fit 2^17 LLC lines:
        the LLC cliff (64 MiB of database) comes before the EPC cliff."""
        policy = EpcWatermarkPolicy(watermark=0.85)
        llc_records = DEFAULT_COSTS.llc_capacity // DEFAULT_COSTS.line_size
        assert policy.max_shard_bytes == int(0.85 * llc_records * 512)
        assert policy.max_shard_bytes < 0.85 * DEFAULT_COSTS.epc_usable

    def test_epc_only_mode(self):
        policy = EpcWatermarkPolicy(watermark=0.85, llc_aware=False)
        assert policy.max_shard_bytes == int(0.85 * DEFAULT_COSTS.epc_usable)

    def test_needs_split_triggers_before_the_mark(self):
        policy = EpcWatermarkPolicy()
        limit = policy.max_shard_bytes
        assert not policy.needs_split(limit - DEFAULT_RECORD_BYTES)
        assert policy.needs_split(limit)  # next record would cross
        assert policy.needs_split(0, incoming_bytes=limit + 1)

    def test_shards_for_is_a_ceiling(self):
        policy = EpcWatermarkPolicy()
        assert policy.shards_for(0) == 1
        assert policy.shards_for(policy.max_shard_bytes) == 1
        assert policy.shards_for(policy.max_shard_bytes + 1) == 2
        assert policy.shards_for(200 * (1 << 20)) >= 3

    def test_invalid_watermark_rejected(self):
        with pytest.raises(ConfigurationError):
            EpcWatermarkPolicy(watermark=0.0)
        with pytest.raises(ConfigurationError):
            EpcWatermarkPolicy(watermark=1.5)


class TestShardPlanner:
    def test_covering_shard_wins(self):
        assert ShardPlanner.choose([False, True], [0, 4096]) == 1

    def test_first_covering_shard_wins(self):
        assert ShardPlanner.choose([True, True], [4096, 0]) == 0

    def test_no_cover_falls_back_to_least_loaded(self):
        assert ShardPlanner.choose([False, False, False], [512, 0, 512]) == 1

    def test_ties_break_by_position(self):
        assert ShardPlanner.choose([False, False], [512, 512]) == 0

    def test_overloaded_covering_shard_skipped(self):
        slack = 2 * 512
        heavy = [10 * 512, 0]
        assert ShardPlanner.choose([True, False], heavy,
                                   balance_slack=slack) == 1
        light = [slack, 0]
        assert ShardPlanner.choose([True, False], light,
                                   balance_slack=slack) == 0

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardPlanner.choose([True], [0, 0])
        with pytest.raises(ConfigurationError):
            ShardPlanner.choose([], [])


def tiny_plane(max_records=8, **kwargs):
    """A plane whose shards overflow after ``max_records`` records."""
    policy = EpcWatermarkPolicy()
    policy.max_shard_bytes = max_records * 512
    kwargs.setdefault("enclave", False)
    return ShardedMatchingPlane(record_bytes=512, policy=policy, **kwargs)


class TestShardedMatchingPlane:
    def test_starts_with_one_shard(self):
        plane = ShardedMatchingPlane()
        assert plane.shard_count == 1
        assert len(plane) == 0

    def test_split_triggers_at_the_watermark(self):
        plane = tiny_plane(max_records=8)
        for position in range(8):
            plane.insert(sub("s%d" % position, position))
        assert plane.shard_count == 1
        plane.insert(sub("s8", 100))
        assert plane.shard_count == 2
        assert plane.splits == 1
        assert plane.migrated > 0
        plane.check_invariants()

    def test_no_shard_exceeds_the_watermark(self):
        # Containment-free workload: every subtree is one record, so
        # splits can always divide a shard below the watermark.
        plane = tiny_plane(max_records=8)
        workload = ScbrWorkload(seed=5, num_attributes=6,
                                containment_fraction=0.0)
        for subscription in workload.subscriptions(100):
            plane.insert(subscription)
        assert plane.shard_count > 1
        limit = plane.policy.max_shard_bytes
        assert all(size <= limit for size in plane.shard_sizes())
        plane.check_invariants()

    def test_single_chain_overshoots_rather_than_breaking(self):
        """A covering chain longer than the watermark stays whole:
        splits move complete subtrees only, so colocation (pruning) is
        preserved even past the limit rather than serialising the chain
        across shards."""
        plane = tiny_plane(max_records=4)
        for position in range(12):
            plane.insert(sub("chain-%d" % position, 100 - position))
        sizes = plane.shard_sizes()
        assert max(sizes) == 12 * 512  # the chain never broke
        plane.check_invariants()
        matched = plane.match(Publication({"x": 0}))
        assert len(matched) == 12

    def test_covering_chain_stays_colocated(self):
        plane = tiny_plane(max_records=32)
        plane.insert(sub("general", 100))
        home = plane._home["general"]
        for position in range(5):
            tighter = sub("tight-%d" % position, 10 + position)
            plane.insert(tighter)
            assert plane._home[tighter.subscription_id] is home

    def test_remove_then_unknown_rejected(self):
        plane = tiny_plane()
        plane.insert(sub("s1", 10))
        plane.remove("s1")
        assert len(plane) == 0
        with pytest.raises(ConfigurationError):
            plane.remove("s1")

    def test_match_latency_is_slowest_shard(self):
        plane = tiny_plane(max_records=4, enclave=True)
        workload = ScbrWorkload(seed=9, num_attributes=6)
        for subscription in workload.subscriptions(40):
            plane.insert(subscription)
        assert plane.shard_count > 1
        plane.match(workload.publications(1)[0])
        per_shard = [shard.clock.now for shard in plane.shards]
        # The plane's latency can never exceed any one shard's clock
        # advance since construction, and must be positive.
        assert 0 < plane.last_match_cycles <= max(per_shard)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(30, 120))
    def test_rebalancing_matches_single_index_oracle(self, seed, count):
        """Splits and migrations never change what a publication matches."""
        workload = ScbrWorkload(seed=seed, num_attributes=8,
                                containment_fraction=0.6)
        plane = tiny_plane(max_records=12)
        oracle = LinearIndex()
        subscriptions = workload.subscriptions(count)
        removed = 0
        for position, subscription in enumerate(subscriptions):
            plane.insert(subscription)
            oracle.insert(subscription)
            # Interleave removals so migration happens around holes.
            if position % 7 == 3 and position > removed:
                victim = subscriptions[removed].subscription_id
                plane.remove(victim)
                oracle.remove(victim)
                removed += 1
        plane.check_invariants()
        for publication in workload.publications(10):
            assert plane.match(publication) == oracle.match(publication)


@pytest.fixture()
def plane_setup():
    platform = SgxPlatform(seed=41, quoting_key_bits=512)
    attestation = AttestationService()
    attestation.register_platform(
        platform.platform_id, platform.quoting_enclave.public_key
    )
    router = ShardedScbrRouter(
        platform,
        lambda i: SgxPlatform(seed=100 + i, quoting_key_bits=512),
        attestation_service=attestation,
        shards=2,
    )
    attestation.trust_measurement(router.measurement)
    return platform, attestation, router


class TestShardedScbrRouter:
    def test_publish_reaches_matching_subscribers_once(self, plane_setup):
        _platform, attestation, router = plane_setup
        alice = ScbrClient("alice", router, attestation)
        bob = ScbrClient("bob", router, attestation)
        publisher = ScbrClient("publisher", router, attestation)
        alice.subscribe(sub("a1", 50, "alice"))
        alice.subscribe(sub("a2", 80, "alice"))
        bob.subscribe(sub("b1", 60, "bob"))
        routed = router.publish_routed(_publication(publisher, {"x": 40}))
        # One envelope per subscriber, even though alice matched twice.
        assert [subscriber for subscriber, _ in routed] == ["alice", "bob"]
        for subscriber, envelope in routed:
            client = alice if subscriber == "alice" else bob
            publication, matched = client.open_notification_detail(envelope)
            assert publication.attributes == {"x": 40}
            if subscriber == "alice":
                assert sorted(matched) == ["a1", "a2"]
            else:
                assert matched == ["b1"]

    def test_cross_shard_dedup(self, plane_setup):
        """A subscriber whose subscriptions live on different shards
        still receives exactly one envelope."""
        _platform, attestation, router = plane_setup
        alice = ScbrClient("alice", router, attestation)
        publisher = ScbrClient("publisher", router, attestation)
        # Incomparable filters land on different shards (least-loaded).
        alice.subscribe(sub("ax", 50, "alice", attribute="x"))
        alice.subscribe(sub("ay", 50, "alice", attribute="y"))
        homes = {router._home["ax"].shard_id, router._home["ay"].shard_id}
        assert len(homes) == 2
        routed = router.publish_routed(
            _publication(publisher, {"x": 10, "y": 10})
        )
        assert len(routed) == 1
        _pub, matched = alice.open_notification_detail(routed[0][1])
        assert sorted(matched) == ["ax", "ay"]

    def test_unsubscribe_requires_ownership(self, plane_setup):
        _platform, attestation, router = plane_setup
        alice = ScbrClient("alice", router, attestation)
        mallory = ScbrClient("mallory", router, attestation)
        publisher = ScbrClient("publisher", router, attestation)
        alice.subscribe(sub("a1", 50, "alice"))
        with pytest.raises(IntegrityError):
            mallory.unsubscribe("a1")
        alice.unsubscribe("a1")
        assert router.publish_routed(_publication(publisher, {"x": 10})) == []

    @pytest.mark.parametrize("blob", [None, "SB1 a str", 17])
    def test_shard_ecall_refuses_a_non_bytes_blob(self, plane_setup, blob):
        """What the untrusted driver relays need not even be bytes; the
        enclave answers with the error recovery paths already handle."""
        _platform, _attestation, router = plane_setup
        shard = router.shards[0].enclave
        with pytest.raises(IntegrityError, match="migration batch failed"):
            shard.ecall("load", blob)
        with pytest.raises(IntegrityError, match="plane message failed"):
            shard.ecall("insert", blob)

    def test_auto_split_migrates_and_keeps_matching(self):
        platform = SgxPlatform(seed=43, quoting_key_bits=512)
        attestation = AttestationService()
        attestation.register_platform(
            platform.platform_id, platform.quoting_enclave.public_key
        )
        policy = EpcWatermarkPolicy()
        policy.max_shard_bytes = 10 * 512
        router = ShardedScbrRouter(
            platform,
            lambda i: SgxPlatform(seed=200 + i, quoting_key_bits=512),
            attestation_service=attestation,
            shards=1,
            policy=policy,
        )
        attestation.trust_measurement(router.measurement)
        alice = ScbrClient("alice", router, attestation)
        publisher = ScbrClient("publisher", router, attestation)
        workload = ScbrWorkload(seed=13, num_attributes=6,
                                containment_fraction=0.5,
                                num_subscribers=1)
        oracle = LinearIndex()
        for subscription in workload.subscriptions(30):
            subscription = Subscription(
                subscription.subscription_id,
                list(subscription.constraints.values()),
                "alice",
            )
            alice.subscribe(subscription)
            oracle.insert(subscription)
        assert router.shard_count > 1
        assert router.splits >= 1
        assert router.migrated > 0
        stats = router.stats()
        assert stats["subscriptions"] == 30
        assert stats["database_bytes"] == 30 * 512
        # Runtime-spawned shards hold the same plane key: matching
        # still returns exactly the oracle's match set.
        for publication in workload.publications(5):
            expected = oracle.match(publication)
            routed = router.publish_routed(
                _publication(publisher, publication.attributes)
            )
            if not expected:
                assert routed == []
                continue
            _pub, matched = alice.open_notification_detail(routed[0][1])
            assert set(matched) == expected

    def test_forged_join_offer_rejected(self, plane_setup):
        """A quote over one DH value cannot enrol a different one: the
        host cannot splice its own key into the plane join."""
        platform, _attestation, router = plane_setup
        shard = router.shards[0]
        offer = shard.enclave.ecall("join_offer2")
        quote = shard.platform.quoting_enclave.quote(offer["report"])
        from repro.crypto.dh import DhKeyPair

        mallory = DhKeyPair.generate()
        with pytest.raises(AttestationError):
            router.coordinator.ecall(
                "enroll_batch", [(99, mallory.public_value, quote)]
            )

    def test_wrong_measurement_rejected(self, plane_setup):
        """The coordinator's own (correctly quoted) offer cannot join as
        a shard: the pinned shard measurement does not match."""
        platform, _attestation, router = plane_setup
        offer = router.coordinator.ecall("channel_offer", "probe")
        quote = platform.quoting_enclave.quote(offer["report"])
        with pytest.raises(AttestationError):
            router.coordinator.ecall(
                "enroll_batch", [(99, offer["dh_public"], quote)]
            )


def _publication(publisher, attributes):
    from repro.scbr.messages import EncryptedEnvelope, serialize_publication

    return EncryptedEnvelope.seal(
        publisher.key, publisher.client_id, "publish",
        serialize_publication(Publication(attributes)),
    )
