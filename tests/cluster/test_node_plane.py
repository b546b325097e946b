"""Tests for the node-bound sharded SCBR plane.

Placement, machine failure + mass recovery, live migration, and
network partitions -- each judged against the single-index oracle
where publications flow.
"""

import pytest

from repro.cluster import NodeBoundScbrRouter, NodeTopology
from repro.errors import (
    ConfigurationError,
    EnclaveLostError,
    SchedulingError,
)
from repro.scbr.filters import Publication, Subscription
from repro.scbr.messages import EncryptedEnvelope, serialize_publication
from repro.scbr.router import ScbrClient
from repro.plane import least_loaded
from repro.scbr.workload import ScbrWorkload
from repro.sgx.attestation import AttestationService
from repro.sgx.platform import SgxPlatform
from repro.sim.events import Environment
from tests.scbr.oracle import oracle_match_sets

SEED = 21


def plane(seed=SEED, nodes=3, shards=3, epc_capacities=None, **kwargs):
    env = kwargs.pop("env", None) or Environment()
    topology = NodeTopology.build(
        nodes, seed=seed, epc_capacities=epc_capacities
    )
    platform = SgxPlatform(seed=seed, quoting_key_bits=512)
    attestation = AttestationService()
    attestation.register_platform(
        platform.platform_id, platform.quoting_enclave.public_key
    )
    router = NodeBoundScbrRouter(
        platform, topology,
        attestation_service=attestation, shards=shards, env=env, **kwargs,
    )
    attestation.trust_measurement(router.measurement)
    return router, attestation


def load(router, attestation, count):
    alice = ScbrClient("alice", router, attestation)
    workload = ScbrWorkload(seed=SEED, num_attributes=6,
                            containment_fraction=0.5, num_subscribers=1)
    live = []
    for subscription in workload.subscriptions(count):
        subscription = Subscription(
            subscription.subscription_id,
            list(subscription.constraints.values()),
            "alice",
        )
        alice.subscribe(subscription)
        live.append(subscription)
    return alice, live, workload


def deliver(router, attestation, alice, publisher, stream):
    """Publish the stream; returns the sorted match ids per publication."""
    deliveries = []
    for publication in stream:
        envelope = EncryptedEnvelope.seal(
            publisher.key, publisher.client_id, "publish",
            serialize_publication(Publication(publication.attributes)),
        )
        matched = []
        for _subscriber, notification in router.publish_routed(envelope):
            _pub, ids = alice.open_notification_detail(notification)
            matched.extend(ids)
        deliveries.append(sorted(matched))
    return deliveries


class TestChooseNode:
    """The pure placement function: anti-affinity, then EPC."""

    def test_fewest_shards_wins(self):
        assert least_loaded([2, 0, 1], [0.9, 0.9, 0.0]) == 1

    def test_ties_break_toward_low_epc_then_position(self):
        assert least_loaded([1, 1, 1], [0.5, 0.1, 0.1]) == 1
        assert least_loaded([1, 1], [0.3, 0.3]) == 0

    def test_over_watermark_nodes_are_demoted(self):
        choice = least_loaded(
            [0, 1], [0.99, 0.10], over_watermark=[True, False]
        )
        assert choice == 1, "emptier but over-watermark node must lose"

    def test_full_fleet_still_places(self):
        choice = least_loaded(
            [2, 1], [0.9, 0.95], over_watermark=[True, True]
        )
        assert choice == 1, "all-over-watermark falls back to anti-affinity"

    @pytest.mark.parametrize("counts,loads,flags", [
        ([], [], None),
        ([1, 2], [0.1], None),
        ([1, 2], [0.1, 0.2], [True]),
    ])
    def test_misaligned_inputs_rejected(self, counts, loads, flags):
        with pytest.raises(ConfigurationError):
            least_loaded(counts, loads, over_watermark=flags)


class TestConstruction:
    def test_requires_a_topology(self):
        platform = SgxPlatform(seed=1, quoting_key_bits=512)
        with pytest.raises(ConfigurationError):
            NodeBoundScbrRouter(platform, topology="not-a-topology")

    def test_requires_an_sgx_node(self):
        platform = SgxPlatform(seed=1, quoting_key_bits=512)
        topology = NodeTopology.build(2, seed=1, sgx_flags=[False, False])
        with pytest.raises(SchedulingError):
            NodeBoundScbrRouter(platform, topology)

    def test_rejects_bad_watermark(self):
        platform = SgxPlatform(seed=1, quoting_key_bits=512)
        topology = NodeTopology.build(1, seed=1)
        with pytest.raises(ConfigurationError):
            NodeBoundScbrRouter(platform, topology, epc_node_watermark=0.0)

    def test_initial_placement_is_anti_affine(self):
        router, _ = plane(nodes=4, shards=8)
        spread = router.topology.shard_spread()
        assert set(spread.values()) == {2}, (
            "8 shards over 4 nodes must land 2 per node"
        )
        assert sum(
            len(router.node_detector.shards_on(name)) for name in spread
        ) == 8
        router.check_invariants()
        stats = router.stats()["nodes"]
        assert stats["count"] == 4 and stats["sgx"] == 4
        assert stats["node_failures"] == 0 and stats["migrations"] == 0


class TestNodeFailure:
    def test_fail_then_mass_recover_onto_survivors(self):
        router, attestation = plane(nodes=4, shards=8)
        alice, live, workload = load(router, attestation, 16)
        publisher = ScbrClient("publisher", router, attestation)
        stream = workload.publications(3)

        dark = router.fail_node("node-1")
        assert len(dark) == 2, "the node hosted two partitions"
        assert router.node_failures == 1
        assert not router.topology.node("node-1").alive

        recovered = router.recover_node("node-1")
        assert recovered == dark
        assert not router.topology.node("node-1").shard_ids
        spread = router.topology.shard_spread()
        assert spread["node-1"] == 0
        survivors = [
            count for name, count in spread.items() if name != "node-1"
        ]
        assert sum(survivors) == 8
        assert max(survivors) - min(survivors) <= 1, (
            "mass recovery must respect anti-affinity"
        )
        (episode,) = router.node_recovery_episodes
        assert episode["node"] == "node-1"
        assert episode["shard_ids"] == dark
        assert episode["recovery_seconds"] > 0.0

        deliveries = deliver(router, attestation, alice, publisher, stream)
        assert deliveries == oracle_match_sets(live, stream)
        router.check_invariants()

    def test_repaired_node_attracts_placements_again(self):
        router, _ = plane(nodes=2, shards=2)
        router.fail_node("node-0")
        router.recover_node("node-0")
        assert router.topology.shard_spread() == {"node-0": 0, "node-1": 2}
        router.topology.node("node-0").repair()
        replacement = router.recover_shard(0)
        assert router.node_of(replacement.shard_id).name == "node-0", (
            "the empty repaired node is the anti-affinity winner"
        )
        router.check_invariants()


class TestLiveMigration:
    def tiny_epc_plane(self):
        # node-0's EPC is deliberately tiny; 15 subscriptions over 3
        # shards push its resident partition past the 0.85 watermark.
        router, attestation = plane(
            nodes=3, shards=3, epc_capacities=[4 * 1024, None, None]
        )
        alice, live, workload = load(router, attestation, 15)
        return router, attestation, alice, live, workload

    def test_mid_flight_publications_survive_the_cutover(self):
        router, attestation, alice, live, workload = self.tiny_epc_plane()
        publisher = ScbrClient("publisher", router, attestation)
        stream = workload.publications(4)
        tiny = router.topology.node("node-0")
        assert tiny.epc_watermark_exceeded(router.epc_node_watermark)
        victim = max(
            router.fleet.on_node(tiny),
            key=lambda sid: router._shard_by_id(sid).database_bytes,
        )

        ticket = router.begin_migration(victim)
        assert ticket.source_node is tiny
        assert ticket.dest_node is not tiny
        first = deliver(router, attestation, alice, publisher, stream[:2])
        episode = router.complete_migration(ticket)
        assert episode["completed"] and episode["moved"] > 0
        assert episode["source_node"] == "node-0"
        second = deliver(router, attestation, alice, publisher, stream[2:])

        assert first + second == oracle_match_sets(live, stream)
        assert not tiny.shard_ids, "node-0 must be drained"
        assert router.migrations_completed == 1
        assert router.node_of(victim) is ticket.dest_node
        router.check_invariants()

    def test_relieve_epc_pressure_drains_the_hot_node(self):
        router, attestation, alice, live, workload = self.tiny_epc_plane()
        episodes = router.relieve_epc_pressure()
        assert len(episodes) == 1 and episodes[0]["completed"]
        assert episodes[0]["source_node"] == "node-0"
        assert router.relieve_epc_pressure() == [], (
            "one migration must clear the watermark"
        )
        stream = workload.publications(3)
        publisher = ScbrClient("publisher", router, attestation)
        deliveries = deliver(router, attestation, alice, publisher, stream)
        assert deliveries == oracle_match_sets(live, stream)
        router.check_invariants()

    def test_source_death_mid_migration_falls_back_to_recovery(self):
        router, attestation = plane(nodes=3, shards=3)
        alice, live, workload = load(router, attestation, 12)
        publisher = ScbrClient("publisher", router, attestation)
        stream = workload.publications(3)

        ticket = router.begin_migration(0)
        source_name = ticket.source_node.name
        router.fail_node(source_name)
        episode = router.complete_migration(ticket)
        assert episode == {
            "shard_id": 0, "completed": False,
            "fallback": "snapshot-recovery",
        }
        assert router.migrations_completed == 0
        home = router.node_of(0)
        assert home.alive and home.name != source_name
        deliveries = deliver(router, attestation, alice, publisher, stream)
        assert deliveries == oracle_match_sets(live, stream)
        router.check_invariants()

    def test_dark_shard_cannot_begin_migration(self):
        router, _ = plane(nodes=3, shards=3)
        source = router.node_of(0).name
        router.fail_node(source)
        with pytest.raises(EnclaveLostError):
            router.begin_migration(0)

    def test_pinned_destination_must_differ_and_be_reachable(self):
        router, _ = plane(nodes=3, shards=3)
        source = router.node_of(0).name
        with pytest.raises(SchedulingError):
            router.begin_migration(0, node_name=source)
        others = [n.name for n in router.topology if n.name != source]
        router.topology.node(others[0]).crash()
        with pytest.raises(SchedulingError):
            router.begin_migration(0, node_name=others[0])


class TestNetworkPartition:
    def test_partitioned_shard_is_fenced_and_respawned(self):
        router, attestation = plane(nodes=3, shards=3)
        alice, live, workload = load(router, attestation, 12)
        publisher = ScbrClient("publisher", router, attestation)
        stream = workload.publications(3)

        router.partition_node("node-1", duration=0.5)
        assert router.node_partitions == 1
        # on_partial="retry" (the default) heals inline: the coverage
        # gap from the unreachable shard triggers a conservative
        # respawn on a reachable node, then the publish retries.
        deliveries = deliver(router, attestation, alice, publisher, stream)
        assert deliveries == oracle_match_sets(live, stream)
        assert not router.topology.node("node-1").shard_ids, (
            "the partitioned node must be fenced off the plane"
        )
        router.check_invariants()

    def test_partition_requires_an_environment(self):
        topology = NodeTopology.build(1, seed=1)
        platform = SgxPlatform(seed=1, quoting_key_bits=512)
        attestation = AttestationService()
        attestation.register_platform(
            platform.platform_id, platform.quoting_enclave.public_key
        )
        router = NodeBoundScbrRouter(
            platform, topology, attestation_service=attestation, shards=1,
        )
        attestation.trust_measurement(router.measurement)
        with pytest.raises(ConfigurationError):
            router.partition_node("node-0", duration=0.1)


class TestHealthLoop:
    def test_machine_death_heals_as_one_mass_recovery(self):
        env = Environment()
        router, attestation = plane(nodes=4, shards=8, env=env)
        alice, live, workload = load(router, attestation, 16)
        publisher = ScbrClient("publisher", router, attestation)
        stream = workload.publications(2)

        router.start_health(0.03)
        env.call_at(0.003, lambda: router.fail_node("node-2"))
        deliveries = []

        def publish():
            deliveries.extend(
                deliver(router, attestation, alice, publisher, stream)
            )

        env.call_at(0.02, publish)
        env.run(until=0.03)

        assert router.node_failures == 1
        assert len(router.node_detector.detections) == 1
        assert router.node_detector.detections[0].node == "node-2"
        assert len(router.node_recovery_episodes) == 1, (
            "the correlated verdict must heal as ONE mass recovery"
        )
        assert router.node_detection_latencies()[0] > 0.0
        assert deliveries == oracle_match_sets(live, stream)
        router.check_invariants()
