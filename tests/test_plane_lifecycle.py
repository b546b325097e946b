"""One shard life cycle (``repro.plane``), three clients.

The sharded SCBR plane, its node-bound variant and the streaming plane
all hand spawn / checkpoint / fail / recover to one
:class:`~repro.plane.ShardFleet`.  The conformance test drives each
client through the same cycle and holds it to the same contract; the
rest pins what only a shared substrate could get right -- several
planes on one topology, and one meaning of "a shard failed".
"""

import pytest

from repro.chaos.injector import FaultSchedule
from repro.cluster import NodeBoundScbrRouter, NodeTopology
from repro.scbr.filters import Constraint, Operator, Publication, Subscription
from repro.scbr.messages import EncryptedEnvelope, serialize_publication
from repro.scbr.router import ScbrClient
from repro.scbr.sharding import ShardedScbrRouter
from repro.sgx.attestation import AttestationService
from repro.sgx.platform import SgxPlatform
from repro.sim.events import Environment
from repro.smartgrid.meters import SmartMeterFleet
from repro.smartgrid.topology import GridTopology
from repro.streams import MeterStreamSource, SecureStreamPlane, StreamConfig


class _ScbrClientUnderTest:
    """Drives either SCBR router: subscriptions are the client state."""

    def __init__(self, node_bound, topology=None):
        platform = SgxPlatform(seed=61, quoting_key_bits=512)
        attestation = AttestationService()
        attestation.register_platform(
            platform.platform_id, platform.quoting_enclave.public_key
        )
        # A long interval keeps mutations in the log: recovery must
        # restore the snapshot *and* replay.
        common = dict(attestation_service=attestation, shards=2,
                      env=Environment(), snapshot_interval=1000)
        if node_bound:
            self.topology = topology or NodeTopology.build(3, seed=5)
            self.plane = NodeBoundScbrRouter(
                platform, self.topology, **common
            )
        else:
            self.topology = None
            self.plane = ShardedScbrRouter(
                platform,
                lambda i: SgxPlatform(seed=6100 + i, quoting_key_bits=512),
                **common
            )
        attestation.trust_measurement(self.plane.measurement)
        self.alice = ScbrClient("alice", self.plane, attestation)

    def mutate(self):
        for position in range(8):
            self.alice.subscribe(Subscription(
                "s%d" % position,
                [Constraint("x", Operator.LE, 10 * position)], "alice",
            ))
        self.alice.unsubscribe("s3")

    def state(self):
        routed = self.plane.publish_routed(EncryptedEnvelope.seal(
            self.alice.key, self.alice.client_id, "publish",
            serialize_publication(Publication({"x": 35})),
        ))
        matched = sorted(
            sub_id for _subscriber, envelope in routed
            for sub_id in self.alice.open_notification_detail(envelope)[1]
        )
        return matched, [
            (s["shard_id"], s["subscriptions"], s["database_bytes"])
            for s in self.plane.stats()["per_shard"]
        ]


class _StreamClientUnderTest:
    """Drives the stream plane: open panes, queues and committed
    firings are the client state."""

    def __init__(self, topology=None):
        self.topology = topology or NodeTopology.build(3, seed=5)
        self.plane = SecureStreamPlane(
            self.topology,
            StreamConfig(
                window={"kind": "tumbling", "size": 60.0, "lateness": 30.0},
                checkpoint_interval=3,
            ),
            shards=2, seed=9,
        )
        grid = GridTopology.build(2, 2, 3)
        self.source = MeterStreamSource(
            "head-0", SmartMeterFleet(grid, seed=11), grid.meters,
            self.plane.ingest_key_bytes, batch_records=12,
        )

    def mutate(self):
        self.source.produce(0.0, 240.0)
        for _round in range(4):
            self.plane.pump([self.source])

    def state(self):
        stats = self.plane.shard_stats()
        return sorted(self.plane.committed), {
            shard_id: (
                stat["range"], stat["open_panes"],
                stat["buffered_records"], stat["watermark"],
                stat["late_records"], stat["shed_records"],
            )
            for shard_id, stat in stats.items()
        }, self.plane.queue_depths()


CLIENTS = {
    "scbr": lambda: _ScbrClientUnderTest(node_bound=False),
    "scbr-node-bound": lambda: _ScbrClientUnderTest(node_bound=True),
    "streams": _StreamClientUnderTest,
}


def _assert_released(enclave, platform):
    memory = enclave.memory
    assert enclave.destroyed
    assert memory.resident_bytes == 0 and memory.released
    assert all(
        key[0] != memory.name for key in platform.epc.resident_page_keys()
    )


@pytest.mark.parametrize("kind", sorted(CLIENTS))
def test_lifecycle_conformance(kind):
    """spawn -> mutate -> fail -> recover leaves the client where it
    was, the retired enclave holding nothing, the ledgers in agreement."""
    client = CLIENTS[kind]()
    plane, fleet = client.plane, client.plane.fleet
    assert sorted(fleet.members) == [0, 1]
    client.mutate()
    before = client.state()
    victim = fleet.member(0)
    assert victim.log, "the test must exercise replay, not just restore"
    old_enclave, old_platform = victim.enclave, victim.platform

    assert plane.fail_shard(0) is True
    assert plane.fail_shard(0) is False, "already dead: not a failure"
    assert fleet.failures == 1
    _assert_released(old_enclave, old_platform)

    plane.recover_shard(0)
    assert fleet.member(0) is victim, "the member outlives its enclave"
    assert victim.enclave is not old_enclave
    assert not victim.enclave.destroyed
    assert (0, old_enclave) in fleet.retired
    _assert_released(old_enclave, old_platform)
    episode, = fleet.episodes
    assert episode["shard_id"] == 0 and episode["recovery_cycles"] > 0
    assert episode["replayed"] > 0

    assert client.state() == before
    assert plane.check_invariants()
    if client.topology is not None:
        assert victim.node.platform is victim.platform
        assert (plane.name, 0) in victim.node.shard_ids
        assert sum(
            len(node.shard_ids) for node in client.topology
        ) == len(fleet.members)


def test_fault_schedule_on_a_dark_stream_shard_counts_one_crash():
    """A scheduled crash landing on an already-dark shard is not a
    second live -> dead transition."""
    env = Environment()
    plane = SecureStreamPlane(
        NodeTopology.build(3, seed=5), shards=2, seed=9, env=env
    )
    schedule = FaultSchedule(env)
    schedule.crash_shard_at(1.0, plane, 0)
    schedule.crash_shard_at(2.0, plane, 0)
    env.run(until=3.0)
    assert len(schedule.fired) == 2
    assert plane.shard_crashes == 1


def test_two_planes_share_one_topology():
    """Shard ids are plane-local; the node ledger is keyed by
    ``(plane name, shard id)``, so shard 0 of one plane and shard 0 of
    another never collide -- through a crash of a node hosting both."""
    topology = NodeTopology.build(3, seed=5)
    scbr = _ScbrClientUnderTest(node_bound=True, topology=topology)
    streams = _StreamClientUnderTest(topology=topology)
    topology.check_invariants()
    scbr.mutate()
    streams.mutate()
    before = scbr.state(), streams.state()

    shared = next(
        node for node in topology
        if scbr.plane.fleet.on_node(node) and streams.plane.fleet.on_node(node)
    )
    scbr_dark = scbr.plane.fail_node(shared.name)
    stream_dark = streams.plane.fleet.on_node(shared)
    assert scbr_dark and stream_dark
    assert all(
        streams.plane.shards[shard_id].enclave.destroyed
        for shard_id in stream_dark
    )
    assert not shared.shard_ids

    assert scbr.plane.recover_node(shared.name) == scbr_dark
    for shard_id in stream_dark:
        streams.plane.recover_shard(shard_id)
    assert (scbr.state(), streams.state()) == before
    topology.check_invariants()
    assert scbr.plane.check_invariants()
    assert streams.plane.check_invariants()
    # One plane's rebinding never evicted the other's container.
    assert sum(len(node.shard_ids) for node in topology) == 4
