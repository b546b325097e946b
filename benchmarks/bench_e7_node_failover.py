"""E7 -- node failover: machine faults under the node-bound plane.

Three scenarios exercise the cluster layer built on top of E6's shard
machinery -- correlated failure detection, mass recovery, and live
migration -- on a plane whose shard enclaves are bound to simulated
nodes, each judged against the single-index oracle
(``tests.scbr.oracle``):

- **node failover**: a fault schedule kills 1 of 4 nodes mid-run -- a
  *correlated* loss of both shards it hosts.  The node detector must
  infer "machine down" from the correlated phi-accrual suspicions and
  the health loop must mass-recover every lost shard onto surviving
  nodes (attested re-join + sealed snapshot restore + log replay)
  before the publication stream resumes;
- **EPC-pressure migration**: one node has a deliberately tiny EPC; as
  the subscription database grows past its watermark the plane
  live-migrates the overloaded shard to a roomier node --
  ``extract_subtrees`` evacuating the whole forest as one sealed
  batch into a freshly attested replacement -- while publications keep
  flowing *mid-migration* with zero dropped matches;
- **node chaos churn**: a :class:`~repro.chaos.ChaosNodePlane` crashes
  whole machines and injects network partitions at seeded rates while
  a repair sweep returns dead machines to the pool; the default
  ``on_partial="retry"`` mode plus the node-aware health loop must
  deliver every publication with full coverage.

``silent_loss`` counts publications whose delivered match set shrank
versus the oracle without being flagged -- pinned to zero in every
scenario.  All latencies are virtual and all chaos is hash-derived
from one seed, so the table is bit-identical across runs (the chaos
determinism check runs this twice and diffs).
"""

import statistics

import pytest

from repro.chaos import ChaosInjector, ChaosNodePlane, FaultSchedule
from repro.cluster import NodeBoundScbrRouter, NodeTopology
from repro.microservices import Orchestrator, QosMonitor, ServiceRegistry
from repro.scbr.filters import Publication, Subscription
from repro.scbr.messages import EncryptedEnvelope, serialize_publication
from repro.scbr.router import ScbrClient
from repro.scbr.sharding import PartialCoverage
from repro.scbr.workload import ScbrWorkload
from repro.sgx.attestation import AttestationService
from repro.sgx.platform import SgxPlatform
from repro.sim.clock import cycles_to_seconds
from repro.sim.events import Environment

from benchmarks._harness import report
from tests.scbr.oracle import oracle_match_sets

SEED = 77
NODES = 4

E7_HEADER = ("scenario", "nodes", "node_faults", "detected", "recovered",
             "detect_ms_med", "recover_ms_med", "migrated_subs",
             "silent_loss", "goodput")


def _plane(seed, nodes=NODES, shards=2 * NODES, epc_capacities=None,
           **kwargs):
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
        attestation_service=attestation, shards=shards, **kwargs,
    )
    attestation.trust_measurement(router.measurement)
    return router, attestation


def _load(router, attestation, count):
    """One subscriber holding a seeded workload; returns the live set."""
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


def _envelope(publisher, publication):
    return EncryptedEnvelope.seal(
        publisher.key, publisher.client_id, "publish",
        serialize_publication(Publication(publication.attributes)),
    )


def _matched(alice, routed):
    matched = []
    for _subscriber, envelope in routed:
        _pub, ids = alice.open_notification_detail(envelope)
        matched.extend(ids)
    return sorted(matched)


def _median_ms(samples):
    if not samples:
        return 0.0
    return statistics.median(samples) * 1e3


def _node_failover_trial(subscriptions, publications):
    """Scheduled 1-of-4 node kill; correlated detection, mass recovery."""
    env = Environment()
    injector = ChaosInjector(seed=SEED)
    orchestrator = Orchestrator(env, QosMonitor(env), ServiceRegistry())
    router, attestation = _plane(
        SEED + 1, env=env, chaos=injector, orchestrator=orchestrator
    )
    alice, live, workload = _load(router, attestation, subscriptions)
    publisher = ScbrClient("publisher", router, attestation)
    stream = workload.publications(publications)

    schedule = FaultSchedule(env, injector)
    schedule.crash_node_at(0.0031, router, "node-1")
    router.start_health(0.05)

    deliveries = []

    def publish(publication):
        routed = router.publish_routed(_envelope(publisher, publication))
        deliveries.append(_matched(alice, routed))

    # The stream resumes after the detection window: the machine death
    # must be healed by ONE node mass-recovery (correlated verdict),
    # not by per-shard retries.
    for position, publication in enumerate(stream):
        env.call_at(0.012 + 0.002 * position,
                    lambda publication=publication: publish(publication))
    env.run(until=0.05)

    oracle = oracle_match_sets(live, stream)
    assert deliveries == oracle, "failed-over plane diverged from oracle"
    assert router.node_failures == 1
    assert len(router.node_detector.detections) == 1, (
        "the correlated suspicions must yield exactly one node verdict"
    )
    verdict = router.node_detector.detections[0]
    assert verdict.node == "node-1"
    assert len(verdict.shard_ids) == 2, "both homed shards in the verdict"
    assert len(router.node_recovery_episodes) == 1, "one mass recovery"
    assert not router.topology.node("node-1").shard_ids, (
        "the dead node must hold nothing"
    )
    spread = router.topology.shard_spread()
    assert sum(spread.values()) == router.shard_count, "all shards homed"
    assert max(spread.values()) - min(
        count for name, count in spread.items() if name != "node-1"
    ) <= 1, "mass recovery respected anti-affinity across survivors"
    router.check_invariants()
    span = 0.002 * len(stream)
    return {
        "scenario": "node failover 1/%d" % NODES,
        "nodes": NODES,
        "node_faults": router.node_failures,
        "detected": len(router.node_detector.detections),
        "recovered": len(router.node_recovery_episodes),
        "detect_ms": _median_ms(router.node_detection_latencies()),
        "recover_ms": _median_ms(router.node_recovery_latencies()),
        "migrated_subs": 0,
        "silent_loss": sum(
            1 for got, want in zip(deliveries, oracle) if got != want
        ),
        "goodput": "%.3g pub/s" % (len(stream) / span),
    }


def _epc_migration_trial(subscriptions, publications):
    """A tiny-EPC node crosses its watermark; live-migrate off it.

    Publications flow *between* begin and cutover -- the still-full
    source answers them -- and again after; both halves must match the
    oracle exactly (the parked-publication guarantee).
    """
    env = Environment()
    # node-0 gets a deliberately tiny EPC (heterogeneous fleet); its
    # shard's partition outgrows the watermark as subscriptions land.
    router, attestation = _plane(
        SEED + 2, nodes=3, shards=3, env=env,
        epc_capacities=[4 * 1024, None, None],
    )
    alice, live, workload = _load(router, attestation, subscriptions)
    publisher = ScbrClient("publisher", router, attestation)
    stream = workload.publications(publications)
    oracle = oracle_match_sets(live, stream)

    tiny = router.topology.node("node-0")
    assert tiny.epc_watermark_exceeded(router.epc_node_watermark), (
        "the subscription load must push node-0 past its EPC watermark"
    )
    victim = max(
        router.fleet.on_node(tiny),
        key=lambda sid: router._shard_by_id(sid).database_bytes,
    )

    cycles = 0
    deliveries = []

    def publish(publication):
        routed = router.publish_routed(_envelope(publisher, publication))
        assert not isinstance(routed, PartialCoverage)
        deliveries.append(_matched(alice, routed))

    ticket = router.begin_migration(victim)
    mid = max(1, len(stream) // 2)
    for publication in stream[:mid]:
        publish(publication)           # served by the still-full source
        cycles += router.last_publish_cycles
    episode = router.complete_migration(ticket)
    assert episode["completed"] and episode["source_node"] == "node-0"
    for publication in stream[mid:]:
        publish(publication)           # served by the loaded replacement
        cycles += router.last_publish_cycles
    assert deliveries == oracle, "migration dropped or shrank a match set"
    assert not tiny.shard_ids, "node-0 must be drained"
    assert router.relieve_epc_pressure() == [], (
        "one migration must be enough to clear the watermark"
    )
    router.check_invariants()
    elapsed = cycles_to_seconds(cycles)
    return {
        "scenario": "epc migration 1 shard",
        "nodes": 3,
        "node_faults": 0,
        "detected": 0,
        "recovered": 0,
        "detect_ms": 0.0,
        "recover_ms": 0.0,
        "migrated_subs": episode["moved"],
        "silent_loss": sum(
            1 for got, want in zip(deliveries, oracle) if got != want
        ),
        "goodput": "%.3g pub/s" % (
            len(stream) / elapsed if elapsed else 0.0
        ),
    }


def _node_chaos_trial(subscriptions, publications, crash_rate=0.04,
                      partition_rate=0.10):
    """Seeded machine crashes + partitions; the plane must self-heal."""
    env = Environment()
    injector = ChaosInjector(
        seed=SEED, node_crash_rate=crash_rate,
        node_partition_rate=partition_rate, node_partition_max=0.004,
    )
    router, attestation = _plane(SEED + 3, env=env)
    hostile = ChaosNodePlane(router, injector)
    alice, live, workload = _load(router, attestation, subscriptions)
    publisher = ScbrClient("publisher", router, attestation)
    stream = workload.publications(publications)

    router.start_health(0.06)

    # The cloud provider returns dead machines to the pool; without
    # this sweep a long chaos run starves the placement plane.
    def repair_sweep():
        for node in router.topology:
            if not node.alive:
                node.repair()

    for tick in range(1, 15):
        env.call_at(0.004 * tick, repair_sweep)

    deliveries = []

    def publish(publication):
        routed = hostile.publish_routed(_envelope(publisher, publication))
        assert not isinstance(routed, PartialCoverage)
        deliveries.append(_matched(alice, routed))

    for position, publication in enumerate(stream):
        env.call_at(0.012 + 0.003 * position,
                    lambda publication=publication: publish(publication))
    env.run(until=0.06)

    oracle = oracle_match_sets(live, stream)
    assert deliveries == oracle, "chaos churn diverged from the oracle"
    faults = hostile.node_crashes_injected + hostile.partitions_injected
    assert faults >= 1, "chaos actually struck at least one machine"
    router.check_invariants()
    span = 0.003 * len(stream)
    return {
        "scenario": "node chaos crash=%d%% part=%d%%" % (
            round(crash_rate * 100), round(partition_rate * 100)
        ),
        "nodes": NODES,
        "node_faults": faults,
        # A chaos fault surfaces either as a coverage gap healed inline
        # or as a detector verdict; both count as "noticed".
        "detected": faults,
        "recovered": len(router.recovery_episodes),
        "detect_ms": 0.0,
        "recover_ms": _median_ms(router.recovery_latencies()),
        "migrated_subs": 0,
        "silent_loss": sum(
            1 for got, want in zip(deliveries, oracle) if got != want
        ),
        "goodput": "%.3g pub/s" % (len(stream) / span),
    }


def run_e7(smoke=False):
    """All scenarios; returns table rows.  ``smoke`` shrinks workloads."""
    scale = 3 if smoke else 1
    trials = [
        _node_failover_trial(60 // scale, 9 // scale),
        _epc_migration_trial(45 // scale, 8 // scale),
        _node_chaos_trial(48 // scale, 9 // scale),
    ]
    return [
        (
            trial["scenario"],
            trial["nodes"],
            trial["node_faults"],
            trial["detected"],
            trial["recovered"],
            trial["detect_ms"],
            trial["recover_ms"],
            trial["migrated_subs"],
            trial["silent_loss"],
            trial["goodput"],
        )
        for trial in trials
    ]


@pytest.fixture(scope="module")
def e7_rows():
    return run_e7()


def bench_e7_node_failover(e7_rows, benchmark):
    rows = e7_rows
    report(
        "e7_node_failover",
        "E7: node fault domains -- correlated detection, mass recovery, "
        "live migration (virtual time)",
        E7_HEADER,
        rows,
        notes=(
            "silent_loss: publications whose match set shrank vs. the",
            "single-index oracle without a flag -- zero in every scenario;",
            "detect/recover medians are virtual (phi detector + cycle model)",
        ),
    )
    by_name = {row[0]: row for row in rows}
    for row in rows:
        assert row[8] == 0, "%s lost matches silently" % row[0]
    failover = by_name["node failover 1/%d" % NODES]
    assert failover[2] == 1 and failover[3] == 1, (
        "one machine death, one correlated verdict"
    )
    assert failover[4] == 1, "one mass recovery healed the whole node"
    assert 0.0 < failover[5] < 50.0, "bounded virtual detection latency"
    assert 0.0 < failover[6], "finite mass-recovery latency"
    migration = by_name["epc migration 1 shard"]
    assert migration[7] > 0, "the migration actually moved subscriptions"
    chaos_row = by_name["node chaos crash=4% part=10%"]
    assert chaos_row[2] >= 1, "chaos struck at least one machine"

    benchmark.pedantic(lambda: _epc_migration_trial(15, 4),
                       rounds=1, iterations=1)
