"""E6 -- shard failover: the sharded matching plane under seeded chaos.

Three scenarios exercise the plane's failure-detection, sealed-snapshot
recovery, and coverage-tracked publish guarantees on a 4-shard plane,
each judged against the single-index oracle (``tests.scbr.oracle``):

- **heartbeat failover**: a fault schedule kills 2 of 4 shard enclaves
  mid-run; the phi-accrual monitor must detect both silences and the
  health loop must respawn each replacement from its plane-sealed
  snapshot + mutation log before the publication stream resumes;
- **chaos stream**: a :class:`~repro.chaos.ChaosPlane` crashes
  live shards between publishes at a seeded rate; the default
  ``on_partial="retry"`` mode must heal inline so every publication
  is delivered with full coverage;
- **report outage**: with ``on_partial="report"``, publications during
  a 2-shard outage must come back as :class:`PartialCoverage` naming
  exactly the dead partitions -- degraded coverage is *flagged*, and
  after healing the same stream must match the oracle in full.

``silent_loss`` counts publications whose delivered match set shrank
versus the oracle *without* being flagged -- the number the plane's
no-silent-loss guarantee pins to zero.  Latencies are virtual (cycle
model / event clock); all chaos is hash-derived from one seed, so the
table is bit-identical across runs.
"""

import statistics

import pytest

from repro.chaos import ChaosInjector, ChaosPlane, FaultSchedule
from repro.microservices import Orchestrator, QosMonitor, ServiceRegistry
from repro.scbr.filters import Publication, Subscription
from repro.scbr.messages import EncryptedEnvelope, serialize_publication
from repro.scbr.router import ScbrClient
from repro.scbr.sharding import PartialCoverage, ShardedScbrRouter
from repro.scbr.workload import ScbrWorkload
from repro.sgx.attestation import AttestationService
from repro.sgx.platform import SgxPlatform
from repro.sim.clock import cycles_to_seconds
from repro.sim.events import Environment

from benchmarks._harness import report
from tests.scbr.oracle import oracle_match_sets

SEED = 66
SHARDS = 4

E6_HEADER = ("scenario", "crashes", "detected", "recovered",
             "detect_ms_med", "recover_ms_med", "partial_flagged",
             "silent_loss", "goodput")


def _plane(seed, shards=SHARDS, **kwargs):
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


def _heartbeat_trial(subscriptions, publications):
    """Scheduled 2-shard kill; health loop detects and respawns."""
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
    schedule.crash_shard_at(0.0031, router, 0)
    schedule.crash_shard_at(0.0033, router, 2)
    router.start_health(0.05)

    deliveries = []

    def publish(publication):
        routed = router.publish_routed(_envelope(publisher, publication))
        deliveries.append(_matched(alice, routed))

    # The stream resumes after the detection window; a crash between
    # publishes must be healed by the health loop, not the retry path.
    for position, publication in enumerate(stream):
        env.call_at(0.012 + 0.002 * position,
                    lambda publication=publication: publish(publication))
    env.run(until=0.05)

    oracle = oracle_match_sets(live, stream)
    assert deliveries == oracle, "healed plane diverged from the oracle"
    assert orchestrator.recovery_latencies() == [
        episode["recovery_seconds"] for episode in router.recovery_episodes
    ]
    router.check_invariants()
    span = 0.002 * len(stream)
    return {
        "scenario": "heartbeat failover 2/%d" % SHARDS,
        "crashes": router.shard_failures,
        "detected": len(router.monitor.detections),
        "recovered": len(router.recovery_episodes),
        "detect_ms": _median_ms(router.monitor.detection_latencies()),
        "recover_ms": _median_ms(router.recovery_latencies()),
        "flagged": router.partial_publishes,
        "silent_loss": sum(
            1 for got, want in zip(deliveries, oracle) if got != want
        ),
        "goodput": "%.3g pub/s" % (len(stream) / span),
    }


def _chaos_stream_trial(subscriptions, publications, crash_rate=0.35):
    """Seeded crashes between publishes; retry mode heals inline."""
    injector = ChaosInjector(seed=SEED, shard_crash_rate=crash_rate)
    router, attestation = _plane(SEED + 2)
    hostile = ChaosPlane(router, injector)
    alice, live, workload = _load(router, attestation, subscriptions)
    publisher = ScbrClient("publisher", router, attestation)
    stream = workload.publications(publications)

    deliveries = []
    cycles = 0
    for publication in stream:
        routed = hostile.publish_routed(_envelope(publisher, publication))
        assert not isinstance(routed, PartialCoverage)
        cycles += router.last_publish_cycles
        deliveries.append(_matched(alice, routed))

    oracle = oracle_match_sets(live, stream)
    assert deliveries == oracle, "retry mode diverged from the oracle"
    assert len(router.recovery_episodes) >= hostile.crashes_injected
    router.check_invariants()
    elapsed = cycles_to_seconds(cycles)
    return {
        "scenario": "chaos stream crash=%d%%" % round(crash_rate * 100),
        "crashes": hostile.crashes_injected,
        "detected": hostile.crashes_injected,  # coverage gap = detection
        "recovered": len(router.recovery_episodes),
        "detect_ms": 0.0,
        "recover_ms": _median_ms(router.recovery_latencies()),
        "flagged": router.partial_publishes,
        "silent_loss": sum(
            1 for got, want in zip(deliveries, oracle) if got != want
        ),
        "goodput": "%.3g pub/s" % (
            len(stream) / elapsed if elapsed else 0.0
        ),
    }


def _report_outage_trial(subscriptions, publications):
    """2-shard outage with on_partial="report": degraded = flagged."""
    router, attestation = _plane(SEED + 3, on_partial="report")
    alice, live, workload = _load(router, attestation, subscriptions)
    publisher = ScbrClient("publisher", router, attestation)
    stream = workload.publications(publications)
    oracle = oracle_match_sets(live, stream)

    down = (router.shards[1].shard_id, router.shards[3].shard_id)
    for shard_id in down:
        router.fail_shard(shard_id)

    flagged = 0
    silent_loss = 0
    for publication, want in zip(stream, oracle):
        result = router.publish_routed(_envelope(publisher, publication))
        if isinstance(result, PartialCoverage):
            flagged += 1
            assert result.missing == down
            continue
        if _matched(alice, result) != want:
            silent_loss += 1

    for shard_id in down:
        router.recover_shard(shard_id)
    healed = [
        _matched(alice,
                 router.publish_routed(_envelope(publisher, publication)))
        for publication in stream
    ]
    assert healed == oracle, "healed plane diverged from the oracle"
    router.check_invariants()
    return {
        "scenario": "report outage 2/%d" % SHARDS,
        "crashes": len(down),
        "detected": flagged,
        "recovered": len(router.recovery_episodes),
        "detect_ms": 0.0,
        "recover_ms": _median_ms(router.recovery_latencies()),
        "flagged": flagged,
        "silent_loss": silent_loss,
        "goodput": "n/a (outage)",
    }


def run_e6(smoke=False):
    """All scenarios; returns table rows.  ``smoke`` shrinks workloads."""
    scale = 3 if smoke else 1
    trials = [
        _heartbeat_trial(60 // scale, 9 // scale),
        _chaos_stream_trial(60 // scale, 12 // scale),
        _report_outage_trial(42 // scale, 9 // scale),
    ]
    return [
        (
            trial["scenario"],
            trial["crashes"],
            trial["detected"],
            trial["recovered"],
            trial["detect_ms"],
            trial["recover_ms"],
            trial["flagged"],
            trial["silent_loss"],
            trial["goodput"],
        )
        for trial in trials
    ]


@pytest.fixture(scope="module")
def e6_rows():
    return run_e6()


def bench_e6_shard_failover(e6_rows, benchmark):
    rows = e6_rows
    report(
        "e6_shard_failover",
        "E6: %d-shard plane failover under seeded chaos (virtual time)"
        % SHARDS,
        E6_HEADER,
        rows,
        notes=(
            "silent_loss: publications whose match set shrank vs. the",
            "single-index oracle without a PartialCoverage flag -- the",
            "no-silent-loss guarantee pins this to zero in every mode",
        ),
    )
    by_name = {row[0]: row for row in rows}
    for row in rows:
        assert row[7] == 0, "%s lost matches silently" % row[0]
    heartbeat = by_name["heartbeat failover 2/%d" % SHARDS]
    assert heartbeat[1] >= 2 and heartbeat[2] >= 2, "both kills detected"
    assert heartbeat[3] >= 2, "both shards respawned"
    assert 0.0 < heartbeat[4], "finite detection latency"
    assert 0.0 < heartbeat[5], "finite recovery latency"
    chaos = by_name["chaos stream crash=35%"]
    assert chaos[1] >= 2, "chaos actually killed >=2 shards mid-stream"
    outage = by_name["report outage 2/%d" % SHARDS]
    assert outage[6] > 0, "outage publications were flagged"

    benchmark.pedantic(lambda: _chaos_stream_trial(20, 4),
                       rounds=1, iterations=1)
