"""E5 -- chaos recovery: fault injection against the self-healing stack.

Every scenario runs a workload with the chaos layer injecting faults at
a fixed seed and reports (a) how many faults were injected, (b) how
many the stack recovered from, (c) the detection-to-recovery latency in
virtual time, and (d) the goodput the workload still achieved -- plus a
correctness verdict against the fault-free reference:

- **map/reduce**: mapper/reducer crashes at >= 10%; crashed tasks are
  re-executed on respawned workers with exponential backoff, and the
  output must equal :func:`plain_mapreduce`.
- **SCBR broker**: the active router enclave is destroyed mid-stream
  (plus live notification drops); the standby restores the sealed
  checkpoint, clients re-attest, and after ``sync()`` every subscriber
  must hold each publication exactly once.
- **event bus**: sealed events are dropped/duplicated/delayed; the
  reliable subscriber NACKs gaps against the retained window and must
  deliver everything exactly once, in order.
- **bulk transfer**: frames are corrupted in flight; selective
  retransmission must reassemble the exact payload.

All randomness is hash-derived from one seed, so the table (and the
injection log) is bit-identical across runs -- the determinism the
tier-1 chaos tests assert.
"""

import statistics

import pytest

from repro.chaos import ChaosBus, ChaosInjector, ChaosNetwork, FaultSchedule
from repro.crypto.aead import AeadKey
from repro.crypto.primitives import DeterministicRandomSource
from repro.bigdata.mapreduce import (
    MapReduceCheckpoint,
    MapReduceJob,
    SecureMapReduce,
    plain_mapreduce,
)
from repro.bigdata.transfer import (
    BulkTransfer,
    ReliableBulkTransfer,
    SimulatedNetwork,
)
from repro.microservices.eventbus import (
    ReliableEventBus,
    ReliableSubscriber,
    SealedEvent,
)
from repro.microservices.orchestrator import Orchestrator
from repro.microservices.qos import QosMonitor
from repro.microservices.registry import ServiceRegistry
from repro.retry import RetryPolicy
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

from benchmarks._harness import report

SEED = 421


def _tokenize(record):
    return [(word, 1) for word in record.split()]


def _count(_key, values):
    return sum(values)


_WORDS = ("attest", "seal", "shield", "enclave", "broker", "quote")


def _corpus(records):
    return [
        "%s %s" % (_WORDS[i % len(_WORDS)], _WORDS[(i * 5 + 2) % len(_WORDS)])
        for i in range(records)
    ]


def _median_ms(samples):
    if not samples:
        return 0.0
    return statistics.median(samples) * 1e3


def _mapreduce_trial(crash_rate, records=120):
    platform = SgxPlatform(seed=SEED, quoting_key_bits=512)
    chaos = ChaosInjector(
        seed=SEED,
        mapper_crash_rate=crash_rate,
        reducer_crash_rate=crash_rate / 2.0,
    )
    job = MapReduceJob(
        map_fn=_tokenize, reduce_fn=_count, mappers=6, reducers=3
    )
    # Seed the job key too: the partition salt derives from it, so a
    # random key would shuffle partition contents (and sealed blob
    # sizes) between same-seed runs -- the telemetry determinism gate
    # compares byte-level metric snapshots across passes.
    engine = SecureMapReduce(
        platform, job, chaos=chaos,
        retry_policy=RetryPolicy(max_attempts=8, base_delay=0.005),
        job_key=AeadKey.generate(DeterministicRandomSource(SEED)),
    )
    corpus = _corpus(records)
    result = engine.run(corpus, checkpoint=MapReduceCheckpoint())
    expected = {
        repr(key): value
        for key, value in plain_mapreduce(_tokenize, _count, corpus).items()
    }
    elapsed = platform.clock.now_seconds + engine.backoff.seconds
    return {
        "scenario": "mapreduce crash=%d%%" % round(crash_rate * 100),
        "faults": engine.crashes_detected,
        "recoveries": len(engine.recoveries),
        "recovery_ms": _median_ms(
            [episode["backoff_seconds"] for episode in engine.recoveries]
        ),
        "goodput": "%.3g rec/s" % (records / elapsed if elapsed else 0.0),
        "correct": result == expected,
    }


def _broker_trial(drop_rate, publications=30, fail_at=0.0105):
    env = Environment()
    platform = SgxPlatform(seed=SEED, quoting_key_bits=512)
    attestation = AttestationService()
    attestation.register_platform(
        platform.platform_id, platform.quoting_enclave.public_key
    )
    chaos = ChaosInjector(seed=SEED, notification_drop_rate=drop_rate)
    orchestrator = Orchestrator(
        env, QosMonitor(env), ServiceRegistry()
    )
    broker = ReplicatedBroker(
        platform, env=env, chaos=chaos, orchestrator=orchestrator
    )
    publisher = FailoverClient("alice", broker, attestation)
    subscriber = FailoverClient("bob", broker, attestation)
    subscriber.subscribe(
        Subscription("s-all", [Constraint("t", Operator.GE, 0)], "bob")
    )
    FaultSchedule(env, injector=chaos).fail_at(fail_at, broker)

    for index in range(publications):
        def publish(index=index):
            publisher.publish(
                Publication(attributes={"t": index}, payload=b"p%d" % index)
            )
        env.call_at(0.002 * (index + 1), publish)
    env.run()
    subscriber.sync()
    received = sorted(
        publication.attributes["_pub_seq"] for publication in subscriber.inbox
    )
    span = 0.002 * publications
    return {
        "scenario": "scbr failover drop=%d%%" % round(drop_rate * 100),
        "faults": broker.failovers + broker.notifications_dropped,
        "recoveries": broker.failovers + broker.notifications_replayed,
        "recovery_ms": _median_ms(orchestrator.detection_latencies()),
        "goodput": "%.3g pub/s" % (publications / span),
        "correct": received == list(range(publications))
        and subscriber.reattachments == broker.failovers,
    }


def _bus_trial(drop_rate, events=60):
    env = Environment()
    bus = ReliableEventBus(env, latency=0.0001, retention=256)
    chaos = ChaosInjector(
        seed=SEED,
        message_drop_rate=drop_rate,
        message_duplicate_rate=0.05,
        message_delay_rate=0.05,
    )
    chaotic = ChaosBus(bus, chaos)
    key = AeadKey(b"\x05" * 32)
    opened = []

    def handle(event):
        plaintext = event.open(key)
        if not plaintext.startswith(b"flush"):
            opened.append(plaintext)

    subscriber = ReliableSubscriber(chaotic, "telemetry", handle)
    # A drop at the stream tail is invisible to gap detection (nothing
    # later reveals it), so the stream ends with flush sentinels --
    # the epilogue any gap-detection protocol needs.
    flushes = 3
    for index in range(events + flushes):
        def publish(index=index):
            sequence = bus.next_sequence("telemetry")
            payload = (
                b"m%d" % index if index < events else b"flush%d" % index
            )
            chaotic.publish(
                SealedEvent.seal(key, "telemetry", "gen", sequence, payload)
            )
        env.call_at(0.0005 * (index + 1), publish)
    env.run()
    span = 0.0005 * events
    lost_real = [seq for seq in subscriber.lost if seq < events]
    in_order = opened == [
        b"m%d" % index for index in range(events)
        if index not in subscriber._lost_set
    ]
    return {
        "scenario": "bus drop=%d%%" % round(drop_rate * 100),
        "faults": chaotic.dropped + chaotic.duplicated + chaotic.delayed,
        "recoveries": len(subscriber.recovery_latencies),
        "recovery_ms": _median_ms(subscriber.recovery_latencies),
        "goodput": "%.3g ev/s" % (len(opened) / span),
        "correct": in_order and len(opened) + len(lost_real) == events,
    }


def _transfer_trial(corruption_rate, payload_kb=192):
    key = AeadKey(b"\x07" * 32)
    transfer = BulkTransfer(key, chunk_size=4096, batch_size=2)
    network = SimulatedNetwork(bandwidth_mbps=1000.0)
    chaos = ChaosInjector(seed=SEED, frame_corruption_rate=corruption_rate)
    chaotic = ChaosNetwork(network, chaos, transfer_id=b"e5")
    reliable = ReliableBulkTransfer(
        transfer, policy=RetryPolicy(max_attempts=10, base_delay=0.0005)
    )
    payload = bytes(range(256)) * (payload_kb * 4)
    received, stats = reliable.transmit(payload, chaotic, transfer_id=b"e5")
    return {
        "scenario": "transfer corrupt=%d%%" % round(corruption_rate * 100),
        "faults": stats.corrupted,
        "recoveries": stats.retransmissions,
        "recovery_ms": stats.backoff_seconds * 1e3,
        "goodput": "%.3g MB/s" % stats.goodput_mbps,
        "correct": received == payload,
    }


def run_e5(smoke=False):
    """All scenarios; returns table rows.  ``smoke`` shrinks workloads."""
    scale = 3 if smoke else 1
    trials = [
        _mapreduce_trial(0.10, records=120 // scale),
        _mapreduce_trial(0.25, records=120 // scale),
        _broker_trial(0.20, publications=30 // scale),
        _bus_trial(0.10, events=60 // scale),
        _bus_trial(0.20, events=60 // scale),
        _transfer_trial(0.15, payload_kb=192 // scale),
    ]
    return [
        (
            trial["scenario"],
            trial["faults"],
            trial["recoveries"],
            trial["recovery_ms"],
            trial["goodput"],
            "yes" if trial["correct"] else "NO",
        )
        for trial in trials
    ]


@pytest.fixture(scope="module")
def e5_rows():
    return run_e5()


def bench_e5_chaos_recovery(e5_rows, benchmark):
    rows = e5_rows
    report(
        "e5_chaos_recovery",
        "E5: detection-to-recovery under injected faults (virtual time)",
        ("scenario", "faults", "recoveries", "recovery_ms_med", "goodput",
         "correct"),
        rows,
        notes=(
            "seeded chaos: identical faults and identical table on every run",
            "recovery_ms: median detection-to-recovery (backoff / NACK / "
            "failover) in virtual ms",
        ),
    )
    for scenario, faults, recoveries, _ms, _goodput, correct in rows:
        assert correct == "yes", "%s diverged from reference" % scenario
    by_name = {row[0]: row for row in rows}
    # >=10% mapper crash rate must actually exercise recovery.
    assert by_name["mapreduce crash=10%"][1] > 0
    assert by_name["mapreduce crash=25%"][2] > 0
    assert by_name["scbr failover drop=20%"][2] > 0
    benchmark.pedantic(lambda: _transfer_trial(0.15, payload_kb=32),
                       rounds=1, iterations=1)
