"""A10 (ablation) -- the sharded matching plane's publish fan-out.

Three routers receive the same 3000-subscription database and the same
publication stream, end to end through the attested client protocol:

- **seed per-match**: the original fan-out -- the publication is
  re-serialized and a full envelope sealed for every matched
  *subscription* (a subscriber with several matching subscriptions
  receives duplicates).  It lives here, not in ``repro.scbr``: a
  frozen reference loaded into this benchmark's own router enclave;
- **batched router**: the reworked hot path -- serialize once, dedupe
  by subscriber, one sealed-batch envelope per subscriber through
  cached sealing contexts;
- **sharded plane**: the coordinator + N shard enclaves -- the
  publication is sealed once under the plane key, all shards match
  concurrently (virtual latency is the slowest shard), and the
  coordinator seals the deduplicated per-subscriber fan-out.

Reported times are virtual (cycle model); wall-clock of the simulator
is meaningless.  Delivery equivalence is asserted: every matched
subscription id surfaces exactly once in every mode.
"""

import pytest

from repro.crypto.chunked import serial_seal_cycles
from repro.scbr.messages import (
    EncryptedEnvelope,
    client_key,
    serialize_publication,
)
from repro.scbr.router import (
    ROUTER_ENTRY_POINTS,
    SERIALIZE_CYCLES_PER_BYTE,
    ScbrClient,
    ScbrRouter,
    _open_publication,
)
from repro.scbr.sharding import ShardedScbrRouter
from repro.scbr.workload import ScbrWorkload
from repro.sgx.attestation import AttestationService
from repro.sgx.enclave import EnclaveCode
from repro.sgx.platform import SgxPlatform
from repro.sim.clock import cycles_to_seconds

from benchmarks._harness import report

SUBSCRIPTIONS = 3000
WARMUP_PUBLICATIONS = 6
MEASURED_PUBLICATIONS = 8
SHARDS = 4
SUBSCRIBERS = 30

A10_HEADER = ("mode", "virtual_ms/pub", "envelopes/pub", "matched/pub",
              "speedup_vs_seed")


def enclave_publish_unbatched(ctx, envelope):
    """ECALL: the seed fan-out path, frozen as the A10 baseline."""
    publication = _open_publication(ctx, envelope)
    matched = ctx.state["index"].match(publication)
    notifications = []
    for subscription_id in sorted(matched):
        subscriber = ctx.state["subscriber_of"][subscription_id]
        subscriber_key = client_key(ctx, subscriber)
        serialized = serialize_publication(publication)
        ctx.compute(SERIALIZE_CYCLES_PER_BYTE * len(serialized))
        envelope_out = EncryptedEnvelope.seal(
            subscriber_key, "router", "notify", serialized
        )
        ctx.compute(serial_seal_cycles(len(envelope_out.blob)))
        notifications.append(envelope_out)
    return notifications


SEED_ROUTER_CODE = EnclaveCode(
    "scbr-router",
    dict(ROUTER_ENTRY_POINTS, publish_unbatched=enclave_publish_unbatched),
)


class SeedFanOutRouter(ScbrRouter):
    """A monolithic router whose enclave also carries the seed fan-out."""

    def __init__(self, platform):
        self.platform = platform
        self.enclave = platform.load_enclave(SEED_ROUTER_CODE)
        self.enclave.ecall("setup")
        self.publications_routed = 0

    def publish_unbatched(self, envelope):
        notifications = self.enclave.ecall("publish_unbatched", envelope)
        self.publications_routed += 1
        return notifications


def _workload(total_subscriptions, total_publications):
    # Few attributes and broad (1-2 constraint) filters give a
    # high-match, subscriber-concentrated stream: the regime where the
    # fan-out, not the matching walk, dominates the publish path.
    workload = ScbrWorkload(
        seed=77, num_attributes=8, constraints_per_sub=(1, 2),
        containment_fraction=0.75, num_subscribers=SUBSCRIBERS,
    )
    subscriptions = workload.subscriptions(total_subscriptions)
    publications = workload.publications(total_publications)
    return subscriptions, publications


def _attested(platform):
    service = AttestationService()
    service.register_platform(
        platform.platform_id, platform.quoting_enclave.public_key
    )
    return service


def _connect_clients(router, service, subscriptions):
    clients = {}
    for name in sorted({s.subscriber for s in subscriptions}):
        clients[name] = ScbrClient(name, router, service)
    for subscription in subscriptions:
        clients[subscription.subscriber].subscribe(subscription)
    publisher = ScbrClient("publisher", router, service)
    return clients, publisher


def _publication_envelope(publisher, publication):
    return EncryptedEnvelope.seal(
        publisher.key, publisher.client_id, "publish",
        serialize_publication(publication),
    )


def _matched_ids(envelopes, clients):
    """Every matched subscription id delivered by a batch of envelopes."""
    ids = []
    for envelope in envelopes:
        if envelope.recipient is None:
            # Seed format: one envelope per matched subscription, no
            # ids inside -- each envelope stands for exactly one match.
            ids.append(None)
            continue
        _pub, matched = clients[envelope.recipient].open_notification_detail(
            envelope
        )
        ids.extend(matched)
    return ids


def _measure_single(publish, platform, publisher, publications, warmup):
    for publication in publications[:warmup]:
        publish(_publication_envelope(publisher, publication))
    start = platform.clock.now
    per_publication = []
    for publication in publications[warmup:]:
        per_publication.append(
            publish(_publication_envelope(publisher, publication))
        )
    cycles = platform.clock.now - start
    return cycles / len(per_publication), per_publication


def run_a10(smoke=False):
    """Rows: (mode, virtual_ms/pub, envelopes/pub, matched/pub, speedup)."""
    total_subscriptions = 300 if smoke else SUBSCRIPTIONS
    measured = 3 if smoke else MEASURED_PUBLICATIONS
    shards = 2 if smoke else SHARDS
    subscriptions, publications = _workload(
        total_subscriptions, WARMUP_PUBLICATIONS + measured
    )

    results = {}

    # Seed per-match fan-out and batched fan-out: one monolithic router
    # enclave each, on identical fresh platforms.
    for mode, seed, router_class, entry in (
        ("seed per-match", 301, SeedFanOutRouter, "publish_unbatched"),
        ("batched router", 302, ScbrRouter, "publish"),
    ):
        platform = SgxPlatform(seed=seed, quoting_key_bits=512)
        service = _attested(platform)
        router = router_class(platform)
        service.trust_measurement(router.measurement)
        clients, publisher = _connect_clients(router, service, subscriptions)
        publish = getattr(router, entry)
        cycles, batches = _measure_single(
            publish, platform, publisher, publications, WARMUP_PUBLICATIONS
        )
        results[mode] = (cycles, batches, clients)

    # The sharded plane: coordinator + shard enclaves on separate
    # platforms; virtual latency is tracked by the plane itself
    # (coordinator cycles + slowest shard).
    coordinator_platform = SgxPlatform(seed=303, quoting_key_bits=512)
    service = _attested(coordinator_platform)
    plane = ShardedScbrRouter(
        coordinator_platform,
        lambda i: SgxPlatform(seed=310 + i, quoting_key_bits=512),
        attestation_service=service,
        shards=shards,
    )
    service.trust_measurement(plane.measurement)
    clients, publisher = _connect_clients(plane, service, subscriptions)
    for publication in publications[:WARMUP_PUBLICATIONS]:
        plane.publish(_publication_envelope(publisher, publication))
    cycles = 0
    batches = []
    for publication in publications[WARMUP_PUBLICATIONS:]:
        batches.append(
            plane.publish(_publication_envelope(publisher, publication))
        )
        cycles += plane.last_publish_cycles
    results["sharded plane (%d)" % shards] = (
        cycles / measured, batches, clients,
    )

    # Delivery equivalence: per publication, the seed mode's envelope
    # count equals the number of matched ids either batched mode
    # carries -- dedup and sharding change the framing, never the set.
    seed_counts = [
        len(envelopes) for envelopes in results["seed per-match"][1]
    ]
    for mode, (_cycles, mode_batches, mode_clients) in results.items():
        counts = [
            len(_matched_ids(envelopes, mode_clients))
            for envelopes in mode_batches
        ]
        assert counts == seed_counts, (
            "mode %r delivered %r matches, seed delivered %r"
            % (mode, counts, seed_counts)
        )

    frequency = coordinator_platform.clock.frequency_hz
    seed_cycles = results["seed per-match"][0]
    rows = []
    for mode, (mode_cycles, mode_batches, _clients) in results.items():
        envelopes = sum(len(b) for b in mode_batches) / measured
        matched = sum(seed_counts) / measured
        rows.append(
            (
                mode,
                cycles_to_seconds(mode_cycles, frequency) * 1e3,
                envelopes,
                matched,
                seed_cycles / mode_cycles,
            )
        )
    return rows


@pytest.fixture(scope="module")
def a10_rows():
    return run_a10()


def bench_a10_sharded_matching(a10_rows, benchmark):
    rows = a10_rows
    report(
        "a10_sharded_matching",
        "A10: publish fan-out, %d subscriptions, %d subscribers"
        % (SUBSCRIPTIONS, SUBSCRIBERS),
        A10_HEADER,
        rows,
        notes=(
            "identical delivered match sets in all modes; the sharded",
            "plane seals the publication once, matches on %d shard"
            % SHARDS,
            "enclaves concurrently, and seals one deduplicated batch",
            "envelope per subscriber through cached sealing contexts",
        ),
    )
    by_mode = {row[0]: row for row in rows}
    seed = by_mode["seed per-match"]
    batched = by_mode["batched router"]
    sharded = by_mode["sharded plane (%d)" % SHARDS]
    assert batched[1] < seed[1], "batched fan-out beats per-match sealing"
    assert batched[2] <= seed[2], "dedup cannot increase envelope count"
    assert sharded[4] >= 3.0, (
        "acceptance: >=3x virtual-time speedup on publish fan-out, got %.2fx"
        % sharded[4]
    )

    benchmark.pedantic(lambda: run_a10(smoke=True), rounds=1, iterations=1)
