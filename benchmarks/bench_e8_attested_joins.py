"""E8 -- fleet-scale attestation: cached, batched, and ticket joins.

The provisioning plane (``repro.scbr.provisioning``) amortises the
dominant costs of attested shard enrollment -- quote signing, quote
verification, and DH key generation -- across a fleet.  Five join
scenarios measure the same 8-platform fleet joining a coordinator
under progressively more of the plane's machinery:

- **cold per-shard joins**: the baseline CAS handshake.  Every join
  mints a fresh DH key, signs a fresh quote, and pays full FDH quote
  verification on both sides (~19.8M cycles/join).  The attestation
  service's cache is on here as everywhere: fresh DH keys make every
  quote new, so a cold scenario never presents one twice;
- **batched cold joins**: one coordinator quote commits to a hash over
  every offered DH value, so N shards verify one coordinator quote
  (the verification cache collapses N-1 of them to cache hits);
- **cached re-joins**: platform-sealed DH keys are reused, so the
  re-offered quotes are byte-identical and the verification cache
  memoises both directions of the handshake;
- **batched+cached re-joins**: both together -- the headline >=5x
  over cold that the gate pins;
- **ticket re-joins**: plane-key-sealed resumption tickets skip quote
  verification *and* the DH exchange entirely (~tens of thousands of
  joins per virtual second).

Two mass-recovery scenarios replay E7's machine-death drill on a
node-placed plane -- ``fail_node`` then ``recover_node`` -- once with
the provisioning plane disabled (cold re-attestation per displaced
shard) and once with it on (ticket re-joins), and route a publication
stream through the healed plane against the single-index oracle.
``silent_loss`` is pinned to zero in both.

Cycle costs are fixed constants and every platform is seeded, so the
table is bit-identical across runs (the chaos determinism check runs
this twice and diffs rows and telemetry).
"""

import statistics

import pytest

from repro.cluster import NodeTopology
from repro.scbr.filters import Publication, Subscription
from repro.scbr.messages import EncryptedEnvelope, serialize_publication
from repro.scbr.provisioning import PlaneProvisioner
from repro.scbr.router import ScbrClient
from repro.scbr.sharding import (
    COORD_CODE,
    SHARD_CODE,
    ShardedScbrRouter,
)
from repro.scbr.workload import ScbrWorkload
from repro.sgx.attestation import AttestationService
from repro.sgx.platform import SgxPlatform
from repro.sim.clock import cycles_to_seconds
from repro.sim.events import Environment

from benchmarks._harness import report
from tests.scbr.oracle import oracle_match_sets

SEED = 88
FLEET = 8

E8_HEADER = ("scenario", "shards", "joins", "verify_full", "verify_cached",
             "ms_per_join", "joins_per_vsec", "recover_ms_med",
             "silent_loss")


class _JoinFleet:
    """A coordinator plus a rack of shard platforms joining by hand.

    The fleet owns the raw platforms so join cost can be measured as
    the sum of every participant's cycle-clock delta -- exactly the
    work the provisioning plane claims to amortise, with no routing or
    matching cycles mixed in.
    """

    def __init__(self, seed, size, reuse=True, batch=True, tickets=True):
        self.size = size
        self.coordinator_platform = SgxPlatform(
            seed=seed, quoting_key_bits=512
        )
        self.service = AttestationService()
        self.service.register_platform(
            self.coordinator_platform.platform_id,
            self.coordinator_platform.quoting_enclave.public_key,
        )
        self.coordinator = self.coordinator_platform.load_enclave(COORD_CODE)
        self.coordinator.ecall(
            "setup", self.service, SHARD_CODE.measurement, None
        )
        self.provisioner = PlaneProvisioner(
            reuse_join_keys=reuse, batch=batch, tickets=tickets,
        )
        self.platforms = []
        for index in range(size):
            platform = SgxPlatform(
                seed=seed + 100 + index, quoting_key_bits=512
            )
            self.service.register_platform(
                platform.platform_id, platform.quoting_enclave.public_key
            )
            self.platforms.append(platform)
        self._live = []

    def join_round(self):
        """Join one fresh shard enclave per platform; returns cycles.

        Earlier rounds' enclaves are destroyed first (their EPC pages
        are reclaimed), modelling shards respawning on machines the
        plane has already met -- the re-join path tickets and caches
        are built for.
        """
        for enclave in self._live:
            enclave.destroy()
        self._live = []
        before = self.coordinator_platform.clock.now + sum(
            platform.clock.now for platform in self.platforms
        )
        entries = []
        for shard_id, platform in enumerate(self.platforms):
            enclave = platform.load_enclave(
                SHARD_CODE, name="e8-shard-%d" % shard_id
            )
            enclave.ecall(
                "setup", shard_id, self.service, COORD_CODE.measurement,
                None,
            )
            entries.append((shard_id, platform, enclave))
        self.provisioner.join(
            self.coordinator, self.coordinator_platform, entries
        )
        self._live = [enclave for _sid, _platform, enclave in entries]
        after = self.coordinator_platform.clock.now + sum(
            platform.clock.now for platform in self.platforms
        )
        return after - before


def _join_trial(scenario, size, reuse, batch, tickets, measured_round):
    """Run ``measured_round`` join rounds, report the last one."""
    fleet = _JoinFleet(SEED, size, reuse=reuse, batch=batch, tickets=tickets)
    cycles = 0
    for _round in range(measured_round):
        hits_before = fleet.service.hits
        misses_before = fleet.service.misses
        cycles = fleet.join_round()
    seconds = cycles_to_seconds(cycles)
    return {
        "scenario": scenario,
        "shards": size,
        "joins": size,
        "verify_full": fleet.service.misses - misses_before,
        "verify_cached": fleet.service.hits - hits_before,
        "ms_per_join": seconds * 1e3 / size,
        "joins_per_vsec": size / seconds,
        "recover_ms": 0.0,
        "silent_loss": 0,
    }


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


def _recovery_trial(scenario, subscriptions, publications,
                    provisioned=True):
    """Machine death and mass recovery, cold vs. provisioned re-joins.

    ``provisioned=False`` disables key reuse, batching, and tickets:
    every displaced shard offers a fresh quote and pays the full CAS
    handshake again, as the plane did before E8.
    """
    topology = NodeTopology.build(4, seed=SEED + 4)
    platform = SgxPlatform(seed=SEED + 4, quoting_key_bits=512)
    attestation = AttestationService()
    attestation.register_platform(
        platform.platform_id, platform.quoting_enclave.public_key
    )
    provisioner = PlaneProvisioner(
        reuse_join_keys=provisioned, batch=provisioned, tickets=provisioned,
    )
    router = ShardedScbrRouter(
        platform, topology=topology, attestation_service=attestation,
        shards=8, provisioner=provisioner, env=Environment(),
    )
    attestation.trust_measurement(router.measurement)

    alice = ScbrClient("alice", router, attestation)
    workload = ScbrWorkload(seed=SEED, num_attributes=6,
                            containment_fraction=0.5, num_subscribers=1)
    live = []
    for subscription in workload.subscriptions(subscriptions):
        subscription = Subscription(
            subscription.subscription_id,
            list(subscription.constraints.values()),
            "alice",
        )
        alice.subscribe(subscription)
        live.append(subscription)
    publisher = ScbrClient("publisher", router, attestation)
    stream = workload.publications(publications)

    hits_before = attestation.hits
    misses_before = attestation.misses
    dark = router.fleet.fail_node("node-1")
    recovered = router.fleet.recover_node("node-1")
    assert sorted(recovered) == sorted(dark), "every dark shard respawned"
    (node_episode,) = router.fleet.node_episodes

    deliveries = []
    for publication in stream:
        routed = router.publish_routed(_envelope(publisher, publication))
        deliveries.append(_matched(alice, routed))
    oracle = oracle_match_sets(live, stream)
    assert deliveries == oracle, "recovered plane diverged from oracle"
    router.check_invariants()
    if provisioned:
        assert router.provisioner.resumed_joins >= len(dark), (
            "the displaced shards must re-join on resumption tickets"
        )
    return {
        "scenario": scenario,
        "shards": router.shard_count,
        "joins": len(recovered),
        "verify_full": attestation.misses - misses_before,
        "verify_cached": attestation.hits - hits_before,
        "ms_per_join": 0.0,
        "joins_per_vsec": 0.0,
        "recover_ms": _median_ms([node_episode["recovery_seconds"]]),
        "silent_loss": sum(
            1 for got, want in zip(deliveries, oracle) if got != want
        ),
    }


def run_e8(smoke=False):
    """All scenarios; returns table rows.  ``smoke`` shrinks workloads."""
    scale = 2 if smoke else 1
    size = FLEET // scale
    trials = [
        _join_trial("cold per-shard joins", size, reuse=False, batch=False,
                    tickets=False, measured_round=1),
        _join_trial("batched cold joins", size, reuse=True, batch=True,
                    tickets=False, measured_round=1),
        _join_trial("cached re-joins", size, reuse=True, batch=False,
                    tickets=False, measured_round=2),
        _join_trial("batched+cached re-joins", size, reuse=True, batch=True,
                    tickets=False, measured_round=2),
        _join_trial("ticket re-joins", size, reuse=True, batch=True,
                    tickets=True, measured_round=2),
        _recovery_trial("mass recovery cold", 40 // scale, 8 // scale,
                        provisioned=False),
        _recovery_trial("mass recovery provisioned", 40 // scale,
                        8 // scale, provisioned=True),
    ]
    return [
        (
            trial["scenario"],
            trial["shards"],
            trial["joins"],
            trial["verify_full"],
            trial["verify_cached"],
            trial["ms_per_join"],
            trial["joins_per_vsec"],
            trial["recover_ms"],
            trial["silent_loss"],
        )
        for trial in trials
    ]


@pytest.fixture(scope="module")
def e8_rows():
    return run_e8()


def bench_e8_attested_joins(e8_rows, benchmark):
    rows = e8_rows
    report(
        "e8_attested_joins",
        "E8: fleet-scale attestation -- cached verification, batched "
        "enrollment, resumption tickets (virtual time)",
        E8_HEADER,
        rows,
        notes=(
            "ms_per_join sums every participant's cycle delta for one",
            "join round; verify_full/verify_cached are verifier deltas in",
            "the measured round; recover_ms is the E7-style node",
            "mass-recovery median, cold CAS handshakes vs. ticket re-joins",
        ),
    )
    by_name = {row[0]: row for row in rows}
    for row in rows:
        assert row[8] == 0, "%s lost matches silently" % row[0]
    cold = by_name["cold per-shard joins"]
    batched = by_name["batched cold joins"]
    cached = by_name["cached re-joins"]
    combined = by_name["batched+cached re-joins"]
    ticket = by_name["ticket re-joins"]
    assert cold[3] > 0 and cold[4] == 0, (
        "the cold baseline pays full verification every time"
    )
    assert combined[3] == 0 and combined[4] > 0, (
        "batched+cached re-joins verify from the cache only"
    )
    assert cached[3] == 0, "cached re-joins never re-verify from scratch"
    assert batched[5] < cold[5], "batching alone already beats cold"
    assert cold[5] >= 5.0 * combined[5], (
        "batched+cached joins must be >=5x cheaper than cold joins"
    )
    assert ticket[5] < combined[5], (
        "ticket re-joins skip even the cached handshake"
    )
    assert ticket[3] == 0 and ticket[4] == 0, (
        "ticket re-joins never touch the quote verifier"
    )
    assert ticket[6] > 1000.0, (
        "resumption sustains thousands of joins per virtual second"
    )
    recovery_cold = by_name["mass recovery cold"]
    recovery_fast = by_name["mass recovery provisioned"]
    assert recovery_cold[7] > recovery_fast[7] > 0.0, (
        "provisioned mass recovery must beat cold re-attestation"
    )
    assert recovery_fast[3] == 0, (
        "ticket-based recovery performs zero full quote verifications"
    )

    benchmark.pedantic(
        lambda: _join_trial("ticket re-joins", 4, reuse=True, batch=True,
                            tickets=True, measured_round=2),
        rounds=1, iterations=1,
    )
