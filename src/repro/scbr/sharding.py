"""The EPC-aware sharded SCBR matching plane.

Figure 3 of the paper is a cliff: once the subscription database
outgrows the ~93 MB of usable EPC, every matching walk pays EPC paging
and throughput collapses by ~18x.  The paper's remedy is to keep the
enclave working set below the EPC limit; this module operationalises
that remedy by *sharding* the matching plane across worker enclaves on
separate machines, so no single enclave's resident set ever crosses
the watermark:

- :class:`EpcWatermarkPolicy` decides when a shard must split -- before
  its database crosses a fraction of the usable EPC, and (optionally)
  before the *hot* fraction of its records outgrows the LLC, which is
  where the first Figure 3 knee actually lives;
- :class:`ShardPlanner` places subscriptions consistently and
  covering-aware: a subscription covered by an existing root joins that
  root's shard, so covering chains stay together and the containment
  index keeps its pruning power after partitioning;
- :class:`ShardedMatchingPlane` is the index-level plane used by the
  memory experiments: one simulated machine (clock, LLC, EPC) per
  shard, publications matched on every shard in turn (the host loop
  is serial; parallelism is the cycle model's: separate clocks),
  virtual latency taken as the slowest shard (the critical path) plus
  nothing else -- the merge is a set union;
- :class:`ShardedScbrRouter` is the full enclave-level plane: a
  client-facing *coordinator* enclave (attested key exchange, covering
  placement, batched notification fan-out with cached per-subscriber
  sealing contexts) in front of N *shard* enclaves holding disjoint
  partitions of the subscription database, each on a fresh machine of
  its own or (``topology=``) on cluster nodes, where it also migrates
  live partitions off nodes past their EPC watermark.

The plane key shared by the coordinator and the shards is provisioned
over a mutually attested, batched Diffie-Hellman exchange
(:mod:`repro.scbr.provisioning`: ``join_offer2`` / ``enroll_batch`` /
``join_complete_batch``): the untrusted plane driver only relays
quotes and wrapped keys, and never sees key material -- unlike the
map/reduce driver, the broker host is part of the threat model.
"""

import contextlib
import json
from dataclasses import dataclass
from typing import Tuple

from repro.errors import (
    AttestationError,
    ConfigurationError,
    EnclaveLostError,
    IntegrityError,
    PartialCoverageError,
    SchedulingError,
)
from repro.crypto.aead import AeadKey
from repro.crypto.chunked import serial_seal_cycles
from repro.plane import (
    DEFAULT_NODE_EPC_WATERMARK,
    FleetClient,
    ShardFleet,
    ShardMember,
    choose_node,
)
from repro.retry import BackoffClock, RetryPolicy, retry_call
from repro.scbr.health import ShardHealthMonitor
from repro.scbr.index import ContainmentIndex, DEFAULT_RECORD_BYTES, HOT_BYTES
from repro.scbr.provisioning import (
    PlaneProvisioner,
    coord_enroll_batch,
    coord_resume,
    shard_join_complete_batch,
    shard_join_offer2,
    shard_resume_complete,
    shard_resume_offer,
)
from repro.scbr.messages import (
    NotificationSealer,
    admit_subscription,
    deserialize_publication,
    deserialize_subscription,
    fan_out,
    open_from_client,
    open_unsubscribe,
    serialize_subscription,
)
from repro.scbr.router import (
    SERIALIZE_CYCLES_PER_BYTE,
    enclave_channel_accept,
    enclave_channel_offer,
)
from repro.sgx.costs import DEFAULT_COSTS
from repro.sgx.enclave import EnclaveCode
from repro.sgx.memory import EpcModel, SimulatedMemory
from repro.sim.clock import CycleClock, cycles_to_seconds
from repro.telemetry import (
    DEFAULT_CYCLE_BUCKETS,
    EnclaveTelemetry,
    NULL_RECORDER,
    NULL_REGISTRY,
    default_registry,
)

# Associated-data labels of the intra-plane (coordinator <-> shard)
# message kinds; all ride the shared plane key.
_AAD_SUBSCRIPTION = b"plane|subscription"
_AAD_PUBLICATION = b"plane|publication"
_AAD_MATCHED = b"plane|matched"
_AAD_MIGRATE = b"plane|migrate"
_AAD_SNAPSHOT = b"plane|snapshot"
_AAD_REMOVE = b"plane|remove"

# A publish that cannot cover every partition heals the dark shards
# and republishes under this budget (``on_partial="retry"``).
PUBLISH_RETRY_POLICY = RetryPolicy(max_attempts=4, base_delay=0.0005)


class EpcWatermarkPolicy:
    """When must a shard split?  Before its resident set starts paging.

    Two capacity cliffs bound a shard's database (Figure 3 shows both):

    - the *EPC* cliff: once ``database_bytes`` exceeds the usable EPC,
      every matching walk page-faults (~18x);
    - the *LLC* cliff: the matcher touches ``HOT_BYTES`` of every
      ``DEFAULT_RECORD_BYTES`` record, so once ``count *
      lines_per_record`` outgrows the LLC, every visit is an
      (MEE-decrypted) cache miss (~4-6x) even while the database still
      fits the EPC.

    ``max_shard_bytes`` is the smaller of the two limits scaled by the
    watermark fraction; a split triggers when the *next* insert would
    cross it, so a shard never reaches the limit.  ``llc_aware=False``
    polices only the paper's EPC boundary.
    """

    def __init__(self, costs=DEFAULT_COSTS, watermark=0.85, llc_aware=True):
        if not 0.0 < watermark <= 1.0:
            raise ConfigurationError("watermark must be in (0, 1]")
        self.costs = costs
        self.watermark = watermark
        self.llc_aware = llc_aware
        limit = watermark * costs.epc_usable
        if llc_aware:
            lines_per_record = max(
                1, -(-HOT_BYTES // costs.line_size)  # ceil
            )
            llc_records = (costs.llc_capacity // costs.line_size) // lines_per_record
            llc_fit_bytes = llc_records * DEFAULT_RECORD_BYTES
            limit = min(limit, watermark * llc_fit_bytes)
        self.max_shard_bytes = int(limit)

    def needs_split(self, database_bytes,
                    incoming_bytes=DEFAULT_RECORD_BYTES):
        """Whether admitting ``incoming_bytes`` more would cross the mark."""
        return database_bytes + incoming_bytes > self.max_shard_bytes

    def split_target_bytes(self, database_bytes):
        """How much to evacuate from a splitting shard (half)."""
        return database_bytes // 2

    def shards_for(self, total_bytes):
        """Lower bound on shards needed for ``total_bytes`` of database."""
        return max(1, -(-total_bytes // self.max_shard_bytes))


class ShardPlanner:
    """Consistent, covering-aware placement of subscriptions on shards.

    Placement is a pure function of the covering flags and the shard
    loads, so every replica of the planner makes the same decision:

    1. if some shard's forest has a root covering the subscription, the
       subscription joins the *first* such shard -- it extends a
       covering chain already living there, and the containment index
       will file it beneath that root, adding no new root to walk;
    2. otherwise the least-loaded shard wins (ties broken by position),
       which keeps partitions balanced under churn.

    Rule 1 has an overload guard: a covering shard running more than
    ``balance_slack`` bytes ahead of the lightest shard is skipped.
    Covering workloads concentrate -- popular broad filters attract all
    their specialisations -- and matching latency is the *slowest*
    shard, so unbounded colocation would re-serialise the parallel
    plane.  A chain split this way still matches correctly (results are
    a union); it merely costs the hot shard's pruning for the spilled
    subscription.
    """

    # Generous by default: colocation (pruning) usually beats balance,
    # so the guard only fires under extreme concentration.
    BALANCE_SLACK_BYTES = 512 * DEFAULT_RECORD_BYTES

    @staticmethod
    def choose(cover_flags, loads, balance_slack=BALANCE_SLACK_BYTES):
        """Pick a shard position given per-shard flags and byte loads."""
        if len(cover_flags) != len(loads) or not loads:
            raise ConfigurationError("flags and loads must align, non-empty")
        lightest = min(loads)
        for position, flag in enumerate(cover_flags):
            if flag and loads[position] - lightest <= balance_slack:
                return position
        return min(range(len(loads)), key=lambda position: (loads[position], position))

    @staticmethod
    def place(subscription, indexes, balance_slack=BALANCE_SLACK_BYTES):
        """Index-level convenience: choose among live index objects."""
        return ShardPlanner.choose(
            [index.covers_any_root(subscription) for index in indexes],
            [index.database_bytes for index in indexes],
            balance_slack=balance_slack,
        )


class MatchingShard:
    """One index-level shard: its own machine (clock, LLC, EPC) + index."""

    def __init__(self, shard_id, index_factory, costs, enclave=True):
        self.shard_id = shard_id
        self.clock = CycleClock()
        if enclave:
            self.memory = SimulatedMemory(
                self.clock, costs, enclave=True, epc=EpcModel(costs),
                name="shard-%d" % shard_id,
            )
        else:
            self.memory = SimulatedMemory(
                self.clock, costs, name="shard-%d" % shard_id
            )
        self.index = index_factory(memory=self.memory)

    def match(self, publication):
        """Match locally; returns (ids, elapsed cycles, visits)."""
        start = self.clock.now
        matched = self.index.match(publication)
        return matched, self.clock.now - start, self.index.visits_last_match


class ShardedMatchingPlane:
    """Index-level sharded matching: the Figure 3 experiment, partitioned.

    Runs the *same* matcher code as the monolithic experiments against
    N per-shard enclave memories instead of one.  Inserting splits a
    shard through the :class:`EpcWatermarkPolicy` before it can cross
    the watermark (whole root subtrees migrate, so covering chains stay
    intact); matching visits every shard in order and the virtual
    latency of a publication is the *slowest shard's* cycles -- shards
    are separate machines with separate clocks, which is all the
    parallelism the cycle model needs.
    """

    def __init__(self, index_factory=ContainmentIndex, costs=DEFAULT_COSTS,
                 policy=None, enclave=True, initial_shards=1):
        if initial_shards < 1:
            raise ConfigurationError("need at least one shard")
        self.index_factory = index_factory
        self.costs = costs
        self.enclave = enclave
        self.policy = policy or EpcWatermarkPolicy(costs)
        self.shards = []
        for _ in range(initial_shards):
            self._spawn_shard()
        self._home = {}
        self.splits = 0
        self.migrated = 0
        self.match_cycles = 0
        self.last_match_cycles = 0
        self.visits_last_match = 0
        registry = default_registry()
        self._tel_matches = registry.counter("scbr.plane.matches")
        self._tel_match_cycles = registry.histogram(
            "scbr.plane.match_cycles", buckets=DEFAULT_CYCLE_BUCKETS
        )
        self._tel_splits = registry.counter("scbr.plane.splits")
        self._tel_visits = registry.counter("scbr.plane.visits")

    def _spawn_shard(self):
        shard = MatchingShard(
            len(self.shards), self.index_factory, self.costs,
            enclave=self.enclave,
        )
        self.shards.append(shard)
        return shard

    def __len__(self):
        return len(self._home)

    @property
    def shard_count(self):
        return len(self.shards)

    def shard_sizes(self):
        """Per-shard database bytes (diagnostics, balance assertions)."""
        return [shard.index.database_bytes for shard in self.shards]

    def insert(self, subscription):
        """Place and insert; splits the target shard if it would cross
        the EPC watermark first."""
        shard = self.shards[
            ShardPlanner.place(
                subscription, [shard.index for shard in self.shards]
            )
        ]
        if self.policy.needs_split(shard.index.database_bytes):
            self._split(shard)
            # Re-place: the covering chain this subscription belongs to
            # may just have migrated to the new shard.
            shard = self.shards[
                ShardPlanner.place(
                    subscription, [shard.index for shard in self.shards]
                )
            ]
        shard.index.insert(subscription)
        self._home[subscription.subscription_id] = shard
        return shard.shard_id

    def _split(self, shard):
        """Evacuate half of ``shard`` (whole subtrees) to a fresh shard."""
        target = self.policy.split_target_bytes(shard.index.database_bytes)
        fresh = self._spawn_shard()
        moved = shard.index.extract_subtrees(target)
        for subscription in moved:
            fresh.index.insert(subscription)
            self._home[subscription.subscription_id] = fresh
        self.splits += 1
        self.migrated += len(moved)
        self._tel_splits.inc()
        return fresh

    def remove(self, subscription_id):
        """Unsubscribe wherever the subscription lives."""
        shard = self._home.pop(subscription_id, None)
        if shard is None:
            raise ConfigurationError(
                "no subscription %r in the plane" % subscription_id
            )
        return shard.index.remove(subscription_id)

    def match(self, publication):
        """Union of every shard's matches.

        Each shard charges its own clock, so the plane's virtual
        latency for the publication is the slowest shard's elapsed
        cycles (shards are independent machines), accumulated in
        :attr:`match_cycles`.
        """
        union = set()
        slowest = 0
        visits = 0
        for shard in self.shards:
            matched, elapsed, shard_visits = shard.match(publication)
            union |= matched
            slowest = max(slowest, elapsed)
            visits += shard_visits
        self.last_match_cycles = slowest
        self.match_cycles += slowest
        self.visits_last_match = visits
        self._tel_matches.inc()
        self._tel_match_cycles.observe(slowest)
        self._tel_visits.inc(visits)
        return union

    def check_invariants(self):
        """Every shard's forest invariant, plus disjoint partitions."""
        seen = set()
        for shard in self.shards:
            shard.index.check_invariants()
            for subscription in shard.index.subscriptions():
                if subscription.subscription_id in seen:
                    raise ConfigurationError(
                        "subscription %r present on two shards"
                        % subscription.subscription_id
                    )
                seen.add(subscription.subscription_id)
        if seen != set(self._home):
            raise ConfigurationError("home map out of sync with shards")
        return True


# --- enclave-level plane ------------------------------------------------
#
# Shard enclave: holds one partition of the subscription database and
# the plane key.  Everything entering or leaving is sealed under the
# plane key; the shard never talks to clients directly.

def _plane_key(ctx):
    key = ctx.state.get("plane_key")
    if key is None:
        raise AttestationError("shard has not joined the plane")
    return key


def _tel(ctx):
    """In-enclave telemetry handles for this enclave's state.

    Shared no-ops when the enclave was set up without a telemetry key
    -- the plane then records nothing inside enclaves, and the trace
    context riding the ECALLs is simply ignored.
    """
    telemetry = ctx.state.get("telemetry")
    if telemetry is None:
        return NULL_REGISTRY, NULL_RECORDER
    return telemetry.registry, telemetry.recorder


def plane_telemetry_export(ctx):
    """ECALL (both codes): sealed telemetry snapshot, or None.

    The host relays the returned blob as-is; it is AEAD-sealed under
    the telemetry key provisioned at setup, so in-enclave timings
    reach only the operator holding that key.
    """
    telemetry = ctx.state.get("telemetry")
    if telemetry is None:
        return None
    return telemetry.export_sealed()


def shard_setup(ctx, shard_id, attestation, coordinator_measurement,
                telemetry_key=None):
    """ECALL: initialise an empty partition.

    ``attestation`` / ``coordinator_measurement`` let the shard verify
    the coordinator's quote during the join handshake; a shard set up
    without them can never join.  ``telemetry_key`` (optional)
    provisions in-enclave telemetry: match timings are then recorded
    inside the enclave and leave only as sealed snapshots
    (:func:`plane_telemetry_export`).
    """
    ctx.state["shard_id"] = shard_id
    ctx.state["index"] = ContainmentIndex(memory=ctx.memory)
    ctx.state["owners"] = {}
    ctx.state["version"] = 0
    ctx.state["attestation"] = attestation
    ctx.state["coordinator_measurement"] = coordinator_measurement
    if telemetry_key is not None:
        ctx.state["telemetry"] = EnclaveTelemetry(
            telemetry_key, "shard-%d" % shard_id
        )
    return True


def shard_insert(ctx, blob):
    """ECALL: admit one plane-sealed subscription into the partition."""
    subscription = deserialize_subscription(
        _plane_key(ctx).open(blob, _AAD_SUBSCRIPTION, what="plane message")
    )
    ctx.state["index"].insert(subscription)
    ctx.state["owners"][subscription.subscription_id] = subscription.subscriber
    ctx.state["version"] += 1
    return subscription.subscription_id


def shard_covers_root(ctx, blob):
    """ECALL: placement probe -- does a local root cover this filter?"""
    subscription = deserialize_subscription(
        _plane_key(ctx).open(blob, _AAD_SUBSCRIPTION, what="plane message")
    )
    return ctx.state["index"].covers_any_root(subscription)


def shard_remove(ctx, blob):
    """ECALL: unsubscribe; only the owning client may remove.

    ``blob`` is the coordinator's plane-sealed ``{id, client}``
    (:func:`coord_unsubscribe`): the client is the sender the channel
    key authenticated, so the host names neither the subscription nor
    its owner.
    """
    intent = json.loads(_plane_key(ctx).open(
        blob, _AAD_REMOVE, what="plane message"
    ).decode("utf-8"))
    subscription_id, client_id = intent["id"], intent["client"]
    owner = ctx.state["owners"].get(subscription_id)
    if owner is None:
        raise ConfigurationError(
            "no subscription %r on this shard" % subscription_id
        )
    if owner != client_id:
        raise IntegrityError(
            "client %r does not own subscription %r"
            % (client_id, subscription_id)
        )
    ctx.state["index"].remove(subscription_id)
    del ctx.state["owners"][subscription_id]
    ctx.state["version"] += 1
    return True


def shard_match(ctx, sealed_publication, trace=None):
    """ECALL: match one plane-sealed publication against the partition.

    Returns ``(sealed matches, visits)``: the matches travel back to
    the coordinator as plane ciphertext carrying this shard's id and
    its ``(subscription_id, subscriber)`` pairs; the id lets the
    coordinator account *coverage* -- which partitions actually
    answered -- so a missing shard can never silently shrink a match
    set.  The visit count is an operational counter the host could
    read via stats anyway.

    ``trace`` is the host's ``(trace_id, span_id)`` publish context;
    when this shard records telemetry, its match span parents under it
    -- but the span itself (match count, in-enclave elapsed cycles)
    stays sealed.
    """
    registry, recorder = _tel(ctx)
    with recorder.span("shard.match", ctx.clock, trace=trace) as span:
        publication = deserialize_publication(_plane_key(ctx).open(
            sealed_publication, _AAD_PUBLICATION, what="plane message"
        ))
        index = ctx.state["index"]
        matched = index.match(publication)
        owners = ctx.state["owners"]
        pairs = sorted((sid, owners[sid]) for sid in matched)
        payload = json.dumps(
            {"shard": ctx.state["shard_id"], "pairs": pairs}
        ).encode("utf-8")
        ctx.compute(serial_seal_cycles(len(payload)))
        blob = _plane_key(ctx).seal_records([payload], _AAD_MATCHED)
        span.attrs["visits"] = index.visits_last_match
        span.attrs["matches"] = len(pairs)
        registry.counter("scbr.shard.matched_pairs").inc(len(pairs))
        registry.histogram(
            "scbr.shard.match_visits",
            buckets=(1, 4, 16, 64, 256, 1024, 4096, 16384),
        ).observe(index.visits_last_match)
    return blob, index.visits_last_match


def shard_evacuate(ctx, target_bytes):
    """ECALL: detach whole subtrees totalling >= ``target_bytes``.

    Returns ``(ids, sealed batch)``; the ids let the untrusted driver
    update its routing table (it learned them at subscribe time), the
    batch re-seals the full subscriptions for the receiving shard.
    """
    index = ctx.state["index"]
    moved = index.extract_subtrees(target_bytes)
    owners = ctx.state["owners"]
    for subscription in moved:
        del owners[subscription.subscription_id]
    if moved:
        ctx.state["version"] += 1
    payloads = [serialize_subscription(s) for s in moved]
    blob = _plane_key(ctx).seal_records(payloads, _AAD_MIGRATE)
    return [s.subscription_id for s in moved], blob


def shard_load(ctx, blob):
    """ECALL: admit a migrated batch (insertion order preserves chains)."""
    payloads = _plane_key(ctx).open_records(
        blob, _AAD_MIGRATE, what="migration batch"
    )
    index = ctx.state["index"]
    owners = ctx.state["owners"]
    for payload in payloads:
        subscription = deserialize_subscription(payload)
        index.insert(subscription)
        owners[subscription.subscription_id] = subscription.subscriber
    return len(payloads)


def shard_ping(ctx):
    """ECALL: liveness heartbeat; cheap on purpose.

    The plane driver pings each shard every heartbeat period and feeds
    the arrivals to the failure detector; a destroyed enclave raises
    :class:`~repro.errors.EnclaveLostError` instead of answering, so
    suspicion accrues.  The answer carries nothing: that the call
    returned is the beat.
    """
    return True


def shard_snapshot(ctx):
    """ECALL: seal the whole partition under the *plane* key.

    Deliberately not platform sealing: platform seal keys derive from
    per-machine fuse secrets, so a snapshot sealed that way dies with
    the machine.  Sealing under the plane key means any replacement
    shard that completes the attested join -- on a brand-new platform --
    can restore the partition, while the untrusted host storing the
    blob still sees only ciphertext.

    Returns ``(version, sealed batch)``; payload 0 is a header binding
    the shard id, version, and record count, so a host feeding shard
    A's snapshot to shard B, or an old snapshot truncated short, fails
    closed.
    """
    index = ctx.state["index"]
    subscriptions = list(index.subscriptions())
    header = json.dumps({
        "shard_id": ctx.state["shard_id"],
        "version": ctx.state["version"],
        "count": len(subscriptions),
    }).encode("utf-8")
    payloads = [header] + [serialize_subscription(s) for s in subscriptions]
    ctx.compute(serial_seal_cycles(sum(len(p) for p in payloads)))
    blob = _plane_key(ctx).seal_records(payloads, _AAD_SNAPSHOT)
    return ctx.state["version"], blob


def shard_restore(ctx, blob):
    """ECALL: rebuild an *empty* partition from a sealed snapshot.

    Verifies the header: the snapshot must name this shard's partition
    (a host cannot graft another partition's database here) and carry
    exactly the promised record count.  Sets the partition version to
    the snapshot's, so replayed log entries continue the version line.
    """
    payloads = _plane_key(ctx).open_records(
        blob, _AAD_SNAPSHOT, what="shard snapshot"
    )
    if not payloads:
        raise IntegrityError("shard snapshot is missing its header")
    header = json.loads(payloads[0].decode("utf-8"))
    if header["shard_id"] != ctx.state["shard_id"]:
        raise IntegrityError(
            "snapshot belongs to shard %r, this is shard %r"
            % (header["shard_id"], ctx.state["shard_id"])
        )
    if len(payloads) - 1 != header["count"]:
        raise IntegrityError(
            "snapshot header promises %d records, batch carries %d"
            % (header["count"], len(payloads) - 1)
        )
    index = ctx.state["index"]
    owners = ctx.state["owners"]
    if len(index) or owners:
        raise ConfigurationError("restore requires an empty partition")
    for payload in payloads[1:]:
        subscription = deserialize_subscription(payload)
        index.insert(subscription)
        owners[subscription.subscription_id] = subscription.subscriber
    ctx.state["version"] = header["version"]
    return header["count"]


def shard_stats(ctx):
    """ECALL: operational counters (no content)."""
    index = ctx.state["index"]
    return {
        "shard_id": ctx.state["shard_id"],
        "subscriptions": len(index),
        "database_bytes": index.database_bytes,
        "resident_bytes": ctx.memory.resident_bytes,
        "visits_last_match": index.visits_last_match,
        "version": ctx.state["version"],
    }


SHARD_ENTRY_POINTS = {
    "setup": shard_setup,
    "join_offer2": shard_join_offer2,
    "join_complete_batch": shard_join_complete_batch,
    "resume_offer": shard_resume_offer,
    "resume_complete": shard_resume_complete,
    "insert": shard_insert,
    "covers_root": shard_covers_root,
    "remove": shard_remove,
    "match": shard_match,
    "evacuate": shard_evacuate,
    "load": shard_load,
    "ping": shard_ping,
    "snapshot": shard_snapshot,
    "restore": shard_restore,
    "stats": shard_stats,
    "telemetry_export": plane_telemetry_export,
}

SHARD_CODE = EnclaveCode("scbr-shard", SHARD_ENTRY_POINTS)


# Coordinator enclave: the client-facing front.  Holds the client
# channel keys, generates the plane key, enrols shards over attested
# DH, translates client envelopes into plane messages, and seals the
# deduplicated per-subscriber notification fan-out.

def coord_setup(ctx, attestation, shard_measurement, telemetry_key=None):
    """ECALL: initialise the coordinator; mints the plane key in-enclave.

    ``attestation`` + ``shard_measurement`` pin which shard code may
    join the plane; a coordinator set up without them enrolls nobody.
    ``telemetry_key`` (optional) provisions sealed in-enclave telemetry,
    exported via :func:`plane_telemetry_export`.
    """
    ctx.state["plane_key"] = AeadKey.generate()
    ctx.state["attestation"] = attestation
    ctx.state["shard_measurement"] = shard_measurement
    ctx.state["notification_sealer"] = NotificationSealer()
    ctx.state["pending_publications"] = {}
    ctx.state["next_token"] = 0
    ctx.state["enrolled"] = set()
    # Provisioning-plane state (repro.scbr.provisioning): the key
    # sealing resumption tickets and the per-platform resumption
    # secrets.
    ctx.state["ticket_key"] = AeadKey.generate()
    ctx.state["resumption"] = {}
    if telemetry_key is not None:
        ctx.state["telemetry"] = EnclaveTelemetry(telemetry_key, "coord")
    return True


def coord_admit(ctx, envelope):
    """ECALL: open a client subscription and re-seal it for the plane."""
    subscription, payload = admit_subscription(ctx, envelope)
    blob = ctx.state["plane_key"].seal(payload, _AAD_SUBSCRIPTION)
    return subscription.subscription_id, blob


def coord_unsubscribe(ctx, envelope):
    """ECALL: open a client unsubscribe and re-seal it for the plane.

    Returns ``(subscription_id, blob)``: the id routes the removal to
    its home shard, the blob carries ``{id, client}`` under the plane
    key with the authenticated sender as the client.
    """
    subscription_id = open_unsubscribe(ctx, envelope)
    blob = ctx.state["plane_key"].seal(
        json.dumps({"id": subscription_id, "client": envelope.sender})
        .encode("utf-8"),
        _AAD_REMOVE,
    )
    return subscription_id, blob


def coord_ingest(ctx, envelope, trace=None):
    """ECALL: open a client publication; seal it *once* for all shards.

    The serialized publication is parked under a token until
    :func:`coord_finalize` turns the shards' matches into
    notifications.  One plane ciphertext serves every shard -- they
    share the plane key, so the fan-out costs one seal regardless of
    the shard count.
    """
    registry, recorder = _tel(ctx)
    with recorder.span("coord.ingest", ctx.clock, trace=trace):
        serialized = open_from_client(ctx, envelope, "publish")
        # Validate before fanning out; a malformed publication must fail
        # here, not on every shard.
        deserialize_publication(serialized)
        ctx.compute(SERIALIZE_CYCLES_PER_BYTE * len(serialized))
        token = ctx.state["next_token"]
        ctx.state["next_token"] = token + 1
        # Park the publication together with the coverage the plane owes
        # it: the set of partitions enrolled *now*.  Finalize will compare
        # who actually answered against this roster, so a shard dying
        # between ingest and finalize cannot silently shrink the match set.
        ctx.state["pending_publications"][token] = (
            serialized, frozenset(ctx.state.get("enrolled", ())),
        )
        ctx.compute(serial_seal_cycles(len(serialized)))
        sealed = ctx.state["plane_key"].seal(serialized, _AAD_PUBLICATION)
        registry.counter("scbr.coord.publications").inc()
    return token, sealed


def coord_finalize(ctx, token, match_blobs, trace=None):
    """ECALL: merge shard matches into per-subscriber notifications.

    Dedupes by subscriber across *all* shards (a subscriber's matching
    subscriptions may be spread over several partitions), then seals
    exactly one envelope per subscriber through the cached sealing
    contexts.

    Returns ``(routed, missing)``: the ``(subscriber, envelope)`` pairs
    plus the sorted ids of enrolled partitions that did *not* answer.
    Each match blob authenticates the shard id it came from, so the
    untrusted driver can neither forge an answer for a dead shard nor
    double-count one shard as two -- coverage is judged in-enclave.

    Match counts are secret (they reveal which publications matter to
    whom), so the dedupe accounting -- matched pairs in, deduplicated
    notifications out -- is recorded here, inside the enclave, and
    leaves only sealed.
    """
    registry, recorder = _tel(ctx)
    with recorder.span("coord.finalize", ctx.clock, trace=trace) as span:
        pending = ctx.state["pending_publications"].pop(token, None)
        if pending is None:
            raise ConfigurationError("no pending publication %r" % token)
        serialized, expected = pending
        plane_key = ctx.state["plane_key"]
        pairs = []
        answered = set()
        for blob in match_blobs:
            payload = plane_key.open_record(
                blob, _AAD_MATCHED, what="shard match result"
            )
            record = json.loads(payload.decode("utf-8"))
            answered.add(record["shard"])
            pairs.extend(record["pairs"])
        missing = sorted(expected - answered)
        routed = fan_out(ctx, serialized, pairs)
        span.attrs["pairs"] = len(pairs)
        span.attrs["notifications"] = len(routed)
        registry.counter("scbr.coord.matched_pairs").inc(len(pairs))
        registry.counter("scbr.coord.notifications").inc(len(routed))
    return routed, missing


def coord_abandon(ctx, token):
    """ECALL: drop a parked publication that will never be finalized.

    The driver calls this when a publish fails between ingest and
    finalize; a publication left parked would hold enclave memory for
    good.  Unknown tokens
    (finalize pops first, then may fail) are fine.
    """
    ctx.state["pending_publications"].pop(token, None)
    return True


COORD_ENTRY_POINTS = {
    "setup": coord_setup,
    "channel_offer": enclave_channel_offer,
    "channel_accept": enclave_channel_accept,
    "enroll_batch": coord_enroll_batch,
    "resume": coord_resume,
    "admit": coord_admit,
    "unsubscribe": coord_unsubscribe,
    "ingest": coord_ingest,
    "finalize": coord_finalize,
    "abandon": coord_abandon,
    "telemetry_export": plane_telemetry_export,
}

COORD_CODE = EnclaveCode("scbr-coordinator", COORD_ENTRY_POINTS)


@dataclass
class PartialCoverage:
    """A publish that could not reach every enrolled partition.

    Returned (``on_partial="report"`` mode) instead of a plain routed
    list when one or more shards failed to answer: ``routed`` carries
    the notifications from the partitions that *did* match, ``missing``
    names the partitions whose matches are unknown.  The caller decides
    -- retry later, alert, degrade -- but it can never mistake this for
    a complete result.
    """

    routed: list
    missing: Tuple[int, ...]

    @property
    def complete(self):
        return not self.missing


class _ScbrShard(ShardMember):
    """A plane member plus the router's host mirror of its size."""

    def __init__(self, shard_id):
        super().__init__(shard_id)
        self.database_bytes = 0


# "Evacuate everything" sentinel: extract_subtrees keeps detaching
# roots until the moved bytes reach the target, so any target above
# the partition size moves the whole forest.
_EVACUATE_ALL_BYTES = 1 << 62


@dataclass
class MigrationTicket:
    """An in-flight live migration: source still serving, destination
    attested, joined, and waiting for the sealed evacuation batch."""

    shard_id: int
    source: object          # the member, still serving matches
    replacement: object     # staged stand-in on the destination node
    source_node: object
    dest_node: object
    source_clock_start: int
    dest_clock_start: int


class ShardedScbrRouter(FleetClient):
    """The untrusted driver of the enclave-level sharded matching plane.

    Presents the :class:`~repro.scbr.router.ScbrRouter` surface
    (``measurement``, ``enclave``,
    ``subscribe``/``unsubscribe``/``publish``/``publish_routed``/
    ``stats``), so :class:`~repro.scbr.router.ScbrClient` works against
    it unchanged -- clients attest the *coordinator* enclave.

    Placement: ``shard_platform_factory(i)`` gives every shard a fresh
    machine of its own; ``topology=`` (a
    :class:`~repro.cluster.nodes.NodeTopology`) binds shards to cluster
    nodes instead -- anti-affinity- and EPC-watermark-aware
    (:func:`repro.plane.choose_node`), node crashes and partitions
    through ``fleet.fail_node`` / ``fleet.partition_node``, healed as
    one mass recovery (``fleet.recover_node``), and live migration
    (:meth:`begin_migration` / :meth:`complete_migration`) to relieve a
    node's EPC.  Exactly one of the two is given.

    Virtual-time accounting: the coordinator runs on its platform's
    clock; every shard machine has its own clock.  A
    publish is ``ingest`` (coordinator) + the *busiest* shard
    machine's match cycles (the host asks shards one after another;
    their concurrency is the separate clocks) + ``finalize``
    (coordinator); the sum lands in :attr:`last_publish_cycles`.

    Fault tolerance: the shard life cycle -- spawn, attested join,
    plane-sealed snapshot plus mutation log, failure, heartbeat
    detection, respawn + restore + replay -- is the shared
    :class:`~repro.plane.ShardFleet`; the router supplies the shard
    code, its setup arguments, and how to snapshot, restore and replay
    a partition.  :meth:`start_health` schedules heartbeat probing on
    the simulated clock and auto-recovers on detection.  A publish that
    cannot cover every enrolled partition never shrinks silently:
    ``on_partial="retry"`` (default) heals the missing shards and
    republishes under the retry policy; ``on_partial="report"`` returns
    a :class:`PartialCoverage` naming the unanswered partitions.
    """

    name = "scbr-plane"

    def __init__(self, platform, shard_platform_factory=None, *,
                 attestation_service, shards=2, policy=None,
                 env=None, chaos=None, orchestrator=None,
                 health_policy=None, snapshot_interval=16,
                 on_partial="retry", telemetry_key=None, tracer=None,
                 provisioner=None, topology=None,
                 epc_node_watermark=DEFAULT_NODE_EPC_WATERMARK):
        if shards < 1:
            raise ConfigurationError("need at least one shard")
        if on_partial not in ("retry", "report"):
            raise ConfigurationError(
                "on_partial must be 'retry' or 'report', got %r"
                % (on_partial,)
            )
        self.platform = platform
        self.topology = topology
        self.epc_node_watermark = epc_node_watermark
        if topology is not None:
            # Enclave names, ledger keys and fault-log names carry it.
            self.name = "scbr-node-plane"
        # The coordinator, every shard and the fleet share this one
        # service: a re-join with an unchanged quote hits its cache,
        # and a revocation on it reaches every enclave at once.
        self.attestation_service = attestation_service
        self.provisioner = (
            provisioner if provisioner is not None
            else PlaneProvisioner(chaos=chaos)
        )
        self.policy = policy or EpcWatermarkPolicy(platform.costs)
        self.env = env
        self.chaos = chaos
        self.orchestrator = orchestrator
        self.on_partial = on_partial
        self.backoff = BackoffClock()
        self.monitor = (
            ShardHealthMonitor(env, health_policy)
            if env is not None else None
        )
        # Telemetry: a host-side span recorder for the driver's own clock
        # domain.  The operator's key for sealed in-enclave snapshots goes
        # only to the enclaves' setup (None disables in-enclave recording).
        self.tracer = tracer if tracer is not None else NULL_RECORDER
        registry = default_registry()
        self._tel_publications = registry.counter("scbr.publications")
        self._tel_subscribes = registry.counter("scbr.subscribes")
        self._tel_unsubscribes = registry.counter("scbr.unsubscribes")
        self._tel_publish_cycles = registry.histogram(
            "scbr.publish_cycles", buckets=DEFAULT_CYCLE_BUCKETS
        )
        # One observation per coverage-tracked fan-out: how long the
        # coordinator waited for the slowest shard (the parked
        # publication's critical path).
        self._tel_coverage_wait = registry.histogram(
            "scbr.coverage_wait_cycles", buckets=DEFAULT_CYCLE_BUCKETS
        )
        self._tel_shard_match = registry.histogram(
            "scbr.shard_match_cycles", buckets=DEFAULT_CYCLE_BUCKETS
        )
        self._tel_visits = registry.counter("scbr.visits")
        self._tel_splits = registry.counter("scbr.splits")
        self._tel_partial = registry.counter("scbr.partial_publishes")
        if topology is not None:
            self._tel_migrations = registry.counter("cluster.migrations")
        self.coordinator = platform.load_enclave(COORD_CODE)
        self.coordinator.ecall(
            "setup", attestation_service, SHARD_CODE.measurement,
            telemetry_key,
        )
        self.fleet = ShardFleet(
            self.name, "scbr", SHARD_CODE, self.coordinator, platform,
            self.provisioner, attestation_service,
            setup_args=lambda shard_id: (
                shard_id, attestation_service, COORD_CODE.measurement,
                telemetry_key,
            ),
            snapshot=lambda shard: shard.enclave.ecall("snapshot")[1],
            restore=self._restore, replay=self._replay,
            interval=snapshot_interval,
            platform_factory=shard_platform_factory, topology=topology,
            watermark=epc_node_watermark, member=_ScbrShard,
            now=lambda: env.now if env is not None else None,
            chaos=chaos, monitor=self.monitor, orchestrator=orchestrator,
            tracer=self.tracer,
        )
        self.shards = []
        self._home = {}
        self.publications_routed = 0
        self.publish_cycles = 0
        self.last_publish_cycles = 0
        self.last_visits = 0
        self.splits = 0
        self.migrated = 0
        self.migration_episodes = []
        self.partial_publishes = 0
        self._spawn_shards(range(shards))

    # -- plane membership ----------------------------------------------

    def _spawn_shards(self, shard_ids):
        """Grow the plane (initial bring-up or a split): spawn, join,
        and snapshot, so even an empty partition can be restored."""
        spawned = self.fleet.spawn(list(shard_ids))
        self.shards.extend(spawned)
        for shard in spawned:
            self.fleet.checkpoint(shard)
        return spawned

    def _shard_by_id(self, shard_id):
        return self.fleet.member(shard_id)

    # -- failure, detection, recovery -----------------------------------

    def fail_shard(self, shard_id):
        """Kill one shard enclave; False if it was already dead."""
        return self.fleet.fail(shard_id)

    def _restore(self, shard):
        return shard.enclave.ecall("restore", shard.snapshot)

    def _replay(self, shard):
        for entry in shard.log:
            shard.enclave.ecall(*entry)
        replayed = len(shard.log)
        # Consolidate: the replacement snapshots its rebuilt partition,
        # so the next crash replays from here, not from the old log.
        self.fleet.checkpoint(shard)
        return replayed

    def recover_shard(self, shard_id):
        """Respawn a dead shard from its sealed snapshot + mutation log.

        The replacement runs on a fresh platform from the factory or on
        a reachable node: it
        re-registers with the attestation service, re-joins the plane
        over attested DH (earning the plane key), restores the last
        snapshot, and replays the logged mutations -- so the rebuilt
        partition is byte-for-byte the pre-crash database.
        """
        return self.recover_shards([shard_id])[0]

    def recover_shards(self, shard_ids):
        """Respawn a *set* of dead shards in one provisioning round
        (:meth:`repro.plane.ShardFleet.recover`)."""
        self.fleet.recover(shard_ids)
        return [self.fleet.member(shard_id) for shard_id in shard_ids]

    def start_health(self, duration, auto_recover=True):
        """Schedule heartbeat probing every monitor period until
        ``duration``; newly detected-down nodes and shards are recovered
        in place when ``auto_recover`` (the paper's orchestration loop:
        detect, then adapt the infrastructure)."""
        return self.fleet.start_health(self.env, duration, auto_recover)

    @property
    def measurement(self):
        """The coordinator's measurement (what clients pin)."""
        return self.coordinator.measurement

    @property
    def shard_count(self):
        return len(self.shards)

    @property
    def enclave(self):
        """The coordinator: the enclave clients key against."""
        return self.coordinator

    # -- subscription plane --------------------------------------------

    def subscribe(self, envelope):
        """Admit, place (covering-aware), split-if-needed, insert.

        Placement considers only *live* shards -- a dark partition
        cannot answer the covering probe -- and the insert is appended
        to the target shard's replay log before returning, so a crash
        after this call cannot lose the subscription.
        """
        subscription_id, blob = self.coordinator.ecall("admit", envelope)
        shard = self._place(blob)
        if self.policy.needs_split(shard.database_bytes):
            self._split(shard)
            shard = self._place(blob)
        shard.enclave.ecall("insert", blob)
        shard.database_bytes += DEFAULT_RECORD_BYTES
        self._home[subscription_id] = shard
        self.fleet.log(shard, ("insert", blob))
        self._tel_subscribes.inc()
        return subscription_id

    def _place(self, blob):
        live = self.fleet.live()
        if not live:
            # Total darkness: heal the plane before admitting state.
            self.recover_shards(self.fleet.dark())
            live = self.fleet.live()
        flags = [shard.enclave.ecall("covers_root", blob) for shard in live]
        loads = [shard.database_bytes for shard in live]
        return live[ShardPlanner.choose(flags, loads)]

    def _split(self, shard):
        """Rebalance: evacuate half of ``shard`` onto a fresh shard.

        A split rewrites both partitions outside the insert/remove log
        vocabulary, so both sides are re-snapshotted immediately -- the
        replay logs restart from the post-split state.
        """
        fresh, = self._spawn_shards([len(self.shards)])
        target = self.policy.split_target_bytes(shard.database_bytes)
        moved_ids, batch = shard.enclave.ecall("evacuate", target)
        fresh.enclave.ecall("load", batch)
        moved_bytes = len(moved_ids) * DEFAULT_RECORD_BYTES
        shard.database_bytes -= moved_bytes
        fresh.database_bytes += moved_bytes
        for subscription_id in moved_ids:
            self._home[subscription_id] = fresh
        self.splits += 1
        self.migrated += len(moved_ids)
        self._tel_splits.inc()
        self.fleet.checkpoint(shard)
        self.fleet.checkpoint(fresh)
        return fresh

    def unsubscribe(self, envelope):
        """Open at the coordinator, remove at the home shard.

        The coordinator turns the client's sealed envelope into the
        plane-sealed removal the home shard checks ownership against
        and the replay log keeps.  If the home shard is dark the partition is recovered first:
        removing from the replacement (and logging the removal) is the
        only way the unsubscribe survives the *next* crash too.
        """
        subscription_id, blob = self.coordinator.ecall(
            "unsubscribe", envelope
        )
        shard = self._home.get(subscription_id)
        if shard is None:
            raise ConfigurationError(
                "no subscription %r in the plane" % subscription_id
            )
        if shard.enclave.destroyed:
            shard = self.recover_shard(shard.shard_id)
        shard.enclave.ecall("remove", blob)
        shard.database_bytes -= DEFAULT_RECORD_BYTES
        del self._home[subscription_id]
        self.fleet.log(shard, ("remove", blob))
        self._tel_unsubscribes.inc()
        return True

    # -- live migration (topology placement only) -----------------------

    def begin_migration(self, shard_id, node_name=None):
        """Stage a live migration of shard ``shard_id``.

        Spawns a replacement enclave on the destination node (chosen by
        the planner unless ``node_name`` pins it) and walks it through
        the full attested DH join, so it holds the plane key before a
        single record moves.  The source keeps serving matches -- the
        plane's membership, residency ledgers, and heartbeat targets
        are untouched until :meth:`complete_migration` cuts over.
        """
        if self.topology is None:
            raise ConfigurationError(
                "live migration needs a topology-placed plane"
            )
        source = self._shard_by_id(shard_id)
        if source.enclave.destroyed:
            raise EnclaveLostError(
                "shard %d is dark; recover it, do not migrate it"
                % shard_id
            )
        source_node = source.node
        if node_name is not None:
            dest = self.topology.node(node_name)
            if not dest.sgx:
                raise SchedulingError(
                    "node %s has no SGX support" % node_name
                )
            if not dest.reachable(self.fleet.now()):
                raise SchedulingError(
                    "node %s is unreachable" % node_name
                )
        else:
            dest = choose_node(
                self.topology, self.fleet.now(), self.name,
                self.epc_node_watermark, exclude=(source_node,),
            )
        if dest is source_node:
            raise SchedulingError(
                "migration needs a destination other than %s"
                % source_node.name
            )
        source_clock_start = source.platform.clock.now
        dest_clock_start = dest.platform.clock.now
        return MigrationTicket(
            shard_id=shard_id, source=source,
            replacement=self.fleet.stage(shard_id, dest),
            source_node=source_node, dest_node=dest,
            source_clock_start=source_clock_start,
            dest_clock_start=dest_clock_start,
        )

    def complete_migration(self, ticket):
        """Cut a staged migration over; returns the migration episode.

        The source evacuates its *entire* forest as one plane-sealed
        batch (``extract_subtrees`` with an everything target), the
        replacement loads it, and partition residency swaps atomically
        (:meth:`repro.plane.ShardFleet.cutover`): enclave, node ledgers,
        detector assignment.  The retired source is destroyed (EPC
        pages EREMOVEd) and the partition immediately re-snapshotted,
        so the next crash replays from the post-migration state.
        Coverage-tracked publish makes the cutover loss-free: a
        publication before the swap is answered by the still-full
        source, one after by the fully loaded replacement.

        If the source died mid-migration the staged replacement is
        abandoned and the shard recovered from its snapshot instead --
        the caller still ends with a serving partition.
        """
        shard_id = ticket.shard_id
        source, replacement = ticket.source, ticket.replacement
        if replacement.enclave.destroyed:
            raise EnclaveLostError(
                "migration destination for shard %d died; begin again"
                % shard_id
            )
        if source.enclave.destroyed:
            replacement.enclave.destroy()
            self.recover_shard(shard_id)
            return {
                "shard_id": shard_id, "completed": False,
                "fallback": "snapshot-recovery",
            }
        moved_ids, batch = source.enclave.ecall(
            "evacuate", _EVACUATE_ALL_BYTES
        )
        replacement.enclave.ecall("load", batch)
        # Swap the partition: same shard id, new machine.
        self.fleet.cutover(source, replacement)
        self.fleet.checkpoint(source)
        migration_cycles = (
            ticket.source_node.platform.clock.now
            - ticket.source_clock_start
        ) + (
            ticket.dest_node.platform.clock.now - ticket.dest_clock_start
        )
        self.migrated += len(moved_ids)
        self._tel_migrations.inc()
        episode = {
            "shard_id": shard_id,
            "completed": True,
            "moved": len(moved_ids),
            "source_node": ticket.source_node.name,
            "dest_node": ticket.dest_node.name,
            "migration_cycles": migration_cycles,
            "migration_seconds": cycles_to_seconds(migration_cycles),
        }
        self.migration_episodes.append(episode)
        return episode

    def relieve_epc_pressure(self, watermark=None):
        """One rebalancing pass: migrate the largest shard off every
        node over its EPC watermark, if an under-watermark destination
        exists.  Returns the completed migration episodes."""
        if self.topology is None:
            raise ConfigurationError(
                "live migration needs a topology-placed plane"
            )
        if watermark is None:
            watermark = self.epc_node_watermark
        episodes = []
        for node in self.topology.sgx_nodes():
            if not node.epc_watermark_exceeded(watermark):
                continue
            local = self.fleet.on_node(node)
            if not local:
                continue
            candidates = [
                other for other
                in self.topology.placement_candidates(
                    self.fleet.now(), exclude=(node,)
                )
                if not other.epc_watermark_exceeded(watermark)
            ]
            if not candidates:
                continue
            heaviest = max(
                local,
                key=lambda sid: self._shard_by_id(sid).database_bytes,
            )
            ticket = self.begin_migration(heaviest)
            episodes.append(self.complete_migration(ticket))
        return episodes

    # -- publication plane ---------------------------------------------

    def _publish_once(self, envelope):
        """One coverage-tracked fan-out; returns ``(routed, missing)``.

        Every member shard is asked -- a dead one raises
        :class:`~repro.errors.EnclaveLostError` instead of answering,
        and the coordinator's finalize reports it missing because its
        authenticated match blob never arrived.
        """
        coordinator_start = self.platform.clock.now
        # The publish root span's duration is *computed* (coordinator
        # cycles plus the slowest shard's cycles -- exactly
        # last_publish_cycles), so reserve its identity now, let the
        # in-enclave spans parent under it across the ECALL boundary,
        # and record it once the latency is known.
        reservation = self.tracer.reserve() if self.tracer.enabled else None
        token, sealed = self.coordinator.ecall(
            "ingest", envelope, trace=reservation
        )
        try:
            return self._match_and_finalize(
                token, sealed, reservation, coordinator_start
            )
        except Exception:
            # Whatever failed, the publication must not stay parked in
            # the coordinator.  A dead coordinator holds nothing.
            with contextlib.suppress(EnclaveLostError):
                self.coordinator.ecall("abandon", token)
            raise

    def _match_and_finalize(self, token, sealed, reservation,
                            coordinator_start):
        """The rest of :meth:`_publish_once`, after ``ingest`` parked
        the publication under ``token``."""
        clock = self.platform.clock

        def match_on(shard):
            if not self.fleet.reachable(shard):
                # The request never crosses the partition; the enclave
                # is alive but its authenticated match blob cannot
                # arrive, so finalize will report it missing.
                return None, 0, 0
            start = shard.platform.clock.now
            try:
                blob, visits = shard.enclave.ecall(
                    "match", sealed, trace=reservation
                )
            except EnclaveLostError:
                return None, 0, shard.platform.clock.now - start
            return blob, visits, shard.platform.clock.now - start

        # Machines match concurrently in the cycle model; shards
        # sharing a platform (several enclaves on one node) charge one
        # shared clock/LLC/EPC, so the critical path is the busiest
        # machine's total, not the slowest single shard.  Matching in
        # ``self.shards`` order keeps same-seed runs byte-identical.
        results = [match_on(shard) for shard in self.shards]
        machine_cycles = {}
        for shard, (_blob, _visits, elapsed) in zip(self.shards, results):
            key = id(shard.platform)
            machine_cycles[key] = machine_cycles.get(key, 0) + elapsed
            self._tel_shard_match.observe(elapsed)
        slowest = max(machine_cycles.values())
        # The coverage wait: how long this publication stayed parked in
        # the coordinator waiting for its slowest partition.
        self._tel_coverage_wait.observe(slowest)
        self.last_visits = sum(visits for _b, visits, _e in results)
        self._tel_visits.inc(self.last_visits)
        routed, missing = self.coordinator.ecall(
            "finalize", token,
            [blob for blob, _v, _e in results if blob is not None],
            trace=reservation,
        )
        self.last_publish_cycles = (
            clock.now - coordinator_start
        ) + slowest
        self.publish_cycles += self.last_publish_cycles
        self.publications_routed += 1
        self._tel_publications.inc()
        self._tel_publish_cycles.observe(self.last_publish_cycles)
        if reservation is not None:
            self.tracer.record_reserved(
                reservation, "scbr.publish", coordinator_start,
                coordinator_start + self.last_publish_cycles,
                shards=len(self.shards), missing=len(missing),
            )
        return routed, tuple(missing)

    def publish_routed(self, envelope):
        """Route a publication; returns (subscriber, envelope) pairs.

        Never a silently smaller match set: if any enrolled partition
        fails to answer, either the missing shards are recovered and
        the publication re-matched until coverage is complete
        (``on_partial="retry"``; exhausting the retry policy raises
        :class:`~repro.errors.RetryExhaustedError`), or a
        :class:`PartialCoverage` naming the dark partitions is returned
        (``on_partial="report"``).
        """
        routed, missing = self._publish_once(envelope)
        if not missing:
            return routed
        self.partial_publishes += 1
        self._tel_partial.inc()
        if self.on_partial == "report":
            return PartialCoverage(routed=routed, missing=missing)

        def heal_and_republish(attempt):
            # Dark means destroyed or (on a topology) live but unreachable.
            self.recover_shards(self.fleet.dark())
            retried, still_missing = self._publish_once(envelope)
            if still_missing:
                raise PartialCoverageError(
                    "publish covered %d/%d partitions"
                    % (len(self.shards) - len(still_missing),
                       len(self.shards)),
                    missing=still_missing,
                )
            return retried

        return retry_call(
            heal_and_republish, PUBLISH_RETRY_POLICY, self.backoff
        )

    def publish(self, envelope):
        """Route a publication; returns the sealed notifications."""
        routed = self.publish_routed(envelope)
        if isinstance(routed, PartialCoverage):
            return routed
        return [notification for _subscriber, notification in routed]

    # -- observability -------------------------------------------------

    def export_telemetry(self):
        """Sealed telemetry blobs from every plane enclave, as
        ``(source, blob)`` pairs.

        The driver cannot open them -- they are AEAD-sealed under the
        telemetry key provisioned at setup; the operator holding that
        key opens them with :func:`repro.telemetry.open_snapshot`.
        Enclaves running without a telemetry key contribute nothing,
        and a dark shard is skipped: its telemetry died with its
        enclave state, exactly like the partition it described.
        """
        blobs = []
        try:
            blob = self.coordinator.ecall("telemetry_export")
        except EnclaveLostError:
            blob = None
        if blob is not None:
            blobs.append(("coordinator", blob))
        for shard in self.shards:
            try:
                blob = shard.enclave.ecall("telemetry_export")
            except EnclaveLostError:
                continue
            if blob is not None:
                blobs.append(("shard-%d" % shard.shard_id, blob))
        return blobs

    def stats(self):
        """Aggregated plane counters (one stats ecall per live shard).

        A dark shard contributes a zeroed row flagged ``down`` -- the
        plane's operational surface stays queryable during an outage.
        """
        per_shard = []
        for shard in self.shards:
            try:
                per_shard.append(shard.enclave.ecall("stats"))
            except EnclaveLostError:
                per_shard.append({
                    "shard_id": shard.shard_id,
                    "subscriptions": 0,
                    "database_bytes": 0,
                    "resident_bytes": 0,
                    "visits_last_match": 0,
                    "version": -1,
                    "down": True,
                })
        stats = {
            "shards": len(per_shard),
            "subscriptions": sum(s["subscriptions"] for s in per_shard),
            "database_bytes": sum(s["database_bytes"] for s in per_shard),
            "max_shard_bytes": max(
                (s["database_bytes"] for s in per_shard), default=0
            ),
            "splits": self.splits,
            "migrated": self.migrated,
            "shard_failures": self.shard_failures,
            "recoveries": len(self.recovery_episodes),
            "snapshots": self.fleet.checkpoints,
            "partial_publishes": self.partial_publishes,
            "per_shard": per_shard,
        }
        if self.topology is not None:
            nodes = self.topology.sgx_nodes()
            stats["nodes"] = {
                "count": len(self.topology),
                "sgx": len(nodes),
                "node_failures": sum(n.crashes for n in self.topology),
                "node_recoveries": len(self.fleet.node_episodes),
                "node_partitions": sum(
                    n.partitions for n in self.topology
                ),
                "migrations": len(self.migration_episodes),
                "shard_spread": self.topology.shard_spread(),
                "epc_utilization": {
                    node.name: node.epc_utilization() for node in nodes
                },
            }
        return stats

    def check_invariants(self):
        """The fleet's leak and ledger audit, the topology's own, and:
        the home map points only at current member shards."""
        self.fleet.check_invariants()
        if self.topology is not None:
            self.topology.check_invariants()
        for subscription_id, shard in self._home.items():
            if self.fleet.members.get(shard.shard_id) is not shard:
                raise ConfigurationError(
                    "subscription %r homed on a retired shard"
                    % (subscription_id,)
                )
        return True
