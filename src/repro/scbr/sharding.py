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
  partitions of the subscription database.

The plane key shared by the coordinator and the shards is provisioned
over a mutually attested, batched Diffie-Hellman exchange
(:mod:`repro.scbr.provisioning`: ``join_offer2`` / ``enroll_batch`` /
``join_complete_batch``): the untrusted plane driver only relays
quotes and wrapped keys, and never sees key material -- unlike the
map/reduce driver, the broker host is part of the threat model.
"""

import json
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import (
    AttestationError,
    ConfigurationError,
    EnclaveLostError,
    IntegrityError,
    PartialCoverageError,
)
from repro.crypto.aead import AeadKey, Ciphertext, SealedBatch
from repro.retry import BackoffClock, RetryPolicy, retry_call
from repro.scbr.health import ShardHealthMonitor
from repro.scbr.index import ContainmentIndex, HOT_BYTES
from repro.scbr.keyexchange import (
    enclave_channel_accept,
    enclave_channel_offer,
)
from repro.scbr.provisioning import (
    CachedAttestationVerifier,
    PlaneProvisioner,
    coord_enroll_batch,
    coord_resume,
    coord_rotate,
    shard_join_complete_batch,
    shard_join_offer2,
    shard_rekey,
    shard_resume_complete,
    shard_resume_offer,
)
from repro.scbr.messages import (
    NotificationSealer,
    deserialize_publication,
    deserialize_subscription,
    serialize_subscription,
)
from repro.scbr.router import (
    SEAL_CYCLES_PER_BYTE,
    SEAL_SETUP_CYCLES,
    SERIALIZE_CYCLES_PER_BYTE,
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

DEFAULT_RECORD_BYTES = 512


class EpcWatermarkPolicy:
    """When must a shard split?  Before its resident set starts paging.

    Two capacity cliffs bound a shard's database (Figure 3 shows both):

    - the *EPC* cliff: once ``database_bytes`` exceeds the usable EPC,
      every matching walk page-faults (~18x);
    - the *LLC* cliff: the matcher touches ``hot_bytes`` per record, so
      once ``count * lines_per_record`` outgrows the LLC, every visit
      is an (MEE-decrypted) cache miss (~4-6x) even while the database
      still fits the EPC.

    ``max_shard_bytes`` is the smaller of the two limits scaled by the
    watermark fraction; a split triggers when the *next* insert would
    cross it, so a shard never reaches the limit.  ``llc_aware=False``
    polices only the paper's EPC boundary.
    """

    def __init__(self, costs=DEFAULT_COSTS, record_bytes=DEFAULT_RECORD_BYTES,
                 hot_bytes=HOT_BYTES, watermark=0.85, llc_aware=True):
        if not 0.0 < watermark <= 1.0:
            raise ConfigurationError("watermark must be in (0, 1]")
        self.costs = costs
        self.record_bytes = record_bytes
        self.watermark = watermark
        self.llc_aware = llc_aware
        limit = watermark * costs.epc_usable
        if llc_aware:
            lines_per_record = max(
                1, -(-hot_bytes // costs.line_size)  # ceil
            )
            llc_records = (costs.llc_capacity // costs.line_size) // lines_per_record
            llc_fit_bytes = llc_records * record_bytes
            limit = min(limit, watermark * llc_fit_bytes)
        self.max_shard_bytes = int(limit)

    def needs_split(self, database_bytes, incoming_bytes=None):
        """Whether admitting ``incoming_bytes`` more would cross the mark."""
        if incoming_bytes is None:
            incoming_bytes = self.record_bytes
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

    @staticmethod
    def choose_node(shard_counts, epc_loads, over_watermark=None):
        """Pick a *node* position for a new shard enclave.

        Placement is a pure function of the per-node shard counts and
        EPC loads, like :meth:`choose` is for subscriptions:

        1. anti-affinity first -- the node hosting the fewest plane
           shards wins, so one machine failure darkens as few
           partitions as possible (and mass recovery has somewhere to
           spread them);
        2. ties break toward the lowest EPC utilisation (the new
           partition will grow; start it where pages are cheapest),
           then toward position.

        ``over_watermark`` (optional per-node flags) demotes nodes
        already past their EPC watermark: they are considered only when
        *every* candidate is over -- a full fleet still beats refusing
        to place at all.
        """
        if not shard_counts or len(shard_counts) != len(epc_loads):
            raise ConfigurationError(
                "shard counts and EPC loads must align, non-empty"
            )
        positions = list(range(len(shard_counts)))
        if over_watermark is not None:
            if len(over_watermark) != len(shard_counts):
                raise ConfigurationError(
                    "watermark flags must align with the candidates"
                )
            under = [
                position for position in positions
                if not over_watermark[position]
            ]
            if under:
                positions = under
        return min(
            positions,
            key=lambda position: (
                shard_counts[position], epc_loads[position], position,
            ),
        )


class MatchingShard:
    """One index-level shard: its own machine (clock, LLC, EPC) + index."""

    def __init__(self, shard_id, index_factory, record_bytes, costs,
                 enclave=True):
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
        self.index = index_factory(memory=self.memory,
                                   record_bytes=record_bytes)

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

    def __init__(self, index_factory=ContainmentIndex,
                 record_bytes=DEFAULT_RECORD_BYTES, costs=DEFAULT_COSTS,
                 policy=None, enclave=True, initial_shards=1):
        if initial_shards < 1:
            raise ConfigurationError("need at least one shard")
        self.index_factory = index_factory
        self.record_bytes = record_bytes
        self.costs = costs
        self.enclave = enclave
        self.policy = policy or EpcWatermarkPolicy(costs, record_bytes)
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
            len(self.shards), self.index_factory, self.record_bytes,
            self.costs, enclave=self.enclave,
        )
        self.shards.append(shard)
        return shard

    def __len__(self):
        return len(self._home)

    @property
    def shard_count(self):
        return len(self.shards)

    @property
    def database_bytes(self):
        """Total database footprint across all shards."""
        return sum(shard.index.database_bytes for shard in self.shards)

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
        if self.policy.needs_split(shard.index.database_bytes,
                                   self.record_bytes):
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


def _open_plane(ctx, blob, aad):
    try:
        return _plane_key(ctx).decrypt(Ciphertext.from_bytes(blob), aad=aad)
    except IntegrityError as exc:
        raise IntegrityError("plane message failed authentication") from exc


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


def shard_setup(ctx, shard_id, record_bytes=DEFAULT_RECORD_BYTES,
                attestation=None, coordinator_measurement=None,
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
    ctx.state["record_bytes"] = record_bytes
    ctx.state["index"] = ContainmentIndex(
        memory=ctx.memory, record_bytes=record_bytes
    )
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
        _open_plane(ctx, blob, _AAD_SUBSCRIPTION)
    )
    ctx.state["index"].insert(subscription)
    ctx.state["owners"][subscription.subscription_id] = subscription.subscriber
    ctx.state["version"] += 1
    return subscription.subscription_id


def shard_covers_root(ctx, blob):
    """ECALL: placement probe -- does a local root cover this filter?"""
    subscription = deserialize_subscription(
        _open_plane(ctx, blob, _AAD_SUBSCRIPTION)
    )
    return ctx.state["index"].covers_any_root(subscription)


def shard_remove(ctx, subscription_id, client_id):
    """ECALL: unsubscribe; only the owning client may remove."""
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
        publication = deserialize_publication(
            _open_plane(ctx, sealed_publication, _AAD_PUBLICATION)
        )
        index = ctx.state["index"]
        matched = index.match(publication)
        owners = ctx.state["owners"]
        pairs = sorted((sid, owners[sid]) for sid in matched)
        payload = json.dumps(
            {"shard": ctx.state["shard_id"], "pairs": pairs}
        ).encode("utf-8")
        ctx.compute(SEAL_SETUP_CYCLES + SEAL_CYCLES_PER_BYTE * len(payload))
        blob = _plane_key(ctx).encrypt(payload, aad=_AAD_MATCHED).to_bytes()
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
    batch = _plane_key(ctx).encrypt_batch(payloads, aad=_AAD_MIGRATE)
    return [s.subscription_id for s in moved], batch.to_bytes()


def shard_load(ctx, blob):
    """ECALL: admit a migrated batch (insertion order preserves chains)."""
    try:
        payloads = _plane_key(ctx).decrypt_batch(
            SealedBatch.from_bytes(blob), aad=_AAD_MIGRATE
        )
    except IntegrityError as exc:
        raise IntegrityError("migration batch failed authentication") from exc
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
    suspicion accrues.  The version lets the host notice a stale
    snapshot without opening anything.
    """
    return {"shard_id": ctx.state["shard_id"], "version": ctx.state["version"]}


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
    total = sum(len(p) for p in payloads)
    ctx.compute(SEAL_SETUP_CYCLES + SEAL_CYCLES_PER_BYTE * total)
    batch = _plane_key(ctx).encrypt_batch(payloads, aad=_AAD_SNAPSHOT)
    return ctx.state["version"], batch.to_bytes()


def shard_restore(ctx, blob, expected_shard_id=None):
    """ECALL: rebuild an *empty* partition from a sealed snapshot.

    Verifies the header: the snapshot must name this shard's partition
    (a host cannot graft another partition's database here) and carry
    exactly the promised record count.  Sets the partition version to
    the snapshot's, so replayed log entries continue the version line.
    """
    try:
        payloads = _plane_key(ctx).decrypt_batch(
            SealedBatch.from_bytes(blob), aad=_AAD_SNAPSHOT
        )
    except IntegrityError as exc:
        raise IntegrityError("shard snapshot failed authentication") from exc
    if not payloads:
        raise IntegrityError("shard snapshot is missing its header")
    header = json.loads(payloads[0].decode("utf-8"))
    if header["shard_id"] != ctx.state["shard_id"]:
        raise IntegrityError(
            "snapshot belongs to shard %r, this is shard %r"
            % (header["shard_id"], ctx.state["shard_id"])
        )
    if expected_shard_id is not None and header["shard_id"] != expected_shard_id:
        raise IntegrityError("snapshot does not match the expected shard")
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
    "rekey": shard_rekey,
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

def _coord_client_key(ctx, client_id):
    key = ctx.state.get("client_keys", {}).get(client_id)
    if key is None:
        raise AttestationError("client %r has not established a key" % client_id)
    return key


def coord_setup(ctx, attestation=None, shard_measurement=None,
                telemetry_key=None):
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
    # Provisioning-plane state (repro.scbr.provisioning): the plane key
    # epoch, the key sealing resumption tickets, the per-platform
    # resumption secrets, and which platform each shard enrolled from.
    ctx.state["plane_epoch"] = 1
    ctx.state["ticket_key"] = AeadKey.generate()
    ctx.state["resumption"] = {}
    ctx.state["shard_platform"] = {}
    if telemetry_key is not None:
        ctx.state["telemetry"] = EnclaveTelemetry(telemetry_key, "coord")
    return True


def coord_admit(ctx, envelope):
    """ECALL: open a client subscription and re-seal it for the plane."""
    key = _coord_client_key(ctx, envelope.sender)
    if envelope.kind != "subscribe":
        raise IntegrityError("expected a subscription envelope")
    payload = envelope.open(key)
    subscription = deserialize_subscription(payload)
    if subscription.subscriber != envelope.sender:
        raise IntegrityError(
            "subscription claims subscriber %r but was sent by %r"
            % (subscription.subscriber, envelope.sender)
        )
    blob = ctx.state["plane_key"].encrypt(
        payload, aad=_AAD_SUBSCRIPTION
    ).to_bytes()
    return subscription.subscription_id, blob


def coord_authorize(ctx, client_id):
    """ECALL: assert the caller holds an attested channel."""
    _coord_client_key(ctx, client_id)
    return True


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
        key = _coord_client_key(ctx, envelope.sender)
        if envelope.kind != "publish":
            raise IntegrityError("expected a publication envelope")
        serialized = envelope.open(key)
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
        ctx.compute(SEAL_SETUP_CYCLES + SEAL_CYCLES_PER_BYTE * len(serialized))
        sealed = ctx.state["plane_key"].encrypt(
            serialized, aad=_AAD_PUBLICATION
        ).to_bytes()
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
        by_subscriber = {}
        answered = set()
        pairs_in = 0
        for blob in match_blobs:
            try:
                payload = plane_key.decrypt(
                    Ciphertext.from_bytes(blob), aad=_AAD_MATCHED
                )
            except IntegrityError as exc:
                raise IntegrityError(
                    "shard match result failed authentication"
                ) from exc
            record = json.loads(payload.decode("utf-8"))
            answered.add(record["shard"])
            for subscription_id, subscriber in record["pairs"]:
                by_subscriber.setdefault(subscriber, []).append(
                    subscription_id
                )
                pairs_in += 1
        missing = sorted(expected - answered)
        sealer = ctx.state["notification_sealer"]
        routed = []
        for subscriber in sorted(by_subscriber):
            envelope = sealer.seal(
                subscriber,
                _coord_client_key(ctx, subscriber),
                serialized,
                by_subscriber[subscriber],
            )
            ctx.compute(
                SEAL_SETUP_CYCLES + SEAL_CYCLES_PER_BYTE * len(envelope.blob)
            )
            routed.append((subscriber, envelope))
        span.attrs["pairs"] = pairs_in
        span.attrs["notifications"] = len(routed)
        registry.counter("scbr.coord.matched_pairs").inc(pairs_in)
        registry.counter("scbr.coord.notifications").inc(len(routed))
    return routed, missing


COORD_ENTRY_POINTS = {
    "setup": coord_setup,
    "channel_offer": enclave_channel_offer,
    "channel_accept": enclave_channel_accept,
    "enroll_batch": coord_enroll_batch,
    "resume": coord_resume,
    "rotate": coord_rotate,
    "admit": coord_admit,
    "authorize": coord_authorize,
    "ingest": coord_ingest,
    "finalize": coord_finalize,
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


class ShardEnclave:
    """Host handle of one shard enclave on its own platform.

    Besides the live enclave, the host keeps the shard's *durability
    state*: the latest plane-sealed snapshot and the mutation log of
    operations applied since (already-sealed blobs the host relayed
    anyway -- it learns nothing new by storing them).  Snapshot + log
    is everything a replacement enclave needs to rebuild the partition.
    """

    def __init__(self, shard_id, platform, enclave):
        self.shard_id = shard_id
        self.platform = platform
        self.enclave = enclave
        self.database_bytes = 0  # host mirror, updated by the router
        self.snapshot = None          # sealed batch (plane key)
        self.snapshot_version = -1    # partition version it captured
        self.log = []                 # mutations since the snapshot
        self.failed_at = None         # virtual onset of the last crash


class ShardedScbrRouter:
    """The untrusted driver of the enclave-level sharded matching plane.

    Presents the :class:`~repro.scbr.router.ScbrRouter` surface
    (``measurement``, ``channel_offer``/``channel_accept``,
    ``subscribe``/``unsubscribe``/``publish``/``publish_routed``/
    ``stats``), so :class:`~repro.scbr.router.ScbrClient` works against
    it unchanged -- clients attest the *coordinator* enclave.

    Virtual-time accounting: the coordinator runs on its platform's
    clock; every shard is a separate machine with its own clock.  A
    publish is ``ingest`` (coordinator) + the *busiest* shard
    machine's match cycles (the host asks shards one after another;
    their concurrency is the separate clocks) + ``finalize``
    (coordinator); the sum lands in :attr:`last_publish_cycles`.

    Fault tolerance: each shard keeps a plane-sealed snapshot plus a
    mutation log (:class:`ShardEnclave`); a crashed shard is respawned
    on a fresh platform from the factory, re-attested, re-joined over
    DH, restored from its snapshot, and the log replayed
    (:meth:`recover_shard`).  Failure *detection* is heartbeat-driven:
    :meth:`probe_heartbeats` pings every shard and feeds a phi-accrual
    :class:`~repro.scbr.health.ShardHealthMonitor`; :meth:`start_health`
    schedules the probing on the simulated clock and auto-recovers on
    detection.  A publish that cannot cover every enrolled partition
    never shrinks silently: ``on_partial="retry"`` (default) heals the
    missing shards and republishes under the retry policy;
    ``on_partial="report"`` returns a :class:`PartialCoverage` naming
    the unanswered partitions.
    """

    name = "scbr-plane"

    def __init__(self, platform, shard_platform_factory,
                 attestation_service, shards=2,
                 record_bytes=DEFAULT_RECORD_BYTES, policy=None,
                 auto_split=True, env=None, chaos=None, orchestrator=None,
                 health_policy=None, snapshot_interval=16,
                 on_partial="retry", retry_policy=None,
                 telemetry_key=None, tracer=None, provisioner=None):
        if shards < 1:
            raise ConfigurationError("need at least one shard")
        if on_partial not in ("retry", "report"):
            raise ConfigurationError(
                "on_partial must be 'retry' or 'report', got %r"
                % (on_partial,)
            )
        if snapshot_interval < 1:
            raise ConfigurationError("snapshot_interval must be >= 1")
        self.platform = platform
        self.shard_platform_factory = shard_platform_factory
        self.attestation_service = attestation_service
        # Enclaves verify quotes through a shared memoizing front: a
        # re-join with an unchanged (platform, measurement, payload,
        # signature) skips the expensive signature check while the
        # policy checks rerun live (see repro.scbr.provisioning).
        if isinstance(attestation_service, CachedAttestationVerifier):
            self.verifier = attestation_service
            self.attestation_service = attestation_service.service
        else:
            self.verifier = CachedAttestationVerifier(attestation_service)
        self.provisioner = (
            provisioner if provisioner is not None
            else PlaneProvisioner(attestation=self.verifier, chaos=chaos)
        )
        self.record_bytes = record_bytes
        self.policy = policy or EpcWatermarkPolicy(
            platform.costs, record_bytes
        )
        self.auto_split = auto_split
        self.env = env
        self.chaos = chaos
        self.orchestrator = orchestrator
        self.snapshot_interval = snapshot_interval
        self.on_partial = on_partial
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=4, base_delay=0.0005
        )
        self.backoff = BackoffClock()
        self.monitor = (
            ShardHealthMonitor(env, health_policy, chaos)
            if env is not None else None
        )
        # Telemetry: the operator's key for sealed in-enclave snapshots
        # (None disables in-enclave recording entirely) and a host-side
        # span recorder for the driver's own clock domain.
        self.telemetry_key = telemetry_key
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
        self._tel_failures = registry.counter("scbr.shard_failures")
        self._tel_recoveries = registry.counter("scbr.recoveries")
        self._tel_recovery_cycles = registry.histogram(
            "scbr.recovery_cycles", buckets=DEFAULT_CYCLE_BUCKETS
        )
        self._tel_splits = registry.counter("scbr.splits")
        self._tel_partial = registry.counter("scbr.partial_publishes")
        self._tel_snapshots = registry.counter("scbr.snapshots")
        self.coordinator = platform.load_enclave(COORD_CODE)
        self.coordinator.ecall(
            "setup", self.verifier, SHARD_CODE.measurement,
            telemetry_key,
        )
        self.shards = []
        self._retired = []
        self._beat_sequence = {}
        self._home = {}
        self.publications_routed = 0
        self.publish_cycles = 0
        self.last_publish_cycles = 0
        self.last_visits = 0
        self.splits = 0
        self.migrated = 0
        self.shard_failures = 0
        self.snapshots_taken = 0
        self.partial_publishes = 0
        self.recovery_episodes = []
        for shard in self._spawn_shard_enclaves_batch(list(range(shards))):
            self.shards.append(shard)
            if self.monitor is not None:
                self.monitor.register(shard.shard_id)
            self._snapshot(shard)

    # -- plane membership ----------------------------------------------

    def _spawn_shard(self):
        """Grow the plane by one shard (a split or initial bring-up)."""
        shard = self._spawn_shard_enclave(len(self.shards))
        self.shards.append(shard)
        if self.monitor is not None:
            self.monitor.register(shard.shard_id)
        self._snapshot(shard)
        return shard

    def _spawn_shard_enclave(self, shard_id):
        """Load a shard enclave on a fresh platform and join it."""
        return self._spawn_shard_enclaves_batch([shard_id])[0]

    def _spawn_shard_enclaves_batch(self, shard_ids):
        """Bring up one enclave per shard id and join them in one round.

        Used for initial bring-up (all shards), growth (one), and mass
        recovery (a dead node's displaced set); either way each enclave
        earns the plane key only through the provisioner's attested
        enrollment -- batched, cache-priced, ticket-resumable
        (:class:`~repro.scbr.provisioning.PlaneProvisioner`).
        """
        shards, _baselines = self._provision_batch(shard_ids)
        return shards

    def _provision_batch(self, shard_ids):
        """Spawn + enroll ``shard_ids``; also return per-machine clock
        baselines (captured before each machine does any join work) so
        recovery can attribute cycle *deltas* even on pooled node
        platforms whose clocks carry history."""
        entries = []
        baselines = {}
        for shard_id in shard_ids:
            platform = self.shard_platform_factory(shard_id)
            baselines.setdefault(id(platform), platform.clock.now)
            # The infrastructure provider registers new machines with
            # the verification service; without this, a shard spawned
            # by a runtime split could never prove its quote.
            self.attestation_service.register_platform(
                platform.platform_id,
                platform.quoting_enclave.public_key,
            )
            enclave = platform.load_enclave(
                SHARD_CODE, name="scbr-shard-%d" % shard_id
            )
            enclave.ecall(
                "setup", shard_id, self.record_bytes,
                self.verifier, COORD_CODE.measurement,
                self.telemetry_key,
            )
            entries.append((shard_id, platform, enclave))
        # The host only relays public DH values, quotes, wrapped keys,
        # sealed blobs, and tickets.
        self.provisioner.join(self.coordinator, self.platform, entries)
        return [
            ShardEnclave(shard_id, platform, enclave)
            for shard_id, platform, enclave in entries
        ], baselines

    def _shard_by_id(self, shard_id):
        for shard in self.shards:
            if shard.shard_id == shard_id:
                return shard
        raise ConfigurationError("no shard %r in the plane" % (shard_id,))

    # -- durability -----------------------------------------------------

    def _snapshot(self, shard):
        """Refresh ``shard``'s sealed snapshot; the log starts over."""
        version, blob = shard.enclave.ecall("snapshot")
        shard.snapshot = blob
        shard.snapshot_version = version
        shard.log = []
        self.snapshots_taken += 1
        self._tel_snapshots.inc()
        return version

    def _log_mutation(self, shard, entry):
        """Append one mutation to the shard's replay log.

        Entries hold the already-plane-sealed blobs the host relayed
        anyway; once the log reaches ``snapshot_interval`` the shard is
        re-snapshotted and the log truncated, bounding replay work.
        """
        shard.log.append(entry)
        if len(shard.log) >= self.snapshot_interval:
            self._snapshot(shard)

    # -- failure, detection, recovery -----------------------------------

    def fail_shard(self, shard_id):
        """Kill one shard enclave (the chaos/fault-schedule hook).

        The partition goes dark: its enclave state is unreachable, its
        EPC pages and cache lines are reclaimed by the dying enclave's
        teardown, and subsequent ecalls raise
        :class:`~repro.errors.EnclaveLostError`.  Recovery is a
        separate, explicit act (:meth:`recover_shard` or the health
        loop).  Returns False if the shard was already dead.
        """
        shard = self._shard_by_id(shard_id)
        if shard.enclave.destroyed:
            return False
        shard.failed_at = self.env.now if self.env is not None else None
        shard.enclave.destroy()
        self.shard_failures += 1
        self._tel_failures.inc()
        if self.monitor is not None:
            self.monitor.record_onset(shard_id, shard.failed_at)
        return True

    def recover_shard(self, shard_id):
        """Respawn a dead shard from its sealed snapshot + mutation log.

        The replacement runs on a *fresh* platform from the factory: it
        re-registers with the attestation service, re-joins the plane
        over attested DH (earning the plane key), restores the last
        snapshot, and replays the logged mutations -- so the rebuilt
        partition is byte-for-byte the pre-crash database.  The old
        enclave is destroyed unconditionally first: a false-positive
        detection (heartbeats lost from a live shard) then degrades to
        an unnecessary but harmless respawn instead of a split-brain
        partition.

        Recovery work happens "now" in simulated time (the environment
        clock does not advance inside a callback), so its latency is
        measured in enclave cycles: the replacement platform's clock
        (fresh, starts at zero) plus the coordinator cycles spent on
        the re-join, converted to virtual seconds.
        """
        return self.recover_shards([shard_id])[0]

    def recover_shards(self, shard_ids):
        """Respawn a *set* of dead shards in one provisioning round.

        The whole displaced set re-attests through ONE batched
        enrollment (or ticket resumptions) instead of per-shard serial
        handshakes -- the coordinator signs one quote over a commitment
        to every offered DH value.  Restore and replay stay per-shard.

        Virtual-time attribution: each shard is charged its own
        platform's cycle *delta* (shards sharing a machine split their
        group's delta) plus an equal slice of the coordinator's delta
        -- the batched round's cost amortizes across the set, which is
        the point.
        """
        shard_ids = list(shard_ids)
        if not shard_ids:
            return []
        olds = {}
        for shard_id in shard_ids:
            old = self._shard_by_id(shard_id)
            old.enclave.destroy()  # idempotent; see recover_shard
            olds[shard_id] = old
        coordinator_clock = self.platform.clock
        coordinator_start = coordinator_clock.now
        spawned, baselines = self._provision_batch(shard_ids)
        replacements = dict(zip(shard_ids, spawned))
        # Group shards by machine: a node may host several of them, and
        # they split their machine's cycle delta.
        platform_groups = {}
        for shard_id in shard_ids:
            platform = replacements[shard_id].platform
            platform_groups.setdefault(id(platform), []).append(shard_id)
        details = {}
        for shard_id in shard_ids:
            old = olds[shard_id]
            replacement = replacements[shard_id]
            restored = 0
            if old.snapshot is not None:
                restored = replacement.enclave.ecall(
                    "restore", old.snapshot, shard_id
                )
            replayed = 0
            for entry in old.log:
                if entry[0] == "insert":
                    replacement.enclave.ecall("insert", entry[1])
                elif entry[0] == "remove":
                    replacement.enclave.ecall("remove", entry[1], entry[2])
                else:
                    raise ConfigurationError(
                        "unknown log entry kind %r" % (entry[0],)
                    )
                replayed += 1
            replacement.database_bytes = old.database_bytes
            self.shards[self.shards.index(old)] = replacement
            self._retired.append(old)
            for subscription_id, home in list(self._home.items()):
                if home is old:
                    self._home[subscription_id] = replacement
            # Consolidate: the replacement snapshots its rebuilt
            # partition, so the next crash replays from here, not from
            # the old log.
            self._snapshot(replacement)
            details[shard_id] = (restored, replayed)
        coordinator_delta = coordinator_clock.now - coordinator_start
        coordinator_share = coordinator_delta // len(shard_ids)
        coordinator_rem = coordinator_delta - coordinator_share * len(
            shard_ids
        )
        shard_cycles = {}
        for group in platform_groups.values():
            platform = replacements[group[0]].platform
            delta = platform.clock.now - baselines[id(platform)]
            if platform.clock is coordinator_clock:
                # A shard co-located with the coordinator: its cycles
                # are already in the coordinator delta.
                delta = 0
            share = delta // len(group)
            remainder = delta - share * len(group)
            for position, shard_id in enumerate(group):
                shard_cycles[shard_id] = share + (
                    remainder if position == 0 else 0
                )
        results = []
        for position, shard_id in enumerate(shard_ids):
            old = olds[shard_id]
            replacement = replacements[shard_id]
            restored, replayed = details[shard_id]
            recovery_cycles = shard_cycles[shard_id] + coordinator_share + (
                coordinator_rem if position == 0 else 0
            )
            recovery_seconds = cycles_to_seconds(recovery_cycles)
            self._tel_recoveries.inc()
            self._tel_recovery_cycles.observe(recovery_cycles)
            self.tracer.record(
                "scbr.recover", coordinator_start,
                coordinator_start + recovery_cycles,
                shard=shard_id, restored=restored, replayed=replayed,
            )
            episode = {
                "shard_id": shard_id,
                "onset": old.failed_at,
                "restored": restored,
                "replayed": replayed,
                "recovery_cycles": recovery_cycles,
                "recovery_seconds": recovery_seconds,
            }
            self.recovery_episodes.append(episode)
            if self.monitor is not None:
                self.monitor.register(shard_id)
            if self.orchestrator is not None:
                self.orchestrator.report_recovery(
                    "%s/shard-%d" % (self.name, shard_id),
                    "shard-recovery",
                    recovery_seconds,
                    onset=old.failed_at,
                )
            results.append(replacement)
        return results

    def probe_heartbeats(self):
        """One heartbeat round: ping every shard, feed the detector.

        A dead enclave fails the ping; chaos may eat a live shard's
        beat (``heartbeat_loss_rate``).  Returns the shards the monitor
        *newly* declares down this round.
        """
        if self.monitor is None:
            raise ConfigurationError(
                "heartbeat probing needs an Environment (env=...)"
            )
        for shard in list(self.shards):
            beat = self._beat_sequence.get(shard.shard_id, 0)
            self._beat_sequence[shard.shard_id] = beat + 1
            try:
                shard.enclave.ecall("ping")
            except EnclaveLostError:
                continue
            if not self._shard_reachable(shard):
                # Alive behind a partition: the probe (and hence the
                # beat) never crosses, so suspicion accrues exactly as
                # for a dead shard -- the detector cannot tell them
                # apart, and conservative recovery handles both.
                continue
            if self.chaos is not None and self.chaos.drops_heartbeat(
                shard.shard_id, beat
            ):
                continue
            self.monitor.beat(shard.shard_id)
        down = self.monitor.poll()
        if self.orchestrator is not None:
            for shard_id in down:
                self.orchestrator.report_anomaly(
                    "%s/shard-%d" % (self.name, shard_id),
                    "shard-liveness",
                    onset=self._shard_by_id(shard_id).failed_at,
                )
        return down

    def start_health(self, duration, auto_recover=True):
        """Schedule heartbeat probing every monitor period until
        ``duration``; newly detected-down shards are recovered in place
        when ``auto_recover`` (the paper's orchestration loop: detect,
        then adapt the infrastructure)."""
        if self.monitor is None:
            raise ConfigurationError(
                "the health loop needs an Environment (env=...)"
            )
        period = self.monitor.policy.heartbeat_period

        def tick():
            for shard_id in self.probe_heartbeats():
                if auto_recover:
                    self.recover_shard(shard_id)

        beats = int(duration / period)
        for index in range(1, beats + 1):
            self.env.call_at(self.env.now + index * period, tick)
        return beats

    @property
    def measurement(self):
        """The coordinator's measurement (what clients pin)."""
        return self.coordinator.measurement

    @property
    def shard_count(self):
        return len(self.shards)

    def channel_offer(self, client_id):
        offer = self.coordinator.ecall("channel_offer", client_id)
        quote = self.platform.quoting_enclave.quote(offer["report"])
        return {"dh_public": offer["dh_public"], "quote": quote}

    def channel_accept(self, client_id, client_public):
        return self.coordinator.ecall(
            "channel_accept", client_id, client_public
        )

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
        if self.auto_split and self.policy.needs_split(
            shard.database_bytes, self.record_bytes
        ):
            self._split(shard)
            shard = self._place(blob)
        shard.enclave.ecall("insert", blob)
        shard.database_bytes += self.record_bytes
        self._home[subscription_id] = shard
        self._log_mutation(shard, ("insert", blob))
        self._tel_subscribes.inc()
        return subscription_id

    def rotate_plane_key(self):
        """Roll the plane to a new key epoch.

        The coordinator mints a fresh plane key (and ticket key), every
        live shard rolls forward via a rekey blob wrapped under the
        *old* plane key -- no re-attestation -- and every outstanding
        resumption ticket is invalidated: the next re-join from a
        pre-rotation ticket falls back to the full attested handshake.
        Dark shards are healed first (their replacements join directly
        into the new epoch on the next heal would otherwise hold the
        old key), and every shard is re-snapshotted afterwards because
        snapshots sealed under the retired key cannot restore into the
        new epoch.  Returns the new epoch number.
        """
        self._heal_dark_shards()
        epoch = self.provisioner.rotate(self.coordinator, self.shards)
        for shard in self.shards:
            self._snapshot(shard)
        return epoch

    def _shard_reachable(self, shard):
        """Whether the host can currently talk to ``shard``.

        The nodeless base plane always can (a shard is either live or
        destroyed); node-bound planes override this to model network
        partitions -- a partitioned shard's enclave keeps running, but
        no match request or heartbeat crosses until the partition
        heals.
        """
        return True

    def _live_shards(self):
        return [
            s for s in self.shards
            if not s.enclave.destroyed and self._shard_reachable(s)
        ]

    def _place(self, blob):
        live = self._live_shards()
        if not live:
            # Total darkness: heal the plane before admitting state.
            self.recover_shards([shard.shard_id for shard in self.shards])
            live = self._live_shards()
        flags = [shard.enclave.ecall("covers_root", blob) for shard in live]
        loads = [shard.database_bytes for shard in live]
        return live[ShardPlanner.choose(flags, loads)]

    def _split(self, shard):
        """Rebalance: evacuate half of ``shard`` onto a fresh shard.

        A split rewrites both partitions outside the insert/remove log
        vocabulary, so both sides are re-snapshotted immediately -- the
        replay logs restart from the post-split state.
        """
        fresh = self._spawn_shard()
        target = self.policy.split_target_bytes(shard.database_bytes)
        moved_ids, batch = shard.enclave.ecall("evacuate", target)
        fresh.enclave.ecall("load", batch)
        moved_bytes = len(moved_ids) * self.record_bytes
        shard.database_bytes -= moved_bytes
        fresh.database_bytes += moved_bytes
        for subscription_id in moved_ids:
            self._home[subscription_id] = fresh
        self.splits += 1
        self.migrated += len(moved_ids)
        self._tel_splits.inc()
        self._snapshot(shard)
        self._snapshot(fresh)
        return fresh

    def unsubscribe(self, client_id, subscription_id):
        """Authorise at the coordinator, remove at the home shard.

        If the home shard is dark the partition is recovered first:
        removing from the replacement (and logging the removal) is the
        only way the unsubscribe survives the *next* crash too.
        """
        self.coordinator.ecall("authorize", client_id)
        shard = self._home.get(subscription_id)
        if shard is None:
            raise ConfigurationError(
                "no subscription %r in the plane" % subscription_id
            )
        if shard.enclave.destroyed:
            shard = self.recover_shard(shard.shard_id)
        shard.enclave.ecall("remove", subscription_id, client_id)
        shard.database_bytes -= self.record_bytes
        del self._home[subscription_id]
        self._log_mutation(shard, ("remove", subscription_id, client_id))
        self._tel_unsubscribes.inc()
        return True

    # -- publication plane ---------------------------------------------

    def _publish_once(self, envelope):
        """One coverage-tracked fan-out; returns ``(routed, missing)``.

        Every member shard is asked -- a dead one raises
        :class:`~repro.errors.EnclaveLostError` instead of answering,
        and the coordinator's finalize reports it missing because its
        authenticated match blob never arrived.
        """
        clock = self.platform.clock
        coordinator_start = clock.now
        # The publish root span's duration is *computed* (coordinator
        # cycles plus the slowest shard's cycles -- exactly
        # last_publish_cycles), so reserve its identity now, let the
        # in-enclave spans parent under it across the ECALL boundary,
        # and record it once the latency is known.
        reservation = self.tracer.reserve() if self.tracer.enabled else None
        token, sealed = self.coordinator.ecall(
            "ingest", envelope, trace=reservation
        )

        def match_on(shard):
            if not self._shard_reachable(shard):
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
            self._heal_dark_shards()
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
            heal_and_republish, self.retry_policy, self.backoff
        )

    def _heal_dark_shards(self):
        """Recover every partition that cannot answer a publish.

        In the base plane "dark" means destroyed.  Node-bound planes
        widen this to unreachable-but-live shards: a partitioned
        partition is conservatively respawned on a reachable node (the
        same harmless-false-positive degradation as the phi detector's)
        rather than stalling coverage until the partition heals.
        """
        dark = [
            shard.shard_id for shard in self.shards
            if shard.enclave.destroyed
        ]
        if dark:
            self.recover_shards(dark)

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
        return {
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
            "snapshots": self.snapshots_taken,
            "partial_publishes": self.partial_publishes,
            "per_shard": per_shard,
        }

    def recovery_latencies(self):
        """Virtual seconds each recovery episode took to heal."""
        return [e["recovery_seconds"] for e in self.recovery_episodes]

    def check_invariants(self):
        """Leak and consistency audit across the whole plane.

        - every retired enclave (dead and replaced) released its memory:
          zero resident bytes and nothing left under its name in its
          platform's shared EPC;
        - global resident bytes equal the sum over *live* shard
          enclaves -- dead state contributes nothing;
        - the home map points only at current member shards.
        """
        live_bytes = 0
        for shard in self.shards:
            memory = shard.enclave.memory
            if shard.enclave.destroyed:
                if memory.resident_bytes or not memory.released:
                    raise ConfigurationError(
                        "dead shard %d still holds %d resident bytes"
                        % (shard.shard_id, memory.resident_bytes)
                    )
            else:
                live_bytes += memory.resident_bytes
        total_bytes = live_bytes
        for old in self._retired:
            memory = old.enclave.memory
            total_bytes += memory.resident_bytes
            if memory.resident_bytes or not memory.released:
                raise ConfigurationError(
                    "retired shard %d leaked %d resident bytes"
                    % (old.shard_id, memory.resident_bytes)
                )
            if memory.epc is not None:
                for key in memory.epc.resident_page_keys():
                    if key[0] == memory.name:
                        raise ConfigurationError(
                            "retired shard %d left EPC page %r resident"
                            % (old.shard_id, key)
                        )
        if total_bytes != live_bytes:
            raise ConfigurationError(
                "plane resident bytes %d != live shard bytes %d"
                % (total_bytes, live_bytes)
            )
        for subscription_id, shard in self._home.items():
            if shard not in self.shards:
                raise ConfigurationError(
                    "subscription %r homed on a retired shard"
                    % (subscription_id,)
                )
        return True
