"""The self-stabilising sealed streaming plane.

:class:`SecureStreamPlane` runs event-time window operators over an
encrypted meter firehose, on ingest shards bound to cluster nodes
(``repro.cluster``), with plane keys provisioned through the attested
provisioning plane (``repro.scbr.provisioning``: batched enrollment on
bring-up, resumption tickets on every re-join).  Four robustness
mechanisms keep it correct and live under overload and churn:

**Credit-based backpressure.**  Every shard has a bounded host-side
queue; its free slots are the credits sources spend to release sealed
batches.  When a queue fills, credits hit zero and the *source*
throttles (readings wait in the field), so enclave memory is never the
overflow buffer.  The watermark punctuation is the minimum
released-through time across sources, so throttling also holds windows
open -- a reading delayed by backpressure can never be judged late.

**Explicit load shedding.**  Past the per-shard pane budget, the
deterministic shed policy (oldest pane of the biggest tenant) drops
whole panes; every shed record increments the enclave's sealed counter
and a tombstone firing carrying the dropped count is emitted when the
window closes.  Degradation is graceful and visible, never silent.

**Exactly-once window emission.**  Shards checkpoint pane state as
plane-key-sealed blobs every ``checkpoint_interval`` queue entries; the
host keeps the (ciphertext) entries since the last checkpoint as a
replay log.  Recovery = respawn (ticket re-join) + restore + replay --
the shared shard life cycle of :class:`repro.plane.ShardFleet`.
Replay re-closes windows already committed before the crash; the
committer dedupes on the deterministic firing id, so a crash mid-window
yields neither duplicate nor lost firings -- validated against a pure
python oracle in tests and the E9 benchmark.

**Watermark-driven auto-scaling.**  When a shard's queue depth or its
node's EPC-resident gauge trips the split watermark, its key range
splits at the midpoint onto a freshly attested shard: drain, sealed
extract/load handoff, checkpoint on both sides, then an atomic routing
cutover.  When load drains (both siblings idle for ``merge_idle_rounds``
rounds) ranges merge back and the spare shard retires, its sealed
counters riding the handoff so accounting stays exact.

The plane exposes ``fail_shard`` / ``fail_node`` / ``name``, so
:class:`~repro.chaos.injector.FaultSchedule` can crash it on the
virtual clock like any other plane.
"""

from collections import deque

from repro.errors import (
    CapacityError,
    ConfigurationError,
    EnclaveLostError,
)
from repro.plane import ShardFleet, ShardMember
from repro.scbr.provisioning import PlaneProvisioner
from repro.sgx.attestation import AttestationService
from repro.sgx.platform import SgxPlatform
from repro.crypto.aead import AeadKey
from repro.streams.routing import RoutingTable
from repro.streams.shards import STREAM_COORD_CODE, STREAM_SHARD_CODE
from repro.telemetry import default_registry

DEFAULT_NODE_EPC_WATERMARK = 0.8


class StreamConfig:
    """Tunables of one stream plane (all deterministic)."""

    def __init__(self, window=None, queue_bound=8, pane_budget=None,
                 checkpoint_interval=4, service_rate=2,
                 round_interval=30.0, split_queue_watermark=None,
                 epc_split_watermark=None, merge_idle_rounds=3,
                 max_shards=8, batch_records=32):
        if queue_bound < 1:
            raise ConfigurationError("queue bound must be at least 1")
        if checkpoint_interval < 1:
            raise ConfigurationError(
                "checkpoint interval must be at least 1"
            )
        if service_rate < 1:
            raise ConfigurationError("service rate must be at least 1")
        self.window = dict(window or {"kind": "tumbling", "size": 60.0,
                                      "lateness": 30.0})
        self.queue_bound = queue_bound
        self.pane_budget = pane_budget
        self.checkpoint_interval = checkpoint_interval
        self.service_rate = service_rate
        self.round_interval = round_interval
        self.split_queue_watermark = split_queue_watermark
        self.epc_split_watermark = epc_split_watermark
        self.merge_idle_rounds = merge_idle_rounds
        self.max_shards = max_shards
        self.batch_records = batch_records


class _ShardRuntime(ShardMember):
    """A plane member plus the ingest shard's host-side queue."""

    def __init__(self, shard_id):
        super().__init__(shard_id)
        self.queue = deque()        # ("batch", header, blob) | ("punct", t)
        self.idle_rounds = 0
        self.last_open_panes = 0

    @property
    def queue_depth(self):
        """Batches waiting (punctuations are control, not load)."""
        return sum(1 for entry in self.queue if entry[0] == "batch")

    def queued_records(self):
        return sum(
            entry[1]["count"] for entry in self.queue
            if entry[0] == "batch"
        )


class SecureStreamPlane:
    """A sealed, self-stabilising event-time streaming plane."""

    def __init__(self, topology, config=None, shards=2, seed=0,
                 name="stream-plane", env=None, chaos=None,
                 telemetry_key=None):
        self.topology = topology
        self.config = config or StreamConfig()
        self.name = name
        self.env = env
        self.chaos = chaos
        self.telemetry_key = telemetry_key
        self._vnow = 0.0
        self._rounds = 0
        self._ops = 0            # monotonic op index for chaos draws
        self._base_shard_count = shards
        self._next_shard_id = shards
        self._last_punctuation = float("-inf")
        self._counter_seen = {}  # shard -> (shed, late) already exported

        # Exactly-once committer: firing id -> sealed blob, plus the
        # virtual commit time (for end-to-end latency).
        self.committed = {}
        self.commit_times = {}
        self.duplicates_suppressed = 0
        self.node_failures = 0
        self.splits = 0
        self.merges = 0
        self.throttled_rounds = 0

        registry = default_registry()
        self._tel_committed = registry.counter("streams.committed_firings")
        self._tel_duplicates = registry.counter(
            "streams.duplicates_suppressed"
        )
        self._tel_splits = registry.counter("streams.splits")
        self._tel_merges = registry.counter("streams.merges")
        self._tel_shed = registry.counter("streams.shed_records")
        self._tel_late = registry.counter("streams.late_records")
        self._registry = registry
        self._depth_gauges = {}

        # Attestation domain: one service verifies every join and
        # re-join the provisioner (batched enrollment + resumption
        # tickets) drives.  The coordinator platform registers here,
        # each shard's node when the fleet places a shard on it.
        self.coordinator_platform = SgxPlatform(
            seed=seed, quoting_key_bits=512
        )
        self.service = AttestationService()
        self.service.register_platform(
            self.coordinator_platform.platform_id,
            self.coordinator_platform.quoting_enclave.public_key,
        )
        self.provisioner = PlaneProvisioner(chaos=chaos)
        self.coordinator = self.coordinator_platform.load_enclave(
            STREAM_COORD_CODE, name="%s-coord" % name
        )
        self.ingest_key_bytes = AeadKey.generate().key_bytes
        self.coordinator.ecall(
            "setup", self.ingest_key_bytes, self.service,
            STREAM_SHARD_CODE.measurement,
            telemetry_key,
        )

        self.table = RoutingTable.even(range(shards))
        self._staged_ranges = {}   # shard -> range, until routing cutover
        self.fleet = ShardFleet(
            name, "streams", STREAM_SHARD_CODE, self.coordinator,
            self.coordinator_platform, self.provisioner, self.service,
            setup_args=lambda shard_id: (
                shard_id, self.config.window,
                (self._staged_ranges.get(shard_id)
                 or self.table.range_of(shard_id)).to_json(),
                self.config.pane_budget, self.service,
                STREAM_COORD_CODE.measurement, telemetry_key,
            ),
            snapshot=lambda runtime: runtime.enclave.ecall(
                "checkpoint"
            )["blob"],
            restore=self._restore, replay=self._replay,
            interval=self.config.checkpoint_interval,
            topology=topology, watermark=DEFAULT_NODE_EPC_WATERMARK,
            member=_ShardRuntime, now=self._now, chaos=chaos,
        )
        self.shards = self.fleet.members
        # ONE batched enrollment round brings the whole plane up.
        self._spawn(self.table.shard_ids())

    # -- time -----------------------------------------------------------

    def _now(self):
        if self.env is not None:
            return self.env.now
        return self._vnow

    # -- spawning -------------------------------------------------------

    def _spawn(self, shard_ids):
        """Spawn + join through the fleet, then the stream plane's
        post-join step: every new shard gets the ingest key."""
        for runtime in self.fleet.spawn(list(shard_ids)):
            self._depth_gauges[runtime.shard_id] = self._registry.gauge(
                "streams.queue_depth", shard=runtime.shard_id
            )
            self._install_ingest_key(runtime)

    def _install_ingest_key(self, runtime):
        wrapped = self.coordinator.ecall("wrap_ingest_key", runtime.shard_id)
        runtime.enclave.ecall("install_ingest_key", wrapped)

    # -- routing and credits (the source-facing surface) ---------------

    def owner_of(self, key):
        return self.table.owner(key)

    def credits(self, shard_id):
        """Free queue slots at ``shard_id`` -- the upstream credit."""
        return self.config.queue_bound - self.shards[shard_id].queue_depth

    def enqueue(self, shard_id, header, blob):
        """Accept one sealed batch; full queues fail closed (transient).

        Sources check :meth:`credits` first; the bound here is defence
        in depth -- nothing can overfill a queue, credit protocol or
        not.
        """
        runtime = self.shards[shard_id]
        if runtime.queue_depth >= self.config.queue_bound:
            raise CapacityError(
                "shard %d queue is full (%d batches)"
                % (shard_id, runtime.queue_depth)
            )
        runtime.queue.append(("batch", header, blob))

    # -- the committer (exactly-once boundary) --------------------------

    def _commit(self, firings):
        for firing_id, blob in firings:
            if firing_id in self.committed:
                self.duplicates_suppressed += 1
                self._tel_duplicates.inc()
                continue
            self.committed[firing_id] = blob
            self.commit_times[firing_id] = self._now()
            self._tel_committed.inc()

    def open_firings(self):
        """Open every committed firing via the egress coordinator.

        Returns frames (dicts) with ``commit_time`` attached, ordered
        by window coordinates -- the shape tests compare to the oracle.
        """
        frames = []
        for firing_id in self.committed:
            frame = self.coordinator.ecall(
                "open_firing", firing_id, self.committed[firing_id]
            )
            frame["commit_time"] = self.commit_times[firing_id]
            frames.append(frame)
        frames.sort(
            key=lambda f: (f["window_start"], str(f["key"]), f["kind"])
        )
        return frames

    # -- fault hooks (FaultSchedule-compatible) -------------------------

    @property
    def shard_crashes(self):
        return self.fleet.failures

    @property
    def recoveries(self):
        return len(self.fleet.episodes)

    @property
    def recovery_episodes(self):
        """Virtual ms each recovery took."""
        return [
            episode["recovery_seconds"] * 1e3
            for episode in self.fleet.episodes
        ]

    def fail_shard(self, shard_id):
        """Crash one shard enclave (chaos hook).  Detection happens on
        the next service touch; recovery restores + replays."""
        return self.fleet.fail(shard_id)

    def fail_node(self, node_name):
        """Machine failure: every stream shard on the node goes dark."""
        node = self.topology.node(node_name)
        dark = self.fleet.on_node(node)
        node.crash()
        self.node_failures += 1
        return dark

    def recover_shard(self, shard_id):
        """Respawn + ticket re-join + sealed restore + replay."""
        self.fleet.recover([shard_id])

    def _restore(self, runtime):
        self._install_ingest_key(runtime)
        if runtime.snapshot is None:
            return 0    # crashed before its first checkpoint: log only
        return runtime.enclave.ecall("restore", runtime.snapshot)

    def _replay(self, runtime):
        for entry in runtime.log:
            self._commit(self._apply(runtime, entry)["firings"])
        return len(runtime.log)

    # -- the service loop -----------------------------------------------

    def _apply(self, runtime, entry):
        if entry[0] == "batch":
            return runtime.enclave.ecall("ingest", entry[1], entry[2])
        if entry[0] == "punct":
            return runtime.enclave.ecall("punctuate", entry[1])
        if entry[0] == "flush":
            return runtime.enclave.ecall("flush")
        raise ConfigurationError("unknown queue entry %r" % (entry[0],))

    def _export_counters(self, shard_id, result):
        """Mirror per-shard sealed counters onto plane-level telemetry.

        Counters are inc-only; each shard exports the delta since its
        last export.  Replay restores a shard to the same cumulative
        value, so recovery never re-exports; handoffs fold the donor's
        seen mark into the recipient's (see :meth:`merge_shards`).
        """
        seen_shed, seen_late = self._counter_seen.get(shard_id, (0, 0))
        shed, late = result["shed_records"], result["late_records"]
        if shed > seen_shed:
            self._tel_shed.inc(shed - seen_shed)
        if late > seen_late:
            self._tel_late.inc(late - seen_late)
        self._counter_seen[shard_id] = (
            max(shed, seen_shed), max(late, seen_late)
        )

    def _service_entry(self, runtime, entry):
        """Apply one entry with crash detection; True when applied."""
        try:
            result = self._apply(runtime, entry)
        except EnclaveLostError:
            self.recover_shard(runtime.shard_id)
            return False
        self._commit(result["firings"])
        self._export_counters(runtime.shard_id, result)
        runtime.last_open_panes = result["open_panes"]
        self.fleet.log(runtime, entry)
        return True

    def _service_shard(self, shard_id, budget=None):
        """Process up to ``budget`` queue entries (None = drain)."""
        steps = 0
        while True:
            runtime = self.shards[shard_id]
            if runtime.enclave.destroyed:
                self.recover_shard(shard_id)
                continue
            if budget is not None and steps >= budget:
                break
            if not runtime.queue:
                break
            self._ops += 1
            if self.chaos is not None and self.chaos.crashes_shard(
                    shard_id, self._ops):
                self.fail_shard(shard_id)
                continue
            entry = runtime.queue[0]
            if self._service_entry(runtime, entry):
                self.shards[shard_id].queue.popleft()
                steps += 1

    def pump(self, sources):
        """One scheduling round: release, punctuate, service, autoscale.

        Returns the records released this round.  Chaos-scheduled
        faults fire between rounds (drive the :class:`Environment`
        forward before calling); probabilistic shard crashes draw at
        every service step.
        """
        if self.env is None:
            self._vnow += self.config.round_interval
        self._rounds += 1
        if self.chaos is not None:
            hosting = sorted({
                self.shards[shard_id].node.name
                for shard_id in self.table.shard_ids()
                if self.shards[shard_id].node.alive
            })
            for node_name in hosting:
                if self.chaos.crashes_node(node_name, self._rounds):
                    self.fail_node(node_name)
        released = 0
        for source in sources:
            released += source.release(self)
        if any(source.backlog for source in sources):
            self.throttled_rounds += 1
        if sources:
            watermark = min(
                source.released_through for source in sources
            )
            if watermark > self._last_punctuation:
                self._last_punctuation = watermark
                for shard_id in self.table.shard_ids():
                    self.shards[shard_id].queue.append(
                        ("punct", watermark)
                    )
        for shard_id in self.table.shard_ids():
            self._service_shard(shard_id, budget=self.config.service_rate)
        self.maybe_autoscale()
        for shard_id in self.table.shard_ids():
            self._depth_gauges[shard_id].set(
                self.shards[shard_id].queue_depth
            )
        return released

    def drain(self, sources, max_rounds=10_000):
        """Pump until every backlog and queue is empty, then flush.

        The final flush closes windows still inside the lateness slack;
        it rides the replay log like any other entry, so a crash after
        flush still recovers exactly-once.
        """
        rounds = 0
        while any(source.backlog for source in sources) or any(
            self.shards[shard_id].queue
            for shard_id in self.table.shard_ids()
        ):
            rounds += 1
            if rounds > max_rounds:
                raise CapacityError(
                    "plane failed to drain within %d rounds" % max_rounds
                )
            if self.env is not None:
                self.env.run(
                    until=self.env.now + self.config.round_interval
                )
            self.pump(sources)
        for shard_id in self.table.shard_ids():
            runtime = self.shards[shard_id]
            runtime.queue.append(("flush", None))
            self._service_shard(shard_id)
        return rounds

    # -- watermark-driven auto-scaling ----------------------------------

    def _split_trigger(self, shard_id):
        config = self.config
        runtime = self.shards[shard_id]
        if config.split_queue_watermark is not None and (
                runtime.queue_depth >= config.split_queue_watermark):
            return True
        if config.epc_split_watermark is not None and (
                runtime.node.epc_watermark_exceeded(
                    config.epc_split_watermark)):
            return True
        return False

    def maybe_autoscale(self):
        """Split hot shards; merge adjacent idle siblings back."""
        for shard_id in self.table.shard_ids():
            if len(self.shards) >= self.config.max_shards:
                break
            if not self._split_trigger(shard_id):
                continue
            if self.table.range_of(shard_id).width < 2:
                continue
            self.split_shard(shard_id)
        if len(self.shards) > max(1, self._base_shard_count):
            for shard_id in self.table.shard_ids():
                runtime = self.shards.get(shard_id)
                if runtime is None:
                    continue
                if runtime.queue or runtime.last_open_panes:
                    runtime.idle_rounds = 0
                else:
                    runtime.idle_rounds += 1
            self._maybe_merge()

    def _maybe_merge(self):
        for shard_id in self.table.shard_ids():
            if len(self.shards) <= max(1, self._base_shard_count):
                return
            runtime = self.shards.get(shard_id)
            if runtime is None:
                continue
            if runtime.idle_rounds < self.config.merge_idle_rounds:
                continue
            neighbour = self.table.neighbour(shard_id)
            if neighbour is None:
                continue
            partner = self.shards[neighbour]
            if partner.idle_rounds < self.config.merge_idle_rounds:
                continue
            into, retired = sorted((shard_id, neighbour))
            self.merge_shards(into, retired)
            return

    def split_shard(self, shard_id):
        """Split a hot shard's range onto a fresh attested shard.

        Staged: drain the hot queue, spawn + enroll the target, sealed
        extract/load of the moving panes, checkpoint both sides (so no
        replay log ever crosses the handoff), then the atomic routing
        cutover.  Sources route to the new shard from the next release.
        """
        self._service_shard(shard_id)   # drain: no in-flight misroutes
        new_id = self._next_shard_id
        self._next_shard_id += 1
        _kept, moved = self.table.range_of(shard_id).split()
        self._staged_ranges[new_id] = moved
        self._spawn([new_id])
        fresh = self.shards[new_id]
        donor = self.shards[shard_id]
        blob = donor.enclave.ecall(
            "extract_range", moved.to_json(), new_id
        )
        self.fleet.checkpoint(donor)
        fresh.enclave.ecall("load_range", shard_id, blob)
        self.fleet.checkpoint(fresh)
        self.table.split(shard_id, new_id)
        del self._staged_ranges[new_id]
        self.splits += 1
        self._tel_splits.inc()
        return new_id

    def merge_shards(self, into_id, retired_id):
        """Fold an idle shard's range back into its sibling.

        The retiring shard's panes *and counters* ride the sealed
        handoff, the survivor checkpoints across the new range, then
        the routing table merges and the spare enclave is destroyed.
        """
        self._service_shard(into_id)
        self._service_shard(retired_id)
        retiring = self.shards[retired_id]
        survivor = self.shards[into_id]
        blob = retiring.enclave.ecall(
            "extract_range",
            self.table.range_of(retired_id).to_json(), into_id,
        )
        survivor.enclave.ecall("load_range", retired_id, blob)
        # The retiring shard's cumulative counters ride the handoff;
        # fold its already-exported mark into the survivor's so the
        # telemetry mirror exports each shed/late record exactly once.
        gone_shed, gone_late = self._counter_seen.pop(retired_id, (0, 0))
        seen_shed, seen_late = self._counter_seen.get(into_id, (0, 0))
        self._counter_seen[into_id] = (
            seen_shed + gone_shed, seen_late + gone_late
        )
        self.table.merge(into_id, retired_id)
        self.fleet.checkpoint(survivor)
        self.fleet.retire(retired_id)
        self.merges += 1
        self._tel_merges.inc()

    # -- health and accounting ------------------------------------------

    def shard_stats(self):
        stats = {}
        for shard_id in self.table.shard_ids():
            runtime = self.shards[shard_id]
            if runtime.enclave.destroyed:
                self.recover_shard(shard_id)
                runtime = self.shards[shard_id]
            stats[shard_id] = runtime.enclave.ecall("stats")
        return stats

    def audit(self, sources):
        """Conservation check: every released reading is accounted for.

        ``silent_loss`` is released minus (windowed + shed + late +
        still buffered + still queued); with everything drained and
        flushed it must be exactly zero -- a reading either landed in a
        committed window, was visibly shed, or was visibly late.
        Assumes tumbling windows (each record counts once).
        """
        stats = self.shard_stats()
        shed = sum(stat["shed_records"] for stat in stats.values())
        late = sum(stat["late_records"] for stat in stats.values())
        windowed = 0
        for frame in self.open_firings():
            if frame["kind"] == "window":
                windowed += frame["result"]["n"]
        buffered = sum(stat["buffered_records"] for stat in stats.values())
        queued = sum(
            self.shards[shard_id].queued_records()
            for shard_id in self.table.shard_ids()
        )
        produced = sum(source.produced for source in sources)
        released = sum(source.released for source in sources)
        return {
            "produced": produced,
            "released": released,
            "backlog": produced - released,
            "windowed": windowed,
            "shed": shed,
            "late": late,
            "buffered": buffered,
            "queued": queued,
            "silent_loss": released - windowed - shed - late
            - buffered - queued,
        }

    def check_invariants(self):
        """The fleet's leak and ledger audit, and the topology's own."""
        self.fleet.check_invariants()
        self.topology.check_invariants()
        return True

    def queue_depths(self):
        return {
            shard_id: self.shards[shard_id].queue_depth
            for shard_id in self.table.shard_ids()
        }
