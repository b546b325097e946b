"""The host-side lifecycle of a plane-key shard, written once.

The sharded SCBR plane, its node-bound variant and the streaming plane
run the same shard life cycle on the untrusted host: choose a machine,
load and set up the shard enclave, earn the plane key through one
batched attested :class:`~repro.scbr.provisioning.PlaneProvisioner`
round, keep a plane-sealed snapshot plus a bounded log of the (already
sealed) operations applied since, notice a death, respawn, restore,
replay.  Placement and recovery belong to the platform, not to each
workload (*SGX-Aware Container Orchestration for Heterogeneous
Clusters*); :class:`ShardFleet` is that platform half.  A client hands
it what only the client knows (see :class:`ShardFleet`) and keeps what
is its own: home maps and coverage-tracked publish; queues and the
committer; migration policy.
"""

from repro.errors import (
    ConfigurationError,
    EnclaveLostError,
    SchedulingError,
)
from repro.sim.clock import cycles_to_seconds
from repro.telemetry import (
    DEFAULT_CYCLE_BUCKETS,
    NULL_RECORDER,
    default_registry,
)

# A node whose resident enclave state crosses this fraction of its
# usable EPC stops attracting new shards; mirrors the per-shard
# EpcWatermarkPolicy default.
DEFAULT_NODE_EPC_WATERMARK = 0.85


def least_loaded(shard_counts, epc_loads, over_watermark=None):
    """Pick a *node* position for a new shard enclave.

    A pure function of the per-node shard counts and EPC loads:

    1. anti-affinity first -- the node hosting the fewest shards wins,
       so one machine failure darkens as few partitions as possible
       (and mass recovery has somewhere to spread them);
    2. ties break toward the lowest EPC utilisation (the new partition
       will grow; start it where pages are cheapest), then toward
       position.

    ``over_watermark`` (optional per-node flags) demotes nodes already
    past their EPC watermark: they are considered only when *every*
    candidate is over -- a full fleet still beats refusing to place at
    all.
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


def choose_node(topology, now, watermark=DEFAULT_NODE_EPC_WATERMARK,
                exclude=()):
    """Anti-affinity + EPC-watermark placement over reachable nodes."""
    candidates = topology.placement_candidates(now, exclude=exclude)
    if not candidates:
        raise SchedulingError(
            "no reachable SGX node can host a shard enclave"
        )
    return candidates[least_loaded(
        [len(node.shard_ids) for node in candidates],
        [node.epc_utilization() for node in candidates],
        [node.epc_watermark_exceeded(watermark) for node in candidates],
    )]


class ShardMember:
    """Host handle of one partition: where it runs, and how to rebuild it.

    The handle outlives its enclaves: recovery and migration swap a
    replacement's ``node`` / ``platform`` / ``enclave`` in, so whatever
    a client keys on the member (home maps, queues) survives a respawn.
    ``snapshot`` (the latest plane-sealed one) plus ``log`` (operations
    applied since: sealed blobs the host relayed anyway, so storing
    them teaches it nothing) is everything a replacement needs.
    Clients subclass this for their own per-shard bookkeeping.
    """

    def __init__(self, shard_id):
        self.shard_id = shard_id
        self.node = None        # ClusterNode, or None on a nodeless plane
        self.platform = None
        self.enclave = None
        self.snapshot = None
        self.log = []
        self.failed_at = None   # virtual onset of the last crash


class ShardFleet:
    """Spawn, checkpoint, fail, detect, recover: one plane's shards.

    Placement is either a ``platform_factory(shard_id)`` (every shard
    on a fresh machine of its own) or a ``topology`` (shards bound to
    cluster nodes, ledgered there under ``(name, shard_id)`` so several
    planes can share one topology); every machine a shard lands on is
    registered with ``attestation_service``, the plane's one
    :class:`~repro.sgx.attestation.AttestationService`, which the
    coordinator and the shards verify each other's quotes with.
    ``setup_args(shard_id)`` supplies
    the shard ``setup`` ECALL's arguments, ``snapshot(member)`` returns
    a plane-sealed snapshot blob, ``restore(member)`` loads
    ``member.snapshot`` into the fresh enclave and ``replay(member)``
    re-applies ``member.log``; both return a count for the episode.

    Virtual-time attribution of a recovery: each shard is charged its
    own platform's cycle *delta* (shards sharing a machine split their
    group's delta) plus an equal slice of the coordinator's delta --
    the batched round's cost amortizes across the set.
    """

    def __init__(self, name, metrics, code, coordinator,
                 coordinator_platform, provisioner, attestation_service,
                 setup_args, snapshot, restore, replay, interval,
                 platform_factory=None, topology=None,
                 watermark=DEFAULT_NODE_EPC_WATERMARK, member=ShardMember,
                 now=lambda: None, chaos=None, monitor=None,
                 orchestrator=None, tracer=NULL_RECORDER):
        if interval < 1:
            raise ConfigurationError("snapshot interval must be >= 1")
        self.name = name
        self.metrics = metrics
        self.code = code
        self.coordinator = coordinator
        self.coordinator_platform = coordinator_platform
        self.provisioner = provisioner
        self.attestation_service = attestation_service
        self.setup_args = setup_args
        self.snapshot = snapshot
        self.restore = restore
        self.replay = replay
        self.interval = interval
        self.platform_factory = platform_factory
        self.topology = topology
        self.watermark = watermark
        self.member_factory = member
        self.now = now
        self.chaos = chaos
        self.monitor = monitor
        self.node_detector = None
        self.orchestrator = orchestrator
        self.tracer = tracer
        self.members = {}       # shard_id -> member, in spawn order
        self.retired = []       # (shard_id, enclave) replaced or retired
        self.failures = 0       # live -> dead transitions
        self.checkpoints = 0
        self.episodes = []
        self._beats = {}
        registry = default_registry()
        self._tel_failures = registry.counter(metrics + ".shard_failures")
        self._tel_recoveries = registry.counter(metrics + ".recoveries")
        self._tel_recovery_cycles = registry.histogram(
            metrics + ".recovery_cycles", buckets=DEFAULT_CYCLE_BUCKETS
        )
        self._tel_snapshots = registry.counter(metrics + ".snapshots")

    # -- membership -----------------------------------------------------

    def member(self, shard_id):
        member = self.members.get(shard_id)
        if member is None:
            raise ConfigurationError(
                "no shard %r in the plane" % (shard_id,)
            )
        return member

    def on_node(self, node):
        """Ids of the shards resident on ``node`` (dead or alive)."""
        return sorted(
            shard_id for shard_id, member in self.members.items()
            if member.node is node
        )

    def reachable(self, member):
        """Whether a request can cross to ``member``: always, without
        a node; not while its node is down or partitioned (a
        partitioned node's enclaves keep running, unheard)."""
        return member.node is None or member.node.reachable(self.now())

    def live(self):
        return [
            member for member in self.members.values()
            if not member.enclave.destroyed and self.reachable(member)
        ]

    def dark(self):
        """Ids of the shards that cannot answer: destroyed, or live
        behind a partition (conservatively respawned elsewhere --
        recovery destroys the old side first: fencing, not
        split-brain)."""
        return [
            shard_id for shard_id, member in self.members.items()
            if member.enclave.destroyed or not self.reachable(member)
        ]

    # -- placement and spawning -----------------------------------------

    def _rebind(self, member, node):
        """The one place a node's shard ledger changes."""
        key = (self.name, member.shard_id)
        if member.node is not None:
            member.node.unbind_shard(key)
        member.node = node
        if node is not None:
            node.bind_shard(key)
            if self.node_detector is not None:
                self.node_detector.assign(member.shard_id, node.name)

    def _launch(self, members, pinned=None):
        """Place, load, set up and join one enclave per member.

        Bring-up, growth, mass recovery and migration staging all come
        through here, and however many shards there are they earn the
        plane key in ONE provisioning round.  A member's previous home
        is vacated before its next one is chosen; its previous enclave
        is kept for the leak audit.  ``pinned`` stages on that node
        without touching any ledger.  Returns per-machine clock
        baselines (taken before the machine does any join work) so
        recovery can attribute cycle *deltas* on node platforms whose
        clocks carry history.
        """
        baselines = {}
        entries = []
        for member in members:
            shard_id = member.shard_id
            if pinned is not None:
                member.node, platform = pinned, pinned.platform
            elif self.topology is None:
                platform = self.platform_factory(shard_id)
            else:
                self._rebind(member, None)
                self._rebind(member, choose_node(
                    self.topology, self.now(), self.watermark
                ))
                platform = member.node.platform
            baselines.setdefault(id(platform), platform.clock.now)
            # The infrastructure provider registers new machines with
            # the verification service; without this, a shard spawned
            # on a fresh machine could never prove its quote.
            self.attestation_service.register_platform(
                platform.platform_id, platform.quoting_enclave.public_key
            )
            enclave = platform.load_enclave(
                self.code, name="%s-shard-%d" % (self.name, shard_id)
            )
            enclave.ecall("setup", *self.setup_args(shard_id))
            if member.enclave is not None:
                self.retired.append((shard_id, member.enclave))
            member.platform, member.enclave = platform, enclave
            entries.append((shard_id, platform, enclave))
        # The host only relays public DH values, quotes, wrapped keys,
        # sealed blobs, and tickets.
        self.provisioner.join(
            self.coordinator, self.coordinator_platform, entries
        )
        return baselines

    def spawn(self, shard_ids):
        """Grow the plane by one member per id; returns the members."""
        members = [self.member_factory(shard_id) for shard_id in shard_ids]
        self._launch(members)
        for member in members:
            self.members[member.shard_id] = member
            if self.monitor is not None:
                self.monitor.register(member.shard_id)
        return members

    def retire(self, shard_id):
        """Shrink the plane: destroy the shard and forget the member."""
        member = self.members.pop(shard_id)
        member.enclave.destroy()
        self._rebind(member, None)
        self.retired.append((shard_id, member.enclave))

    # -- live migration -------------------------------------------------

    def stage(self, shard_id, node):
        """An attested, joined stand-in for ``shard_id`` on ``node``.

        The plane's membership, residency ledgers and heartbeat targets
        are untouched until :meth:`cutover`."""
        staged = self.member_factory(shard_id)
        self._launch([staged], pinned=node)
        return staged

    def cutover(self, member, staged):
        """Swap ``staged`` in as ``member``'s enclave; the old one dies."""
        member.enclave.destroy()
        self.retired.append((member.shard_id, member.enclave))
        self._rebind(member, staged.node)
        member.platform, member.enclave = staged.platform, staged.enclave

    # -- durability -----------------------------------------------------

    def checkpoint(self, member):
        """Refresh ``member``'s sealed snapshot; the log starts over."""
        member.snapshot = self.snapshot(member)
        member.log = []
        self.checkpoints += 1
        self._tel_snapshots.inc()

    def log(self, member, entry):
        """Append one applied operation to ``member``'s replay log.

        Once the log reaches the interval the shard is re-snapshotted
        and the log truncated, bounding replay work.
        """
        member.log.append(entry)
        if len(member.log) >= self.interval:
            self.checkpoint(member)

    # -- failure, detection, recovery -----------------------------------

    def fail(self, shard_id):
        """Kill one shard enclave (the chaos/fault-schedule hook).

        Its state is gone, its EPC pages and cache lines are reclaimed
        by the teardown, and ecalls raise
        :class:`~repro.errors.EnclaveLostError` until someone recovers
        it.  Returns False (and counts nothing) if it was already dead.
        """
        member = self.member(shard_id)
        if member.enclave.destroyed:
            return False
        member.failed_at = self.now()
        member.enclave.destroy()
        self.failures += 1
        self._tel_failures.inc()
        if self.monitor is not None:
            self.monitor.record_onset(shard_id, member.failed_at)
        return True

    def recover(self, shard_ids):
        """Respawn a *set* of shards from snapshot + log, in one round.

        Each old enclave is destroyed unconditionally first: a
        false-positive detection (heartbeats lost from a live shard)
        then degrades to an unnecessary but harmless respawn instead of
        a split-brain partition.  The whole set re-attests through ONE
        provisioning round; restore and replay stay per shard.
        Recovery work happens "now" in simulated time, so its latency
        is measured in enclave cycles (see the class docstring).
        Returns one episode per shard.
        """
        members = [self.member(shard_id) for shard_id in shard_ids]
        if not members:
            return []
        for member in members:
            member.enclave.destroy()
        coordinator_clock = self.coordinator_platform.clock
        coordinator_start = coordinator_clock.now
        baselines = self._launch(members)
        details = [
            (self.restore(member), self.replay(member))
            for member in members
        ]
        coordinator_delta = coordinator_clock.now - coordinator_start
        coordinator_share = coordinator_delta // len(members)
        cycles = {
            member.shard_id: coordinator_share for member in members
        }
        cycles[members[0].shard_id] += (
            coordinator_delta - coordinator_share * len(members)
        )
        # Group shards by machine: a node may host several of them, and
        # they split their machine's cycle delta.
        groups = {}
        for member in members:
            groups.setdefault(id(member.platform), []).append(member)
        for group in groups.values():
            platform = group[0].platform
            if platform.clock is coordinator_clock:
                # Co-located with the coordinator: already in its delta.
                continue
            delta = platform.clock.now - baselines[id(platform)]
            share = delta // len(group)
            for member in group:
                cycles[member.shard_id] += share
            cycles[group[0].shard_id] += delta - share * len(group)
        episodes = []
        for member, (restored, replayed) in zip(members, details):
            shard_id = member.shard_id
            recovery_cycles = cycles[shard_id]
            recovery_seconds = cycles_to_seconds(recovery_cycles)
            self._tel_recoveries.inc()
            self._tel_recovery_cycles.observe(recovery_cycles)
            self.tracer.record(
                self.metrics + ".recover", coordinator_start,
                coordinator_start + recovery_cycles,
                shard=shard_id, restored=restored, replayed=replayed,
            )
            episodes.append({
                "shard_id": shard_id,
                "onset": member.failed_at,
                "restored": restored,
                "replayed": replayed,
                "recovery_cycles": recovery_cycles,
                "recovery_seconds": recovery_seconds,
            })
            if self.monitor is not None:
                self.monitor.register(shard_id)
            if self.orchestrator is not None:
                self.orchestrator.report_recovery(
                    "%s/shard-%d" % (self.name, shard_id),
                    "shard-recovery", recovery_seconds,
                    onset=member.failed_at,
                )
        self.episodes.extend(episodes)
        return episodes

    def probe(self):
        """One heartbeat round: ping every shard, feed the detector.

        A dead enclave fails the ping; a live one behind a partition
        never gets its beat across, so suspicion accrues exactly as for
        a dead shard -- the detector cannot tell them apart, and
        conservative recovery handles both; chaos may eat a live
        shard's beat (``heartbeat_loss_rate``).  Returns the shards the
        monitor *newly* declares down this round.
        """
        if self.monitor is None:
            raise ConfigurationError(
                "heartbeat probing needs an Environment (env=...)"
            )
        for shard_id, member in list(self.members.items()):
            beat = self._beats.get(shard_id, 0)
            self._beats[shard_id] = beat + 1
            try:
                member.enclave.ecall("ping")
            except EnclaveLostError:
                continue
            if not self.reachable(member):
                continue
            if self.chaos is not None and self.chaos.drops_heartbeat(
                shard_id, beat
            ):
                continue
            self.monitor.beat(shard_id)
        down = self.monitor.poll()
        if self.orchestrator is not None:
            for shard_id in down:
                self.orchestrator.report_anomaly(
                    "%s/shard-%d" % (self.name, shard_id),
                    "shard-liveness",
                    onset=self.member(shard_id).failed_at,
                )
        return down

    def start_health(self, env, duration, heal):
        """Schedule a probe round every monitor period until
        ``duration``.  Each tick hands ``heal`` the newly down shards
        and -- when a node detector is installed -- the nodes it newly
        judges dead from *correlated* shard suspicions, so a machine
        death can be healed as one mass recovery before any per-shard
        fallback.  Returns the number of rounds scheduled."""
        if self.monitor is None:
            raise ConfigurationError(
                "the health loop needs an Environment (env=...)"
            )
        period = self.monitor.policy.heartbeat_period

        def tick():
            down = self.probe()
            nodes = (
                self.node_detector.poll()
                if self.node_detector is not None else []
            )
            heal(down, nodes)

        beats = int(duration / period)
        for index in range(1, beats + 1):
            env.call_at(env.now + index * period, tick)
        return beats

    # -- audit ----------------------------------------------------------

    def check_invariants(self):
        """Leak and ledger audit.

        - every dead member and every retired enclave released its
          memory: zero resident bytes, nothing left under its name in
          its platform's shared EPC;
        - every live member runs on the platform of the node it is
          homed on, and that node ledgers it;
        - no node ledgers a member that is homed elsewhere.
        """
        dead = list(self.retired) + [
            (shard_id, member.enclave)
            for shard_id, member in self.members.items()
            if member.enclave.destroyed
        ]
        for shard_id, enclave in dead:
            memory = enclave.memory
            if not enclave.destroyed or memory.resident_bytes or (
                    not memory.released):
                raise ConfigurationError(
                    "dead shard %d still holds %d resident bytes"
                    % (shard_id, memory.resident_bytes)
                )
            if memory.epc is not None:
                for key in memory.epc.resident_page_keys():
                    if key[0] == memory.name:
                        raise ConfigurationError(
                            "dead shard %d left EPC page %r resident"
                            % (shard_id, key)
                        )
        if self.topology is None:
            return True
        for shard_id, member in self.members.items():
            if member.enclave.destroyed:
                continue
            node = member.node
            if node is None or member.platform is not node.platform:
                raise ConfigurationError(
                    "live shard %d does not run on its home node %s"
                    % (shard_id, node and node.name)
                )
            if (self.name, shard_id) not in node.shard_ids:
                raise ConfigurationError(
                    "node %s does not ledger its shard %d"
                    % (node.name, shard_id)
                )
        for node in self.topology:
            for shard_id in self.members.keys() - self.on_node(node):
                if (self.name, shard_id) in node.shard_ids:
                    raise ConfigurationError(
                        "node %s ledgers shard %d, which is homed elsewhere"
                        % (node.name, shard_id)
                    )
        return True
