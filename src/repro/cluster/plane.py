"""The node-bound sharded SCBR plane: shards live on machines.

:class:`NodeBoundScbrRouter` is the :class:`ShardedScbrRouter` with its
shard platforms drawn from a :class:`~repro.cluster.nodes.NodeTopology`
instead of a nodeless factory.  Three things change, all of them the
robustness story the base plane could not tell:

* **Placement** is anti-affinity- and EPC-watermark-aware
  (:func:`repro.plane.choose_node`): spawns, splits, and recoveries
  all land on the reachable SGX node hosting the fewest shards,
  preferring nodes under their EPC watermark -- so one machine failure
  darkens as few partitions as possible and no node's shared EPC is
  quietly overcommitted.

* **Node failure detection** infers "machine down" from *correlated*
  phi-accrual suspicions (:class:`NodeFailureDetector`): when every
  shard homed on a node is declared down within one correlation
  window, the health loop mass-recovers the whole node -- each shard
  respawned on a survivor through the usual attested re-join +
  snapshot restore + log replay, the dead node's EPC pages already
  EREMOVEd by its enclaves' teardown.

* **Live migration** relieves EPC pressure without an outage:
  :meth:`begin_migration` spawns and attested-joins a replacement on
  the destination node while the source keeps serving matches; the
  cutover (:meth:`complete_migration`) evacuates *every* subtree as
  one sealed batch (``extract_subtrees`` under the shard's
  ``evacuate`` ECALL), loads it into the replacement, and atomically
  swaps partition residency.  Coverage-tracked publish makes the
  cutover loss-free by construction: a publication parked before the
  swap is answered by the still-full source, one parked after by the
  fully-loaded replacement -- there is no instant at which shard
  ``i``'s authenticated match blob can silently not arrive.

Network partitions are modeled at the node: a partitioned node's
enclaves keep running, but no heartbeat, match request, or migration
batch crosses until the partition heals -- so suspicion accrues
exactly as for a crash, and conservative recovery (respawn elsewhere,
destroy the old side when reachable again) handles both without
split-brain.
"""

from dataclasses import dataclass

from repro.cluster.health import NodeFailureDetector
from repro.cluster.nodes import NodeTopology
from repro.errors import (
    ConfigurationError,
    EnclaveLostError,
    SchedulingError,
)
from repro.plane import DEFAULT_NODE_EPC_WATERMARK, choose_node
from repro.scbr.sharding import ShardedScbrRouter
from repro.sim.clock import cycles_to_seconds
from repro.telemetry import default_registry

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


class NodeBoundScbrRouter(ShardedScbrRouter):
    """A sharded SCBR plane whose shard enclaves live on cluster nodes.

    Construction takes a :class:`NodeTopology` in place of the base
    plane's ``shard_platform_factory``: every spawn (initial bring-up,
    runtime split, crash recovery) asks the topology for a destination
    via :func:`repro.plane.choose_node` and the fleet binds the shard
    to that node's server ledger, so GenPack's cluster invariants keep
    holding underneath the enclave plane.
    """

    name = "scbr-node-plane"

    def __init__(self, platform, topology,
                 epc_node_watermark=DEFAULT_NODE_EPC_WATERMARK,
                 **kwargs):
        if not isinstance(topology, NodeTopology):
            raise ConfigurationError(
                "NodeBoundScbrRouter needs a NodeTopology"
            )
        if not topology.sgx_nodes():
            raise SchedulingError(
                "the topology has no SGX nodes; nowhere to run shards"
            )
        if not 0.0 < epc_node_watermark <= 1.0:
            raise ConfigurationError(
                "epc_node_watermark must be in (0, 1]"
            )
        self.topology = topology
        self.epc_node_watermark = epc_node_watermark
        self.node_detector = None  # created after super() (needs monitor)
        self.node_failures = 0
        self.node_partitions = 0
        self.migrations_completed = 0
        self.migration_episodes = []
        self.node_recovery_episodes = []
        registry = default_registry()
        self._tel_node_failures = registry.counter("cluster.node_failures")
        self._tel_node_recoveries = registry.counter(
            "cluster.node_recoveries"
        )
        self._tel_migrations = registry.counter("cluster.migrations")
        super().__init__(platform, None, **kwargs)
        if self.monitor is not None:
            self.node_detector = self.fleet.node_detector = (
                NodeFailureDetector(self.monitor)
            )
            # Replay the assignments made while super() spawned the
            # initial shards (the detector did not exist yet).
            for shard in self.shards:
                self.node_detector.assign(shard.shard_id, shard.node.name)

    # -- node-aware placement ------------------------------------------

    def _placement(self):
        """Shard enclaves run on the topology's nodes."""
        return {
            "topology": self.topology,
            "watermark": self.epc_node_watermark,
        }

    def node_of(self, shard_id):
        """The node currently serving shard ``shard_id``."""
        return self._shard_by_id(shard_id).node

    # -- network partitions ---------------------------------------------

    def partition_node(self, name, duration):
        """Cut node ``name`` off the network for ``duration`` virtual
        seconds (the chaos/fault-schedule hook)."""
        if self.env is None:
            raise ConfigurationError(
                "network partitions need an Environment (env=...)"
            )
        node = self.topology.node(name)
        node.partition(self.env.now + duration)
        self.node_partitions += 1
        return node.partitioned_until

    # -- node failure and mass recovery ---------------------------------

    def fail_node(self, name):
        """Machine failure: every shard on the node dies at once.

        Each homed shard goes through :meth:`fail_shard` (latching its
        onset for the detectors), then the node itself crashes -- its
        server drops power and every resident enclave's EPC pages are
        released.  Returns the shard ids that went dark.
        """
        node = self.topology.node(name)
        onset = self.fleet.now()
        dark = self.fleet.on_node(node)
        for shard_id in dark:
            self.fail_shard(shard_id)
        node.crash()
        self.node_failures += 1
        self._tel_node_failures.inc()
        if self.node_detector is not None and onset is not None:
            self.node_detector.record_onset(name, onset)
        return dark

    def recover_node(self, name):
        """Mass-recover every shard the dead node was serving.

        The whole displaced set respawns through ONE batched
        provisioning round (:meth:`recover_shards`) -- a single
        coordinator quote commits to every replacement's join offer,
        and machines holding live resumption tickets skip quote
        verification entirely -- then each shard restores its snapshot
        and replays its log as usual.  The node-aware factory places
        every replacement on a surviving node (the dead machine fails
        ``placement_candidates``).  Returns the recovered shard ids.
        """
        node = self.topology.node(name)
        shard_ids = self.fleet.on_node(node)
        episodes = self.fleet.recover(shard_ids)
        episode = {
            "node": name,
            "shard_ids": shard_ids,
            "onset": min(
                (e["onset"] for e in episodes if e["onset"] is not None),
                default=None,
            ),
            "recovery_seconds": sum(
                e["recovery_seconds"] for e in episodes
            ),
        }
        self.node_recovery_episodes.append(episode)
        self._tel_node_recoveries.inc()
        if self.node_detector is not None:
            self.node_detector.reset(name)
        if self.orchestrator is not None and shard_ids:
            self.orchestrator.report_recovery(
                "%s/%s" % (self.name, name), "node-recovery",
                episode["recovery_seconds"], onset=episode["onset"],
            )
        return shard_ids

    def _heal(self, down_shards, down_nodes):
        """A machine death is healed as one mass recovery; only down
        shards not explained by a node verdict are recovered
        individually (process death on a healthy node)."""
        handled = set()
        for node_name in down_nodes:
            handled.update(self.recover_node(node_name))
        super()._heal(
            [s for s in down_shards if s not in handled], down_nodes
        )

    # -- live migration -------------------------------------------------

    def begin_migration(self, shard_id, node_name=None):
        """Stage a live migration of shard ``shard_id``.

        Spawns a replacement enclave on the destination node (chosen by
        the planner unless ``node_name`` pins it) and walks it through
        the full attested DH join, so it holds the plane key before a
        single record moves.  The source keeps serving matches -- the
        plane's membership, residency ledgers, and heartbeat targets
        are untouched until :meth:`complete_migration` cuts over.
        """
        source = self._shard_by_id(shard_id)
        if source.enclave.destroyed:
            raise EnclaveLostError(
                "shard %d is dark; recover it, do not migrate it"
                % shard_id
            )
        source_node = self.node_of(shard_id)
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
                self.topology, self.fleet.now(), self.epc_node_watermark,
                exclude=(source_node,),
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
        self.migrations_completed += 1
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

    # -- observability --------------------------------------------------

    def node_detection_latencies(self):
        """Onset-to-verdict latencies of the node detector's verdicts."""
        if self.node_detector is None:
            return []
        return self.node_detector.detection_latencies()

    def node_recovery_latencies(self):
        """Virtual seconds each node mass-recovery took."""
        return [
            episode["recovery_seconds"]
            for episode in self.node_recovery_episodes
        ]

    def stats(self):
        plane = super().stats()
        plane["nodes"] = {
            "count": len(self.topology),
            "sgx": len(self.topology.sgx_nodes()),
            "node_failures": self.node_failures,
            "node_recoveries": len(self.node_recovery_episodes),
            "node_partitions": self.node_partitions,
            "migrations": self.migrations_completed,
            "shard_spread": self.topology.shard_spread(),
            "epc_utilization": {
                node.name: node.epc_utilization()
                for node in self.topology.sgx_nodes()
            },
        }
        return plane

    def check_invariants(self):
        """Plane invariants (the fleet's include live-shard / node
        ledger agreement) and the topology's own."""
        super().check_invariants()
        self.topology.check_invariants()
        return True
