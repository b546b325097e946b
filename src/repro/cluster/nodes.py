"""Simulated cluster nodes: the machines under the sharded plane.

Until now every shard enclave floated in a nodeless void -- its
"machine" was a private :class:`~repro.sgx.platform.SgxPlatform` that
nothing else shared and nothing could kill.  This module binds enclaves
to *nodes*: one :class:`ClusterNode` couples a scheduling-plane
:class:`~repro.genpack.cluster.Server` (CPU/memory capacity, crash and
repair life cycle) with an SGX platform whose EPC capacity is the
node's own (heterogeneous clusters mix EPC sizes, and non-SGX nodes
carry no platform at all, as in *SGX-Aware Container Orchestration for
Heterogeneous Clusters*).  Several shard enclaves on one node share
that node's EPC -- which is exactly why a machine failure is a
*correlated* loss of every partition it hosted, and why EPC pressure
is a per-node, not per-shard, quantity.

A :class:`NodeTopology` is the fleet: it wraps the nodes' servers in a
:class:`~repro.genpack.cluster.Cluster` (so the GenPack invariants
keep holding) and answers the placement-plane questions -- which nodes
are SGX-capable, reachable, under their EPC watermark, and how many
plane shards each already hosts (anti-affinity).
"""

from repro.crypto.rsa import DEFAULT_KEY_BITS
from repro.errors import CapacityError, ConfigurationError, SchedulingError
from repro.genpack.cluster import Cluster, Server
from repro.genpack.workload import ContainerSpec, RunningContainer
from repro.sgx.costs import DEFAULT_COSTS
from repro.sgx.platform import SgxPlatform

# Scheduling-plane footprint of one shard enclave on its node; the
# interesting capacity is the EPC, but the server ledger keeps the
# GenPack invariants (no double placement, no over-commit) checkable.
SHARD_CPU_REQUEST = 1.0
SHARD_MEM_REQUEST = 0.5


class NodeSpec:
    """The immutable description of one node.

    ``epc_capacity`` (bytes) sizes the node's EPC -- heterogeneous
    fleets mix 128 MiB parts with smaller ones; ``sgx=False`` models a
    legacy machine that can host untrusted services but never a shard
    enclave.
    """

    def __init__(self, name, sgx=True, epc_capacity=None,
                 cpu_capacity=16.0, mem_capacity=64.0, seed=None):
        self.name = name
        self.sgx = sgx
        self.epc_capacity = epc_capacity
        self.cpu_capacity = cpu_capacity
        self.mem_capacity = mem_capacity
        self.seed = seed


class ClusterNode:
    """One machine: a schedulable server plus (optionally) an SGX platform.

    The server side carries the GenPack life cycle (``crash`` /
    ``repair``, container placement); the platform side carries the
    clock, the shared LLC/EPC, and the quoting enclave every shard on
    this node attests through.  Destroying the node destroys both:
    every resident enclave is torn down (its EPC pages EREMOVEd via
    ``release_all``/``release_owner``) and the server drops power with
    its containers orphaned.
    """

    def __init__(self, spec, costs=DEFAULT_COSTS, quoting_key_bits=DEFAULT_KEY_BITS):
        self.spec = spec
        self.name = spec.name
        self.server = Server(spec.name, spec.cpu_capacity, spec.mem_capacity)
        if spec.sgx:
            node_costs = costs
            if spec.epc_capacity is not None:
                node_costs = costs.scaled(epc_capacity=spec.epc_capacity)
            self.platform = SgxPlatform(
                costs=node_costs, platform_id="node/%s" % spec.name,
                seed=spec.seed, quoting_key_bits=quoting_key_bits,
            )
        else:
            self.platform = None
        self.shard_ids = set()
        self._containers = {}
        self.partitioned_until = None
        self.crashes = 0

    # -- capability and liveness ---------------------------------------

    @property
    def sgx(self):
        """Whether this node can host enclaves at all."""
        return self.platform is not None

    @property
    def alive(self):
        """Whether the machine is up (crashed nodes are not)."""
        return not self.server.failed

    def reachable(self, now=None):
        """Up *and* not cut off by a network partition at ``now``.

        A partitioned node's enclaves keep running -- their state is
        intact -- but no heartbeat, match request, or migration batch
        crosses the partition until it heals.
        """
        if not self.alive:
            return False
        if self.partitioned_until is None:
            return True
        if now is None:
            return False
        if now >= self.partitioned_until:
            self.partitioned_until = None
            return True
        return False

    # -- EPC accounting -------------------------------------------------

    @property
    def epc_usable(self):
        """Application-usable EPC bytes on this node (0 without SGX)."""
        if self.platform is None:
            return 0
        return self.platform.costs.epc_usable

    @property
    def epc_resident_bytes(self):
        """Bytes resident across every live enclave on this node."""
        if self.platform is None:
            return 0
        return sum(
            enclave.memory.resident_bytes
            for enclave in self.platform.enclaves
            if not enclave.destroyed
        )

    def epc_utilization(self):
        """Resident fraction of the usable EPC, in [0, inf)."""
        usable = self.epc_usable
        if not usable:
            return 0.0
        return self.epc_resident_bytes / usable

    def epc_watermark_exceeded(self, watermark):
        """Whether resident enclave state crossed ``watermark`` of EPC."""
        if self.platform is None:
            return False
        return self.epc_resident_bytes >= watermark * self.epc_usable

    # -- shard residency ------------------------------------------------

    def bind_shard(self, shard_id):
        """Home shard ``shard_id`` here (server container + ledger).

        Any hashable names a shard; planes sharing a topology key
        theirs ``(plane name, shard id)`` so ids never collide.
        """
        if not self.sgx:
            raise SchedulingError(
                "node %s has no SGX support; cannot host shard %r"
                % (self.name, shard_id)
            )
        if not self.alive:
            raise SchedulingError(
                "node %s is down; cannot host shard %r"
                % (self.name, shard_id)
            )
        parts = shard_id if isinstance(shard_id, tuple) else (shard_id,)
        container = RunningContainer(spec=ContainerSpec(
            container_id="shard-" + "-".join(map(str, parts)),
            arrival=0.0, lifetime=float("inf"),
            cpu_request=SHARD_CPU_REQUEST, mem_request=SHARD_MEM_REQUEST,
            cpu_usage_mean=SHARD_CPU_REQUEST, workload_class="service",
        ))
        self.server.place(container)
        self._containers[shard_id] = container
        self.shard_ids.add(shard_id)

    def unbind_shard(self, shard_id):
        """Drop shard ``shard_id`` from this node's ledger."""
        self.shard_ids.discard(shard_id)
        container = self._containers.pop(shard_id, None)
        if container is not None and container.server is self.server:
            self.server.evict(container)

    # -- failure life cycle ---------------------------------------------

    def crash(self):
        """Machine failure: every enclave dies, the server drops power.

        Destroying the enclaves releases their simulated memory
        (``release_all`` EREMOVEs their EPC pages through
        ``release_owner``), so a later repair brings back an *empty*
        platform, not a haunted one.  Returns the shard ids that went
        dark.
        """
        dark = sorted(self.shard_ids)
        if self.platform is not None:
            for enclave in self.platform.enclaves:
                if not enclave.destroyed:
                    enclave.destroy()
        self.server.crash()
        self._containers.clear()
        self.shard_ids.clear()
        self.partitioned_until = None
        self.crashes += 1
        return dark

    def repair(self):
        """Return the machine to the schedulable pool (powered off)."""
        self.server.repair()
        self.server.power_on()

    def partition(self, until):
        """Cut this node off the network until virtual time ``until``."""
        if self.partitioned_until is None or until > self.partitioned_until:
            self.partitioned_until = until

    def heal_partition(self):
        """Reconnect the node immediately."""
        self.partitioned_until = None


class NodeTopology:
    """The fleet of nodes a plane's shards are bound to."""

    def __init__(self, nodes):
        if not nodes:
            raise CapacityError("a topology needs at least one node")
        self.nodes = list(nodes)
        self._by_name = {node.name: node for node in self.nodes}
        if len(self._by_name) != len(self.nodes):
            raise ConfigurationError("node names must be unique")
        self.cluster = Cluster([node.server for node in self.nodes])

    @classmethod
    def build(cls, count, seed=0, epc_capacities=None, sgx_flags=None,
              costs=DEFAULT_COSTS, quoting_key_bits=DEFAULT_KEY_BITS):
        """``count`` nodes named node-0..; per-node EPC/SGX overrides.

        ``epc_capacities``/``sgx_flags`` are optional sequences indexed
        by node position; a ``None`` entry keeps the default.  Seeds
        derive deterministically from ``seed`` so two same-seed
        topologies attest and seal identically.
        """
        nodes = []
        for index in range(count):
            epc = None
            if epc_capacities is not None and index < len(epc_capacities):
                epc = epc_capacities[index]
            sgx = True
            if sgx_flags is not None and index < len(sgx_flags):
                sgx = bool(sgx_flags[index])
            nodes.append(ClusterNode(
                NodeSpec(
                    "node-%d" % index, sgx=sgx, epc_capacity=epc,
                    seed=1000 * (seed + 1) + index,
                ),
                costs=costs, quoting_key_bits=quoting_key_bits,
            ))
        return cls(nodes)

    def __len__(self):
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def node(self, name):
        """Look a node up by name."""
        node = self._by_name.get(name)
        if node is None:
            raise ConfigurationError("no node %r in the topology" % (name,))
        return node

    def sgx_nodes(self):
        """Nodes that can host enclaves."""
        return [node for node in self.nodes if node.sgx]

    def placement_candidates(self, now=None, exclude=()):
        """SGX nodes that are alive and reachable, minus ``exclude``."""
        return [
            node for node in self.nodes
            if node.sgx and node.reachable(now) and node not in exclude
            and node.name not in exclude
        ]

    def shard_spread(self):
        """Per-node shard counts (max-min is the anti-affinity skew)."""
        return {node.name: len(node.shard_ids) for node in self.nodes}

    def check_invariants(self):
        """GenPack server invariants plus a disjoint shard ledger."""
        self.cluster.check_invariants()
        seen = {}
        for node in self.nodes:
            for shard_id in node.shard_ids:
                if shard_id in seen:
                    raise ConfigurationError(
                        "shard %r homed on both %s and %s"
                        % (shard_id, seen[shard_id], node.name)
                    )
                seen[shard_id] = node.name
            if node.shard_ids and not node.sgx:
                raise ConfigurationError(
                    "non-SGX node %s claims shards %r"
                    % (node.name, sorted(node.shard_ids))
                )
        return True
