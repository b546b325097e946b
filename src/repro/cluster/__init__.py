"""Node fault domains under the sharded planes.

Binds shard enclaves to simulated machines: per-node EPC capacity and
SGX heterogeneity, and the one path by which a node crashes or is
partitioned (:mod:`repro.cluster.nodes`), plus correlated node failure
detection on top of the phi-accrual shard monitor
(:mod:`repro.cluster.health`).  A plane lands on a topology through
:class:`repro.plane.ShardFleet` (``ShardedScbrRouter(topology=...)``,
``SecureStreamPlane``).
"""

from repro.cluster.health import (
    NodeDetection,
    NodeFailureDetector,
    NodeHealthPolicy,
)
from repro.cluster.nodes import (
    ClusterNode,
    NodeSpec,
    NodeTopology,
    SHARD_CPU_REQUEST,
    SHARD_MEM_REQUEST,
)

__all__ = [
    "ClusterNode",
    "NodeDetection",
    "NodeFailureDetector",
    "NodeHealthPolicy",
    "NodeSpec",
    "NodeTopology",
    "SHARD_CPU_REQUEST",
    "SHARD_MEM_REQUEST",
]
