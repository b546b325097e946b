"""SCBR: secure content-based routing (paper Section V-B).

Publications and subscriptions are encrypted and signed outside the
enclave; the compute-intensive matching step runs inside an enclave on
plaintext, over data structures that exploit containment relations
between filters so fewer comparisons are needed per publication.

- :mod:`~repro.scbr.filters` -- attribute constraints, subscriptions,
  publications, and the containment (covering) relation.
- :mod:`~repro.scbr.index` -- the containment-poset matching index
  (reduced comparisons), with memory-cost accounting.
- :mod:`~repro.scbr.naive` -- the linear-scan baseline matcher.
- :mod:`~repro.scbr.workload` -- subscription/publication generators.
- :mod:`~repro.scbr.messages` -- encrypted, signed envelopes.
- :mod:`~repro.scbr.router` -- the enclave-hosted router; clients key
  against it over the attested channel of :mod:`repro.sgx.channel`.
- :mod:`~repro.scbr.replication` -- primary/standby broker failover
  with sealed-checkpoint restore and exactly-once replay.
- :mod:`~repro.scbr.sharding` -- the EPC-aware sharded matching plane.
- :mod:`~repro.scbr.health` -- phi-accrual failure detection for the
  sharded plane's shard enclaves.
"""

from repro.scbr.compact import HotColdIndex
from repro.scbr.filters import Constraint, Operator, Publication, Subscription
from repro.scbr.health import (
    ShardDetection,
    ShardHealthMonitor,
    ShardHealthPolicy,
)
from repro.scbr.index import ContainmentIndex
from repro.scbr.naive import LinearIndex
from repro.scbr.network import Broker, ScbrNetwork
from repro.scbr.workload import ScbrWorkload
from repro.scbr.messages import EncryptedEnvelope
from repro.scbr.replication import FailoverClient, ReplicatedBroker
from repro.scbr.router import ScbrClient, ScbrRouter
from repro.scbr.sharding import (
    EpcWatermarkPolicy,
    PartialCoverage,
    ShardedMatchingPlane,
    ShardedScbrRouter,
    ShardPlanner,
)

__all__ = [
    "Broker",
    "Constraint",
    "ContainmentIndex",
    "EncryptedEnvelope",
    "EpcWatermarkPolicy",
    "FailoverClient",
    "HotColdIndex",
    "LinearIndex",
    "Operator",
    "PartialCoverage",
    "Publication",
    "ReplicatedBroker",
    "ScbrClient",
    "ScbrNetwork",
    "ScbrRouter",
    "ScbrWorkload",
    "ShardDetection",
    "ShardedMatchingPlane",
    "ShardedScbrRouter",
    "ShardHealthMonitor",
    "ShardHealthPolicy",
    "ShardPlanner",
    "Subscription",
]
