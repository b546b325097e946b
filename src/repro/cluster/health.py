"""Node-level failure detection from correlated shard suspicions.

The phi-accrual :class:`~repro.scbr.health.ShardHealthMonitor` judges
one shard at a time; a machine failure kills *every* shard on the node
at once, and treating those as independent episodes both wastes work
(N sequential single-shard recoveries, each rediscovering the same
dead machine) and mis-places the replacements (the per-shard path
would happily respawn onto the platform that just died).  The
:class:`NodeFailureDetector` sits on top of the shard monitor and
infers "node down" exactly when the per-shard suspicions *correlate*:
every shard homed on the node is declared down by the phi detector,
and the detections fall within one ``correlation_window`` of each
other.  A single slow shard on a healthy node never clears that bar --
its neighbours keep beating -- so the node verdict separates machine
death from process death with no extra probing.

Like the shard monitor, verdicts latch: one :class:`NodeDetection` per
outage episode, reset when the node's shards are re-registered after
mass recovery.
"""

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class NodeHealthPolicy:
    """How shard suspicions combine into a node verdict."""

    # Detections of a node's shards must all land within this span of
    # virtual seconds to count as one correlated machine failure.
    correlation_window: float = 0.01
    # Fraction of the node's homed shards that must be suspected; 1.0
    # (all of them) is the conservative default -- any surviving beat
    # vetoes the machine-death theory.
    quorum: float = 1.0

    def __post_init__(self):
        if self.correlation_window <= 0.0:
            raise ConfigurationError("correlation_window must be positive")
        if not 0.0 < self.quorum <= 1.0:
            raise ConfigurationError("quorum must be in (0, 1]")


@dataclass
class NodeDetection:
    """One node-down verdict."""

    node: str
    detected_at: float
    shard_ids: Tuple[int, ...]
    onset: Optional[float] = None
    shard_detections: list = field(default_factory=list)

    @property
    def detection_latency(self):
        """Seconds from (externally recorded) onset to the verdict."""
        if self.onset is None:
            return None
        return self.detected_at - self.onset


class NodeFailureDetector:
    """Correlates shard-down verdicts into node-down verdicts.

    The caller (a topology-placed :class:`repro.plane.ShardFleet`,
    which creates it) keeps the shard→node assignment current via
    :meth:`assign`/:meth:`unassign`, feeds the
    shard monitor as usual, and calls :meth:`poll` after each heartbeat
    round.  The detector never probes anything itself: it reads the
    monitor's latched detections, so its verdicts inherit the phi
    detector's determinism.
    """

    def __init__(self, monitor, policy=None):
        self.monitor = monitor
        self.policy = policy or NodeHealthPolicy()
        self.detections = []
        self._assignment = {}
        self._down = set()
        self._onsets = {}

    # -- bookkeeping ----------------------------------------------------

    def assign(self, shard_id, node_name):
        """Record that ``shard_id`` is homed on ``node_name``."""
        self._assignment[shard_id] = node_name

    def unassign(self, shard_id):
        """Drop a shard from the assignment map (retired or moving)."""
        self._assignment.pop(shard_id, None)

    def shards_on(self, node_name):
        """Shard ids currently assigned to ``node_name`` (sorted)."""
        return sorted(
            shard_id for shard_id, name in self._assignment.items()
            if name == node_name
        )

    def record_onset(self, node_name, time):
        """Fault injectors call this so node detection latency is
        measurable (mirrors ``ShardHealthMonitor.record_onset``)."""
        self._onsets[node_name] = time

    def reset(self, node_name):
        """Close ``node_name``'s outage episode (mass recovery done)."""
        self._down.discard(node_name)
        self._onsets.pop(node_name, None)

    def down(self):
        """Node names currently declared down."""
        return sorted(self._down)

    # -- the verdict ----------------------------------------------------

    def poll(self, now=None):
        """Nodes newly declared down by correlated shard suspicions.

        A node is down when at least ``quorum`` of its assigned shards
        are latched down by the shard monitor *and* the earliest and
        latest of those detections are within ``correlation_window``.
        Each node episode yields its name exactly once until
        :meth:`reset`.
        """
        if now is None:
            now = self.monitor.env.now
        down_shards = set(self.monitor.down())
        latest = {}
        for detection in self.monitor.detections:
            if detection.shard_id in down_shards:
                latest[detection.shard_id] = detection
        newly_down = []
        nodes = sorted(set(self._assignment.values()))
        for node_name in nodes:
            if node_name in self._down:
                continue
            assigned = self.shards_on(node_name)
            if not assigned:
                continue
            suspected = [
                latest[shard_id] for shard_id in assigned
                if shard_id in latest
            ]
            required = max(1, math.ceil(len(assigned) * self.policy.quorum))
            if len(suspected) < required:
                continue
            times = [d.detected_at for d in suspected]
            if max(times) - min(times) > self.policy.correlation_window:
                continue
            self._down.add(node_name)
            verdict = NodeDetection(
                node=node_name,
                detected_at=max(times),
                shard_ids=tuple(assigned),
                onset=self._onsets.get(node_name),
                shard_detections=list(suspected),
            )
            self.detections.append(verdict)
            newly_down.append(node_name)
        return newly_down

    def detection_latencies(self):
        """Onset-to-verdict latencies for verdicts with onsets."""
        return [
            detection.detection_latency
            for detection in self.detections
            if detection.detection_latency is not None
        ]
