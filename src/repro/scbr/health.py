"""Failure detection for the sharded SCBR matching plane.

The paper's orchestration story (Section VI, Figure 5) is dominated by
*detection*: ~2.4 s from failure to recovery, most of it spent noticing
that anything failed at all.  The sharded plane cannot afford even a
fraction of that silently -- a dead shard's partition simply stops
matching, which is a correctness hole, not just a latency blip.  This
module supplies the noticing:

- :class:`ShardHealthPolicy` -- heartbeat cadence and suspicion
  thresholds;
- :class:`ShardHealthMonitor` -- a phi-accrual-style failure detector
  (Hayashibara et al.) over heartbeats on the *simulated* clock: each
  shard's inter-heartbeat intervals feed a sliding window, and the
  suspicion level ``phi`` grows with the time since the last beat
  measured in units of the observed mean interval.  Crossing
  ``phi_threshold`` declares the shard down exactly once per outage
  episode; a recovered shard re-registers and starts clean.

The monitor never touches enclaves itself.  The plane driver probes its
shards (a cheap ``ping`` ecall) each period and reports the beats that
actually arrived; a destroyed enclave or a chaos-dropped heartbeat
simply fails to beat, and suspicion accrues.  Lost heartbeats from a
*live* shard can therefore cause a false positive -- the accepted cost
of any timeout-style detector -- which the plane's recovery path
handles safely: respawn-from-snapshot is idempotent with respect to the
partition's contents.
"""

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError

# log10(e): converts the exponential-model survival probability
# exp(-t/mean) into the phi scale -log10(P) = (t/mean) * log10(e).
_LOG10_E = math.log10(math.e)


@dataclass(frozen=True)
class ShardHealthPolicy:
    """Cadence and thresholds of the shard failure detector."""

    heartbeat_period: float = 0.0005   # 0.5 ms, the orchestrator's cadence
    phi_threshold: float = 4.0         # suspicion level that means "down"
    window: int = 32                   # inter-arrival samples retained
    min_samples: int = 3               # before this, use startup_timeout
    startup_timeout: float = 0.005     # fixed timeout while the window fills

    def __post_init__(self):
        if self.heartbeat_period <= 0.0:
            raise ConfigurationError("heartbeat_period must be positive")
        if self.phi_threshold <= 0.0:
            raise ConfigurationError("phi_threshold must be positive")
        if self.window < 1 or self.min_samples < 1:
            raise ConfigurationError("window sizes must be >= 1")
        if self.startup_timeout <= 0.0:
            raise ConfigurationError("startup_timeout must be positive")


@dataclass
class ShardDetection:
    """One shard-down verdict from the detector."""

    shard_id: int
    detected_at: float
    phi: float
    onset: Optional[float] = None

    @property
    def detection_latency(self):
        """Seconds from (externally recorded) onset to detection."""
        if self.onset is None:
            return None
        return self.detected_at - self.onset


class ShardHealthMonitor:
    """Phi-style accrual failure detection over shard heartbeats.

    Tracks, per registered shard, the last heartbeat time and a sliding
    window of inter-arrival intervals.  :meth:`poll` returns the shards
    that just crossed the suspicion threshold (each at most once per
    outage); the caller reacts -- respawning the shard, reporting the
    anomaly -- and calls :meth:`register` again once the replacement
    serves, which resets the episode.
    """

    def __init__(self, env, policy=None):
        self.env = env
        self.policy = policy or ShardHealthPolicy()
        self.detections = []
        self._last = {}
        self._intervals = {}
        self._down = set()
        self._onsets = {}

    # -- bookkeeping ----------------------------------------------------

    def register(self, shard_id):
        """Start (or restart) tracking a shard as of now.

        Called when a shard joins the plane and again when a
        replacement finishes recovery; either way the shard begins a
        fresh episode with an empty suspicion history.
        """
        self._last[shard_id] = self.env.now
        self._intervals[shard_id] = deque(maxlen=self.policy.window)
        self._down.discard(shard_id)
        self._onsets.pop(shard_id, None)

    def forget(self, shard_id):
        """Stop tracking a shard entirely.

        The shard's latched detections are purged along with its
        interval history and episode state: a later re-register of the
        same id is a brand-new shard as far as the detector is
        concerned -- clean phi estimate, no ghost verdicts for
        node-level correlation to trip over.
        """
        self._last.pop(shard_id, None)
        self._intervals.pop(shard_id, None)
        self._down.discard(shard_id)
        self._onsets.pop(shard_id, None)
        self.detections = [
            detection for detection in self.detections
            if detection.shard_id != shard_id
        ]

    def record_onset(self, shard_id, time=None):
        """Fault injectors call this so detection latency is measurable."""
        self._onsets[shard_id] = time if time is not None else self.env.now

    def beat(self, shard_id):
        """A heartbeat from ``shard_id`` arrived now."""
        if shard_id not in self._last:
            self.register(shard_id)
            return
        now = self.env.now
        interval = now - self._last[shard_id]
        if interval > 0.0:
            self._intervals[shard_id].append(interval)
        self._last[shard_id] = now

    # -- suspicion ------------------------------------------------------

    def phi(self, shard_id, now=None):
        """Current suspicion level for ``shard_id``.

        With fewer than ``min_samples`` observed intervals the detector
        falls back to a fixed startup timeout (phi jumps past the
        threshold once ``startup_timeout`` elapses beat-free);
        afterwards phi is the exponential-model accrual
        ``(elapsed / mean_interval) * log10(e)``.
        """
        if shard_id not in self._last:
            raise ConfigurationError("shard %r is not tracked" % (shard_id,))
        now = self.env.now if now is None else now
        elapsed = now - self._last[shard_id]
        if elapsed <= 0.0:
            return 0.0
        intervals = self._intervals[shard_id]
        if len(intervals) < self.policy.min_samples:
            if elapsed >= self.policy.startup_timeout:
                return self.policy.phi_threshold
            return 0.0
        mean = sum(intervals) / len(intervals)
        return (elapsed / mean) * _LOG10_E

    def suspects(self, shard_id):
        """Whether ``shard_id``'s suspicion crossed the threshold."""
        return self.phi(shard_id) >= self.policy.phi_threshold

    def tracked(self):
        """Shard ids currently tracked."""
        return sorted(self._last)

    def poll(self):
        """Shards that just went from healthy to suspected-down.

        Each outage episode yields the shard id exactly once (further
        polls skip shards already declared down until :meth:`register`
        resets them); a :class:`ShardDetection` is logged per verdict.
        """
        newly_down = []
        now = self.env.now
        for shard_id in sorted(self._last):
            if shard_id in self._down:
                continue
            level = self.phi(shard_id, now)
            if level >= self.policy.phi_threshold:
                self._down.add(shard_id)
                self.detections.append(
                    ShardDetection(
                        shard_id=shard_id,
                        detected_at=now,
                        phi=level,
                        onset=self._onsets.get(shard_id),
                    )
                )
                newly_down.append(shard_id)
        return newly_down

    def down(self):
        """Shard ids currently declared down."""
        return sorted(self._down)

    def detection_latencies(self):
        """Onset-to-detection latencies for detections with onsets."""
        return [
            detection.detection_latency
            for detection in self.detections
            if detection.detection_latency is not None
        ]
