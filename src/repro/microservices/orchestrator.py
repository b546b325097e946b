"""The orchestrator: millisecond anomaly detection and reaction.

Paper Section VI (use case 2): "Orchestration services detect anomalies
within milliseconds, which requires adaptations to the virtual
infrastructure that hosts the application."

The orchestrator samples the QoS monitor on a fine period (default
0.5 ms of virtual time) and fires policy reactions when it sees:

- **latency anomaly**: a service's rolling average exceeds its SLO;
- **liveness anomaly**: a service missed its heartbeat deadline.

Reactions are pluggable; the built-ins restore the service's normal
speed (modelling a CPU-quota adjustment / migration away from a noisy
neighbour) and recover crashed services.  Every detection is recorded
with its virtual-time latency from anomaly onset, which is what the E4
benchmark reports.
"""

from dataclasses import dataclass
from typing import Optional

from repro.telemetry import DEFAULT_SECONDS_BUCKETS, default_registry


@dataclass
class OrchestratorPolicy:
    """Thresholds and sampling cadence."""

    sample_period: float = 0.0005        # 0.5 ms
    latency_slo: float = 0.005           # 5 ms rolling average
    heartbeat_timeout: float = 0.020     # 20 ms without a sign of life
    min_observations: int = 3
    reaction_cooldown: float = 0.050     # grace period after a reaction


@dataclass
class Detection:
    """One anomaly detection record."""

    service_name: str
    kind: str              # "latency" | "liveness" | externally reported
    detected_at: float
    onset: Optional[float] = None

    @property
    def detection_latency(self):
        """Seconds from (externally recorded) onset to detection."""
        if self.onset is None:
            return None
        return self.detected_at - self.onset


@dataclass
class RecoveryEpisode:
    """One detection-to-recovery episode reported by a subsystem.

    ``recovery_seconds`` is the virtual time the healing work itself
    took (respawn, re-attestation, state reload, replay), as measured
    by the reporting subsystem on whatever clock its work is charged
    to; ``detected_at``/``onset`` are on the orchestrator's simulated
    clock, mirroring :class:`Detection`.
    """

    service_name: str
    kind: str
    detected_at: float
    recovery_seconds: float
    onset: Optional[float] = None


class Orchestrator:
    """Samples QoS state and adapts the application."""

    def __init__(self, env, monitor, registry, policy=None,
                 on_detection=None):
        """``on_detection(detection, service_or_none)`` is invoked after
        the built-in reaction, letting deployments add adaptations --
        spawn a replica, migrate a container, page an operator."""
        self.env = env
        self.monitor = monitor
        self.registry = registry
        self.policy = policy or OrchestratorPolicy()
        self.on_detection = on_detection
        # The lists and the reactions count remain the functional
        # record (benchmarks and tests read them; the default registry
        # is a no-op) -- the metrics registry mirrors them.  Note
        # ``registry`` here is the *service* registry; the metrics
        # registry is the process default.
        self.detections = []
        self.recoveries = []
        self.reactions = 0
        self._metrics = default_registry()
        self._tel_reactions = self._metrics.counter("orchestrator.reactions")
        self._tel_recoveries = self._metrics.counter(
            "orchestrator.recovery_episodes"
        )
        self._tel_detection_latency = self._metrics.histogram(
            "orchestrator.detection_latency_seconds",
            buckets=DEFAULT_SECONDS_BUCKETS,
        )
        self._tel_recovery_seconds = self._metrics.histogram(
            "orchestrator.recovery_seconds", buckets=DEFAULT_SECONDS_BUCKETS
        )
        self._onsets = {}
        self._flagged = set()
        self._cooldown_until = {}

    def record_onset(self, service_name, time=None):
        """Tests/benchmarks call this when they inject an anomaly."""
        self._onsets[service_name] = time if time is not None else self.env.now

    def report_anomaly(self, name, kind, onset=None):
        """External subsystems report an anomaly they detected themselves.

        The recovery plane is wider than the QoS sampler: bus gap
        watchers, replicated brokers, and data-plane drivers detect
        their own failures.  Reporting routes those through the same
        detection record / reaction / ``on_detection`` pipeline, so one
        log carries every detection-to-recovery episode.
        """
        if onset is not None:
            self._onsets[name] = onset
        self._detect(name, kind, self.env.now)

    def report_recovery(self, name, kind, recovery_seconds,
                        detected_at=None, onset=None):
        """Record a completed detection-to-recovery episode.

        Self-healing subsystems (broker failover, shard respawn) call
        this once the replacement is serving again, so a single log
        carries every episode's onset, detection time, and how long the
        healing work took in virtual time.
        """
        episode = RecoveryEpisode(
            service_name=name,
            kind=kind,
            detected_at=(
                detected_at if detected_at is not None else self.env.now
            ),
            recovery_seconds=recovery_seconds,
            onset=onset if onset is not None else self._onsets.get(name),
        )
        self.recoveries.append(episode)
        self._tel_recoveries.inc()
        self._tel_recovery_seconds.observe(recovery_seconds)
        return episode

    def start(self, duration):
        """Run the sampling loop for ``duration`` of virtual time."""
        return self.env.process(self._loop(duration))

    def _loop(self, duration):
        deadline = self.env.now + duration
        while self.env.now < deadline:
            yield self.env.timeout(self.policy.sample_period)
            self._sample()

    def _sample(self):
        policy = self.policy
        now = self.env.now
        for name, state in self.monitor.metrics.items():
            if name in self._flagged:
                continue
            if now < self._cooldown_until.get(name, 0.0):
                continue
            if (
                state.events_handled >= policy.min_observations
                and state.average_latency() > policy.latency_slo
            ):
                self._detect(name, "latency", now)
            elif now - state.last_heartbeat > policy.heartbeat_timeout:
                self._detect(name, "liveness", now)

    def _detect(self, service_name, kind, now):
        detection = Detection(
            service_name=service_name,
            kind=kind,
            detected_at=now,
            onset=self._onsets.get(service_name),
        )
        self.detections.append(detection)
        self._metrics.counter("orchestrator.detections", kind=kind).inc()
        if detection.detection_latency is not None:
            self._tel_detection_latency.observe(detection.detection_latency)
        self._flagged.add(service_name)
        self._react(service_name, kind)
        if self.on_detection is not None:
            try:
                service = self.registry.lookup(service_name)
            except Exception:
                service = None
            self.on_detection(detection, service)

    def _react(self, service_name, kind):
        """Adapt the infrastructure hosting the service."""
        self.reactions += 1
        self._tel_reactions.inc()
        try:
            service = self.registry.lookup(service_name)
        except Exception:
            # Non-service anomalies (bus topics, brokers) have no
            # registry entry; unflag so the name can be detected again.
            self._flagged.discard(service_name)
            self._cooldown_until[service_name] = (
                self.env.now + self.policy.reaction_cooldown
            )
            return
        if kind == "latency":
            # Model a CPU-quota bump / migration off the contended host.
            service.slowdown = 1.0
        else:
            service.recover()
        # Clear rolling state so recovery is observable.
        state = self.monitor.metrics.get(service_name)
        if state is not None:
            state.recent_latencies.clear()
            state.last_heartbeat = self.env.now
        self._flagged.discard(service_name)
        self._cooldown_until[service_name] = (
            self.env.now + self.policy.reaction_cooldown
        )

    def detection_latencies(self):
        """Seconds from onset to detection, for recorded onsets."""
        return [
            detection.detection_latency
            for detection in self.detections
            if detection.detection_latency is not None
        ]

    def recovery_latencies(self):
        """Virtual seconds each reported recovery episode took to heal."""
        return [episode.recovery_seconds for episode in self.recoveries]
