"""QoS monitoring, resource accounting, and billing.

The secure-container layer "monitors hardware usage to detect resource
bottlenecks and allows for accounting and billing" (Section III-B).
The monitor ingests per-event handling observations and heartbeats from
services and keeps rolling latency/throughput statistics per service;
the orchestrator consumes them; the billing report prices accumulated
usage.
"""

from dataclasses import dataclass, field

from repro.telemetry import DEFAULT_SECONDS_BUCKETS, default_registry


@dataclass
class ServiceMetrics:
    """Rolling QoS state for one service."""

    name: str
    events_handled: int = field(default=0, init=False)
    busy_seconds: float = field(default=0.0, init=False)
    last_heartbeat: float = field(default=0.0, init=False)
    recent_latencies: list = field(default_factory=list, init=False)
    window: int = 50

    def observe(self, latency, now):
        self.events_handled += 1
        self.busy_seconds += latency
        self.last_heartbeat = now
        self.recent_latencies.append(latency)
        if len(self.recent_latencies) > self.window:
            del self.recent_latencies[0]

    def average_latency(self):
        """Mean handling latency over the rolling window."""
        if not self.recent_latencies:
            return 0.0
        return sum(self.recent_latencies) / len(self.recent_latencies)


class QosMonitor:
    """Aggregates observations from all services of an application."""

    def __init__(self, env):
        self.env = env
        self.metrics = {}
        # ServiceMetrics stays the functional store (billing and the
        # orchestrator read it); the registry mirrors the counts so an
        # enabled-telemetry run sees per-service QoS without touching
        # the billing path.
        self._registry = default_registry()
        self._tel_latency = self._registry.histogram(
            "qos.handling_latency_seconds", buckets=DEFAULT_SECONDS_BUCKETS
        )
        self._tel_heartbeats = self._registry.counter("qos.heartbeats")

    def attach(self, service):
        """Start observing a service."""
        state = self.metrics.setdefault(
            service.name, ServiceMetrics(service.name)
        )
        state.last_heartbeat = self.env.now
        service.add_observer(self._observe)
        return state

    def _observe(self, service, _event, latency):
        state = self.metrics[service.name]
        state.observe(latency, self.env.now)
        self._registry.counter(
            "qos.events_handled", service=service.name
        ).inc()
        self._tel_latency.observe(latency)

    def heartbeat(self, service_name):
        """Explicit liveness signal (services emit these periodically)."""
        state = self.metrics.get(service_name)
        if state is not None:
            state.last_heartbeat = self.env.now
            self._tel_heartbeats.inc()

    def of(self, service_name):
        """Metrics for one service."""
        return self.metrics[service_name]

    def billing_report(self, cpu_second_price=0.00005):
        """Price the accumulated busy time per service."""
        lines = {
            name: state.busy_seconds * cpu_second_price
            for name, state in self.metrics.items()
        }
        return BillingReport(lines=lines, total=sum(lines.values()))


@dataclass(frozen=True)
class BillingReport:
    """What the tenant owes, per service and in total."""

    lines: dict
    total: float
