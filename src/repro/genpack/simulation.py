"""The event-driven driver for scheduling experiments.

Replays a container trace against a scheduler over a cluster, sampling
the monitor on its period and integrating energy between events.  The
timeline is piecewise constant, so charging the pre-event power draw at
every event boundary is exact.
"""

import heapq
from dataclasses import dataclass, field

from repro.errors import SchedulingError
from repro.genpack.energy import EnergyMeter
from repro.genpack.monitor import ResourceMonitor
from repro.genpack.workload import RunningContainer

_ARRIVAL, _DEPARTURE, _TICK, _FAILURE = 0, 1, 2, 3


@dataclass
class SimulationResult:
    """Everything a scheduling run produced."""

    scheduler_name: str
    energy_kwh: float
    average_servers_on: float
    migrations: int
    rejected: int
    completed: int
    duration: float
    servers_on_timeline: list = field(default_factory=list)
    failures: int = 0
    stranded: int = 0

    def energy_savings_vs(self, other):
        """Fractional energy savings of this run versus ``other``."""
        if other.energy_kwh == 0:
            return 0.0
        return 1.0 - self.energy_kwh / other.energy_kwh


class ClusterSimulation:
    """Replays one trace against one scheduler."""

    def __init__(self, cluster, scheduler, workload, trace=None,
                 monitor=None, power_model=None, tick_period=300.0,
                 failures=()):
        """``failures`` is an iterable of ``(time, server_name)`` crash
        injections; orphaned containers are rescheduled by the
        scheduler's failure handler."""
        self.cluster = cluster
        self.scheduler = scheduler
        self.workload = workload
        self.trace = trace if trace is not None else workload.generate()
        self.monitor = monitor or ResourceMonitor(workload)
        self.meter = EnergyMeter(cluster, power_model)
        self.tick_period = tick_period
        self.failures = sorted(failures)

    def run(self, check_invariants_every=0):
        """Execute the trace; returns a :class:`SimulationResult`."""
        duration = self.workload.duration
        events = []
        for order, spec in enumerate(self.trace):
            heapq.heappush(events, (spec.arrival, _ARRIVAL, order, spec))
        tick_index = 1
        while tick_index * self.tick_period < duration:
            heapq.heappush(
                events, (tick_index * self.tick_period, _TICK, tick_index, None)
            )
            tick_index += 1
        for order, (when, server_name) in enumerate(self.failures):
            heapq.heappush(events, (when, _FAILURE, order, server_name))

        live = {}
        completed = 0
        stranded_total = 0
        timeline = []
        event_count = 0
        while events:
            time, kind, order, payload = heapq.heappop(events)
            self.meter.advance_to(time)
            if kind == _ARRIVAL:
                container = RunningContainer(spec=payload, placed_at=time)
                try:
                    self.scheduler.on_arrival(container, time)
                except SchedulingError:
                    continue
                live[payload.container_id] = container
                departure = min(payload.departure, duration)
                heapq.heappush(events, (departure, _DEPARTURE, order, payload))
            elif kind == _DEPARTURE:
                container = live.pop(payload.container_id, None)
                if container is not None and container.server is not None:
                    self.scheduler.on_departure(container, time)
                    completed += 1
            elif kind == _FAILURE:
                server = next(
                    (s for s in self.cluster.servers if s.name == payload),
                    None,
                )
                if server is not None and not server.failed:
                    stranded = self.scheduler.on_server_failure(server, time)
                    for container in stranded:
                        live.pop(container.spec.container_id, None)
                        stranded_total += 1
            else:  # tick
                self.monitor.sample_all(live.values())
                self.scheduler.on_tick(time)
                timeline.append((time, len(self.cluster.powered_on)))
            event_count += 1
            if check_invariants_every and event_count % check_invariants_every == 0:
                self.cluster.check_invariants()

        self.meter.advance_to(duration)
        return SimulationResult(
            scheduler_name=self.scheduler.name,
            energy_kwh=self.meter.energy_kwh,
            average_servers_on=self.meter.average_servers_on(),
            migrations=self.scheduler.migrations,
            rejected=self.scheduler.rejected,
            completed=completed,
            duration=duration,
            servers_on_timeline=timeline,
            failures=len(self.failures),
            stranded=stranded_total,
        )


def compare_schedulers(make_cluster, make_schedulers, workload, trace=None,
                       tick_period=300.0):
    """Run the same trace under several schedulers on fresh clusters.

    ``make_schedulers`` maps a fresh cluster (and monitor) to a list of
    scheduler instances is awkward to express; instead it is a list of
    factory callables, each receiving ``(cluster, monitor)``.
    """
    if trace is None:
        trace = workload.generate()
    results = {}
    for factory in make_schedulers:
        cluster = make_cluster()
        monitor = ResourceMonitor(workload)
        scheduler = factory(cluster, monitor)
        simulation = ClusterSimulation(
            cluster, scheduler, workload, trace=trace, monitor=monitor,
            tick_period=tick_period,
        )
        results[scheduler.name] = simulation.run()
    return results
