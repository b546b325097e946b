"""Container arrival traces for the scheduling experiments.

Models the "typical data-center workload" mix the GenPack evaluation
uses: a majority of short-lived batch jobs (heavy-tailed lifetimes),
long-running service containers, and a few system containers.  The key
property GenPack exploits is *request inflation*: operators request
more resources than containers use (commonly 1.5-2x in cluster traces),
so packing by observed usage fits more containers per server.
"""

from dataclasses import dataclass, field
from typing import Optional

from repro.sim.rng import RandomStream

HOUR = 3600.0


@dataclass(frozen=True)
class ContainerSpec:
    """The immutable description of one container."""

    container_id: str
    arrival: float
    lifetime: float
    cpu_request: float
    mem_request: float
    cpu_usage_mean: float     # true mean usage (cores), <= request
    workload_class: str       # "batch" | "service" | "system"

    @property
    def departure(self):
        return self.arrival + self.lifetime


@dataclass
class RunningContainer:
    """Scheduler-side state of a placed container."""

    spec: ContainerSpec
    server: Optional[object] = field(default=None, init=False)
    generation: str = field(default="nursery", init=False)
    placed_at: float = 0.0
    migrations: int = field(default=0, init=False)
    usage_samples: list = field(default_factory=list, init=False)

    @property
    def observed_cpu(self):
        """The monitor's current usage estimate (cores).

        Before any sample arrives the scheduler must assume the full
        request -- exactly why GenPack keeps unprofiled containers in
        the nursery.
        """
        if not self.usage_samples:
            return self.spec.cpu_request
        return sum(self.usage_samples) / len(self.usage_samples)


class ContainerWorkload:
    """Generates a deterministic container arrival trace."""

    def __init__(self, seed=0, duration=24 * HOUR, arrival_rate_per_hour=40.0,
                 batch_fraction=0.7, service_fraction=0.25,
                 request_inflation=1.8):
        self.rng = RandomStream(seed).child("genpack-workload")
        self.duration = duration
        self.arrival_rate_per_hour = arrival_rate_per_hour
        self.batch_fraction = batch_fraction
        self.service_fraction = service_fraction
        self.request_inflation = request_inflation

    def _class_of(self):
        draw = self.rng.random()
        if draw < self.batch_fraction:
            return "batch"
        if draw < self.batch_fraction + self.service_fraction:
            return "service"
        return "system"

    def _lifetime(self, workload_class):
        if workload_class == "batch":
            # Heavy-tailed: minutes to a few hours.
            return self.rng.bounded_pareto(1.3, 300.0, 6 * HOUR)
        if workload_class == "service":
            # Long-running: several hours to beyond the trace.
            return self.rng.uniform(6 * HOUR, 48 * HOUR)
        return 72 * HOUR  # system containers effectively never leave

    def _sizes(self, workload_class):
        if workload_class == "batch":
            usage = self.rng.uniform(0.5, 3.0)
            memory = self.rng.uniform(1.0, 8.0)
        elif workload_class == "service":
            usage = self.rng.uniform(0.5, 2.0)
            memory = self.rng.uniform(2.0, 12.0)
        else:
            usage = self.rng.uniform(0.2, 1.0)
            memory = self.rng.uniform(0.5, 4.0)
        request = usage * self.request_inflation
        return request, memory, usage

    def generate(self):
        """The full trace, sorted by arrival time."""
        specs = []
        time = 0.0
        index = 0
        rate_per_second = self.arrival_rate_per_hour / HOUR
        while True:
            time += self.rng.expovariate(rate_per_second)
            if time >= self.duration:
                break
            workload_class = self._class_of()
            cpu_request, mem_request, usage = self._sizes(workload_class)
            specs.append(
                ContainerSpec(
                    container_id="ct-%05d" % index,
                    arrival=time,
                    lifetime=self._lifetime(workload_class),
                    cpu_request=round(cpu_request, 2),
                    mem_request=round(mem_request, 2),
                    cpu_usage_mean=round(usage, 2),
                    workload_class=workload_class,
                )
            )
            index += 1
        return specs

    def sample_usage(self, spec, rng=None):
        """One monitoring sample of the container's CPU usage (cores)."""
        stream = rng or self.rng
        noisy = spec.cpu_usage_mean * stream.uniform(0.85, 1.15)
        return max(0.05, min(noisy, spec.cpu_request))
