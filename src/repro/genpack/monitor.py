"""Runtime monitoring of container resource usage.

GenPack "combines runtime monitoring of system containers to learn
their requirements and properties" with the generational scheduler.
The monitor periodically samples each running container's CPU usage;
the rolling estimate (:attr:`RunningContainer.observed_cpu`) is what
the young/old generations pack by.
"""


class ResourceMonitor:
    """Samples running containers once per simulation tick."""

    def __init__(self, workload, window=12, seed_stream=None):
        self.workload = workload
        self.window = window
        self.samples_taken = 0
        self._rng = seed_stream

    def sample_all(self, containers):
        """Record one usage sample for every running container."""
        for container in containers:
            sample = self.workload.sample_usage(container.spec, rng=self._rng)
            container.usage_samples.append(sample)
            if len(container.usage_samples) > self.window:
                del container.usage_samples[0]
            self.samples_taken += 1

    def is_profiled(self, container, minimum_samples=2):
        """Whether we have enough samples to trust the usage estimate."""
        return len(container.usage_samples) >= minimum_samples


class RequestOnlyMonitor(ResourceMonitor):
    """Ablation: monitoring disabled.

    Reports each container's *request* as its observed usage, so a
    generational scheduler on top of it still gets power management and
    generational segregation but no usage-based packing.  Isolates how
    much of GenPack's saving comes from runtime monitoring.
    """

    def sample_all(self, containers):
        for container in containers:
            container.usage_samples.append(container.spec.cpu_request)
            if len(container.usage_samples) > self.window:
                del container.usage_samples[0]
            self.samples_taken += 1
