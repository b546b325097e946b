"""Hosts and the container engine.

The engine runs secure and regular containers through the *same* API --
the paper's requirement that "secure containers are indistinguishable
from regular containers" from the infrastructure's perspective.  For a
secure image the engine transparently reconstructs the untrusted chunk
store from the image layers and boots a SCONE process on the host's SGX
platform; for a plain image it simply invokes the entrypoint.
"""

import enum
import itertools

from repro.errors import CapacityError, ConfigurationError
from repro.scone.fs_shield import UntrustedStore
from repro.scone.runtime import SconeProcess
from repro.sgx.platform import SgxPlatform

_container_ids = itertools.count(1)


class ContainerState(enum.Enum):
    """Lifecycle states."""

    CREATED = "created"
    RUNNING = "running"
    EXITED = "exited"


class Host:
    """One machine in the data center."""

    def __init__(self, name, cpu_cores=8, memory_mb=32_768, sgx=True,
                 seed=None):
        self.name = name
        self.cpu_cores = cpu_cores
        self.memory_mb = memory_mb
        self.sgx = sgx
        if sgx:
            self.platform = SgxPlatform(seed=seed, quoting_key_bits=512)
        else:
            self.platform = None
        self.containers = []

    @property
    def cpu_allocated(self):
        """Cores promised to non-exited containers."""
        return sum(
            container.cpu_cores
            for container in self.containers
            if container.state is not ContainerState.EXITED
        )

    @property
    def memory_allocated(self):
        """Memory promised to non-exited containers (MB)."""
        return sum(
            container.memory_mb
            for container in self.containers
            if container.state is not ContainerState.EXITED
        )

    def fits(self, cpu_cores, memory_mb):
        """Whether the host can take one more container of this size."""
        return (
            self.cpu_allocated + cpu_cores <= self.cpu_cores
            and self.memory_allocated + memory_mb <= self.memory_mb
        )


class Container:
    """One (possibly secure) container instance on a host."""

    def __init__(self, image, host, cpu_cores=1, memory_mb=512):
        self.container_id = "c%06d" % next(_container_ids)
        self.image = image
        self.host = host
        self.cpu_cores = cpu_cores
        self.memory_mb = memory_mb
        self.state = ContainerState.CREATED
        self.exit_value = None
        self.process = None  # SconeProcess for secure images

    @property
    def is_secure(self):
        """Whether this container runs inside an enclave."""
        return self.image.is_secure

    def run(self, *args, **kwargs):
        """Execute the image entrypoint; returns its result."""
        if self.state is ContainerState.EXITED:
            raise ConfigurationError("container %s has exited" % self.container_id)
        self.state = ContainerState.RUNNING
        if self.process is not None:
            result = self.process.run(self.image.config.entrypoint, *args, **kwargs)
        else:
            entrypoint = self.image.config.labels.get("plain-entrypoint")
            if entrypoint is None:
                raise ConfigurationError(
                    "plain image %s has no runnable entrypoint"
                    % self.image.reference
                )
            result = entrypoint(*args, **kwargs)
        return result

    def stop(self, exit_value=None):
        """Terminate the container."""
        if self.process is not None:
            self.process.stop()
        self.state = ContainerState.EXITED
        self.exit_value = exit_value


class ContainerEngine:
    """Creates containers from images on hosts -- one API for both kinds."""

    def __init__(self, cas=None):
        self.cas = cas
        self.launched = 0

    def create(self, image, host, cpu_cores=1, memory_mb=512):
        """Create (and for secure images, boot+attest) a container."""
        if not host.fits(cpu_cores, memory_mb):
            raise CapacityError(
                "host %s cannot fit a %d-core/%d MB container"
                % (host.name, cpu_cores, memory_mb)
            )
        container = Container(image, host, cpu_cores, memory_mb)
        if image.is_secure:
            if not host.sgx:
                raise ConfigurationError(
                    "host %s has no SGX support for secure image %s"
                    % (host.name, image.reference)
                )
            if self.cas is None:
                raise ConfigurationError(
                    "engine needs a CAS to launch secure containers"
                )
            store = UntrustedStore()
            for (path, index), blob in image.protected_chunks().items():
                store.put(path, index, blob)
            process = SconeProcess(
                host.platform,
                image.enclave_code,
                self.cas,
                store=store,
                fspf_blob=image.fspf_blob(),
            )
            process.start()  # raises AttestationError for unknown code
            container.process = process
        host.containers.append(container)
        self.launched += 1
        return container
