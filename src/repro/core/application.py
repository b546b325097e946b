"""Application descriptors.

An application (paper Figure 1) is a set of micro-services connected by
event-bus topics.  The descriptor is pure data; deployment turns it
into running, attested enclaves.
"""

from dataclasses import dataclass, field

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ServiceSpec:
    """One micro-service of an application.

    ``handlers`` maps input topics to in-enclave handler functions;
    ``output_topics`` declares where the handlers may publish;
    ``protected_files`` are secrets baked (encrypted) into the service's
    image -- model parameters, thresholds, credentials.
    """

    name: str
    handlers: dict
    output_topics: tuple = ()
    protected_files: dict = field(default_factory=dict)

    def topics(self):
        """Every topic this service touches."""
        return sorted(set(self.handlers) | set(self.output_topics))


class ApplicationSpec:
    """A named set of services forming one application."""

    def __init__(self, name, services):
        if not services:
            raise ConfigurationError("an application needs at least one service")
        names = [service.name for service in services]
        if len(set(names)) != len(names):
            raise ConfigurationError("service names must be unique")
        self.name = name
        self.services = list(services)

    def topics(self):
        """All topics any service touches (the bus's vocabulary)."""
        topics = set()
        for service in self.services:
            topics.update(service.topics())
        return sorted(topics)

    def external_input_topics(self):
        """Topics consumed but never produced -- the app's data inputs."""
        consumed, produced = set(), set()
        for service in self.services:
            consumed.update(service.handlers)
            produced.update(service.output_topics)
        return sorted(consumed - produced)

    def external_output_topics(self):
        """Topics produced but never consumed -- the app's results."""
        consumed, produced = set(), set()
        for service in self.services:
            consumed.update(service.handlers)
            produced.update(service.output_topics)
        return sorted(produced - consumed)
