"""End-to-end deployment: from descriptor to running attested services.

The pipeline per service (Figures 1 + 2 combined):

1. **Trusted build**: the SCONE client builds a secure image whose
   enclave code is the micro-service frame, whose protected files are
   the service's secrets, and whose SCF environment carries the AEAD
   keys for the service's topics.  The SCF is registered with the CAS
   under the enclave measurement; the image digest is signed.
2. **Untrusted distribution**: the image travels through the registry;
   the operator side pulls it and verifies the creator's signature.
3. **Placement**: a (round-robin) placement over the SGX hosts; the
   container engine boots the enclave, which is attested by the CAS
   before the SCF -- and with it the topic keys -- is released.
4. **Wiring**: the booted enclave is wrapped as a
   :class:`~repro.microservices.service.MicroService` subscribed to its
   topics; QoS monitoring and the orchestrator are attached.
"""

from repro.errors import ConfigurationError
from repro.crypto.aead import AeadKey
from repro.crypto.keys import KeyHierarchy
from repro.containers.client import SconeClient
from repro.containers.engine import ContainerEngine, Host
from repro.containers.registry import Registry
from repro.microservices.eventbus import EventBus, SealedEvent
from repro.microservices.orchestrator import Orchestrator
from repro.microservices.qos import QosMonitor
from repro.microservices.registry import ServiceRegistry
from repro.microservices.service import SERVICE_ENTRY_POINTS, MicroService
from repro.scone.cas import ConfigurationService
from repro.sgx.attestation import AttestationService
from repro.sim.events import Environment

_TOPIC_KEY_PREFIX = "SCONE_TOPIC_KEY_"


class SecureCloudPlatform:
    """A SecureCloud installation: hosts, CAS, registry, bus."""

    def __init__(self, hosts=2, seed=0):
        if hosts < 1:
            raise ConfigurationError("need at least one host")
        self.env = Environment()
        self.bus = EventBus(self.env)
        self.attestation = AttestationService()
        self.cas = ConfigurationService(self.attestation)
        self.registry = Registry()
        self.hosts = [
            Host("host-%02d" % index, seed=seed + index) for index in range(hosts)
        ]
        for host in self.hosts:
            self.attestation.register_platform(
                host.platform.platform_id,
                host.platform.quoting_enclave.public_key,
            )
        self.engine = ContainerEngine(cas=self.cas)
        self.qos = QosMonitor(self.env)
        self.service_registry = ServiceRegistry()
        self._deployments = 0

    def deploy(self, application, key_hierarchy=None):
        """Deploy an :class:`ApplicationSpec`; returns a Deployment."""
        keys = key_hierarchy or KeyHierarchy.generate()
        topic_keys = {
            topic: keys.aead_key("topic", topic)
            for topic in application.topics()
        }
        client = SconeClient(
            self.registry, self.cas,
            key_hierarchy=keys.subhierarchy("images", application.name),
            key_bits=512,
        )
        deployment = Deployment(self, application, topic_keys)
        for index, spec in enumerate(application.services):
            service_topics = spec.topics()
            environment = {
                _TOPIC_KEY_PREFIX + topic: topic_keys[topic].key_bytes.hex()
                for topic in service_topics
            }
            image_name = "%s/%s" % (application.name, spec.name)
            client.build_and_publish(
                image_name,
                SERVICE_ENTRY_POINTS,
                protected_files=spec.protected_files,
                environment=environment,
            )
            image = client.pull_verified(image_name + ":latest")
            host = self.hosts[index % len(self.hosts)]
            container = self.engine.create(image, host)
            # The enclave's topic keys come from its attested SCF.
            scf_environment = container.process.env.environment
            enclave_keys = {
                name[len(_TOPIC_KEY_PREFIX):]: AeadKey(bytes.fromhex(value))
                for name, value in scf_environment.items()
                if name.startswith(_TOPIC_KEY_PREFIX)
            }
            service = MicroService(
                spec.name,
                host.platform,
                self.bus,
                spec.handlers,
                enclave_keys,
                enclave=container.process.enclave,
            )
            self.qos.attach(service)
            self.service_registry.register(service)
            deployment.add_service(service, container)
        deployment.orchestrator = Orchestrator(
            self.env, self.qos, self.service_registry
        )
        self._deployments += 1
        return deployment


class Deployment:
    """A running application."""

    def __init__(self, platform, application, topic_keys):
        self.platform = platform
        self.application = application
        self.topic_keys = topic_keys
        self.services = {}
        self.containers = {}
        self.orchestrator = None
        self._collected = {}

    def add_service(self, service, container):
        """Record one deployed service."""
        self.services[service.name] = service
        self.containers[service.name] = container

    def ingest(self, topic, payload, sender="ingress"):
        """Seal and publish an external input (trusted data source)."""
        key = self.topic_keys.get(topic)
        if key is None:
            raise ConfigurationError("application has no topic %r" % topic)
        sequence = self.platform.bus.next_sequence(topic)
        event = SealedEvent.seal(key, topic, sender, sequence, payload)
        return self.platform.bus.publish(event)

    def collect(self, topic):
        """Subscribe to and decrypt an output topic (trusted consumer).

        Returns the list that accumulates decrypted payloads.
        """
        key = self.topic_keys.get(topic)
        if key is None:
            raise ConfigurationError("application has no topic %r" % topic)
        sink = self._collected.setdefault(topic, [])

        def receive(event):
            sink.append(event.open(key))

        self.platform.bus.subscribe(topic, receive)
        return sink

    def run(self, until=None):
        """Advance the virtual clock (drains the bus)."""
        self.platform.env.run(until=until)

    def stats(self):
        """Per-service handled-event counters."""
        return {
            name: service.stats()["handled"]
            for name, service in self.services.items()
        }

    def stop(self):
        """Stop all containers."""
        for container in self.containers.values():
            container.stop()
