"""Tests for hosts and the container engine (Figure 2, right half)."""

import pytest

from repro.errors import AttestationError, CapacityError, ConfigurationError
from repro.crypto.keys import KeyHierarchy
from repro.crypto.primitives import DeterministicRandomSource
from repro.scone.cas import ConfigurationService
from repro.sgx.attestation import AttestationService
from repro.containers.client import SconeClient
from repro.containers.engine import ContainerEngine, ContainerState, Host
from repro.containers.image import Image, ImageConfig, Layer
from repro.containers.registry import Registry


def service_main(ctx, env):
    env.stdout.write(b"serving")
    return env.fs.read_all("/data/cfg")


ENTRY_POINTS = {"main": service_main}


@pytest.fixture()
def stack():
    """Registry + CAS + client + attestation-registered SGX host."""
    registry = Registry()
    attestation = AttestationService()
    cas = ConfigurationService(attestation)
    client = SconeClient(
        registry, cas,
        key_hierarchy=KeyHierarchy.generate(DeterministicRandomSource(3)),
    )
    host = Host("node-1", seed=21)
    attestation.register_platform(
        host.platform.platform_id, host.platform.quoting_enclave.public_key
    )
    engine = ContainerEngine(cas=cas)
    return registry, cas, client, host, engine


def plain_image(result=42):
    return Image(
        "plain-app",
        layers=[Layer({"/bin/app": b"#!"})],
        config=ImageConfig(labels={"plain-entrypoint": lambda: result}),
    )


class TestSecureContainers:
    def test_end_to_end_secure_run(self, stack):
        _registry, _cas, client, host, engine = stack
        client.build_and_publish(
            "svc", ENTRY_POINTS, protected_files={"/data/cfg": b"threshold=5"}
        )
        image = client.pull_verified("svc:latest")
        container = engine.create(image, host)
        assert container.is_secure
        assert container.run() == b"threshold=5"

    def test_secure_image_on_non_sgx_host_rejected(self, stack):
        _registry, _cas, client, _host, engine = stack
        client.build_and_publish("svc", ENTRY_POINTS,
                                 protected_files={"/data/cfg": b"x"})
        image = client.pull_verified("svc:latest")
        legacy = Host("legacy", sgx=False)
        with pytest.raises(ConfigurationError, match="SGX"):
            engine.create(image, legacy)

    def test_unattested_platform_rejected(self, stack):
        _registry, cas, client, _host, engine = stack
        client.build_and_publish("svc", ENTRY_POINTS,
                                 protected_files={"/data/cfg": b"x"})
        image = client.pull_verified("svc:latest")
        rogue_host = Host("rogue", seed=77)  # platform never registered
        with pytest.raises(AttestationError):
            engine.create(image, rogue_host)

    def test_engine_without_cas_rejects_secure_images(self, stack):
        _registry, _cas, client, host, _engine = stack
        client.build_and_publish("svc", ENTRY_POINTS,
                                 protected_files={"/data/cfg": b"x"})
        image = client.pull_verified("svc:latest")
        bare_engine = ContainerEngine()
        with pytest.raises(ConfigurationError, match="CAS"):
            bare_engine.create(image, host)

    def test_stop_tears_down_process(self, stack):
        _registry, _cas, client, host, engine = stack
        client.build_and_publish("svc", ENTRY_POINTS,
                                 protected_files={"/data/cfg": b"x"})
        container = engine.create(client.pull_verified("svc:latest"), host)
        container.run()
        container.stop(exit_value=0)
        assert container.state is ContainerState.EXITED
        with pytest.raises(ConfigurationError):
            container.run()


class TestUniformApi:
    def test_plain_and_secure_share_engine_api(self, stack):
        _registry, _cas, client, host, engine = stack
        client.build_and_publish("svc", ENTRY_POINTS,
                                 protected_files={"/data/cfg": b"x"})
        secure = engine.create(client.pull_verified("svc:latest"), host)
        plain = engine.create(plain_image(), host)
        # Same lifecycle, same calls -- the infrastructure cannot tell.
        assert plain.run() == 42
        assert secure.run() == b"x"
        for container in (secure, plain):
            container.stop()
            assert container.state is ContainerState.EXITED
        assert engine.launched == 2

    def test_plain_image_without_entrypoint(self, stack):
        _registry, _cas, _client, host, engine = stack
        image = Image("broken", layers=[Layer({"/a": b"1"})])
        container = engine.create(image, host)
        with pytest.raises(ConfigurationError):
            container.run()


class TestHostCapacity:
    def test_fits_accounting(self):
        host = Host("node", cpu_cores=4, memory_mb=1024, sgx=False)
        assert host.fits(4, 1024)
        assert not host.fits(5, 10)

    def test_engine_respects_capacity(self, stack):
        _registry, _cas, _client, _host, engine = stack
        small = Host("small", cpu_cores=2, memory_mb=1024, sgx=False)
        engine.create(plain_image(), small, cpu_cores=2, memory_mb=512)
        with pytest.raises(CapacityError):
            engine.create(plain_image(), small, cpu_cores=1, memory_mb=128)

    def test_exited_containers_release_capacity(self, stack):
        _registry, _cas, _client, _host, engine = stack
        small = Host("small", cpu_cores=2, memory_mb=1024, sgx=False)
        first = engine.create(plain_image(), small, cpu_cores=2)
        first.stop()
        engine.create(plain_image(), small, cpu_cores=2)
        assert small.cpu_allocated == 2
