"""Integration scenario for the paper's Figure 2.

The full secure-container workflow against a *hostile* distribution
chain: trusted build -> untrusted registry -> customisation -> SGX host
-> attested boot -> SCF delivery -> execution, with attacks at every
untrusted step.
"""

import pytest

from repro.errors import AttestationError, IntegrityError
from repro.crypto.keys import KeyHierarchy
from repro.crypto.primitives import DeterministicRandomSource
from repro.containers.client import SconeClient
from repro.containers.engine import ContainerEngine, Host
from repro.containers.image import FSPF_PATH
from repro.containers.registry import Registry
from repro.scone.cas import ConfigurationService
from repro.sgx.attestation import AttestationService


def analytics_main(ctx, env):
    model = env.fs.read_all("/opt/model.bin")
    config = env.fs.read_all("/opt/config.json")
    env.stdout.write(b"loaded %d model bytes" % len(model))
    return (len(model), config)


ENTRY_POINTS = {"main": analytics_main}
MODEL = b"\x07\x13" * 4000  # 8 KB of "weights"


@pytest.fixture()
def world():
    registry = Registry()
    attestation = AttestationService()
    cas = ConfigurationService(attestation)
    client = SconeClient(
        registry, cas,
        key_hierarchy=KeyHierarchy.generate(DeterministicRandomSource(83)),
    )
    host = Host("sgx-node", seed=97)
    attestation.register_platform(
        host.platform.platform_id, host.platform.quoting_enclave.public_key
    )
    engine = ContainerEngine(cas=cas)
    return registry, attestation, cas, client, host, engine


class TestFigure2Workflow:
    def test_happy_path(self, world):
        _registry, _att, _cas, client, host, engine = world
        client.build_and_publish(
            "analytics", ENTRY_POINTS,
            protected_files={
                "/opt/model.bin": MODEL,
                "/opt/config.json": b'{"mode": "prod"}',
            },
        )
        image = client.pull_verified("analytics:latest")
        container = engine.create(image, host)
        size, config = container.run()
        assert size == len(MODEL)
        assert config == b'{"mode": "prod"}'

    def test_registry_never_sees_secrets(self, world):
        registry, _att, _cas, client, _host, _engine = world
        client.build_and_publish(
            "analytics", ENTRY_POINTS, protected_files={"/opt/model.bin": MODEL}
        )
        stored = registry.pull("analytics:latest")
        for blob in stored.flatten().values():
            assert MODEL[:64] not in blob

    def test_tampered_model_chunk_detected_at_runtime(self, world):
        registry, _att, _cas, client, host, engine = world
        client.build_and_publish(
            "analytics", ENTRY_POINTS, protected_files={"/opt/model.bin": MODEL}
        )
        image = registry.pull("analytics:latest")
        chunk_paths = [
            path for path in image.layers[0].files
            if "model.bin" in path
        ]
        corrupted = dict(image.layers[0].files)
        target = chunk_paths[0]
        corrupted_blob = bytearray(corrupted[target])
        corrupted_blob[20] ^= 0x01
        registry.tamper_layer(
            "analytics:latest", 0, target, bytes(corrupted_blob)
        )
        # Signature check catches it first (client-side)...
        with pytest.raises(IntegrityError):
            client.pull_verified("analytics:latest")
        # ...and even a careless operator that skips verification is
        # stopped by the FS shield inside the enclave.
        careless_image = registry.pull("analytics:latest")
        container = engine.create(careless_image, host)
        with pytest.raises(IntegrityError):
            container.run()

    def test_forged_fspf_detected(self, world):
        registry, _att, _cas, client, host, engine = world
        client.build_and_publish(
            "analytics", ENTRY_POINTS, protected_files={"/opt/model.bin": MODEL}
        )
        registry.tamper_layer("analytics:latest", 0, FSPF_PATH, b"forged")
        careless_image = registry.pull("analytics:latest")
        with pytest.raises(IntegrityError):
            engine.create(careless_image, host)

    def test_swapped_enclave_code_denied_scf(self, world):
        _registry, _att, cas, client, host, engine = world
        client.build_and_publish(
            "analytics", ENTRY_POINTS, protected_files={"/opt/model.bin": MODEL}
        )
        image = client.pull_verified("analytics:latest")

        def exfiltrate_main(ctx, env):
            return env.fs.read_all("/opt/model.bin")

        from repro.sgx.enclave import EnclaveCode
        from repro.containers.image import Image

        evil = Image(
            image.name, image.tag, image.layers, image.config,
            enclave_code=EnclaveCode("analytics", {"main": exfiltrate_main}),
        )
        with pytest.raises(AttestationError):
            engine.create(evil, host)
        assert cas.denied >= 1

    def test_rogue_host_denied(self, world):
        _registry, _att, _cas, client, _host, engine = world
        client.build_and_publish(
            "analytics", ENTRY_POINTS, protected_files={"/opt/model.bin": MODEL}
        )
        image = client.pull_verified("analytics:latest")
        rogue = Host("rogue-node", seed=123)  # platform not registered
        with pytest.raises(AttestationError):
            engine.create(image, rogue)

    def test_customisation_keeps_base_protected(self, world):
        _registry, _att, _cas, client, host, engine = world
        client.build_and_publish(
            "analytics", ENTRY_POINTS,
            protected_files={
                "/opt/model.bin": MODEL,
                "/opt/config.json": b'{"mode": "prod"}',
            },
        )
        customised = client.customize(
            "analytics:latest", {"/etc/region": b"eu-west"}, new_tag="eu"
        )
        image = client.pull_verified("analytics:eu")
        container = engine.create(image, host)
        size, config = container.run()
        assert size == len(MODEL)
        assert config == b'{"mode": "prod"}'
        assert image.flatten()["/etc/region"] == b"eu-west"
        assert customised.digest == image.digest

    def test_stdout_of_container_is_shielded(self, world):
        _registry, _att, cas, client, host, engine = world
        result = client.build_and_publish(
            "analytics", ENTRY_POINTS,
            protected_files={
                "/opt/model.bin": MODEL,
                "/opt/config.json": b"{}",
            },
        )
        image = client.pull_verified("analytics:latest")
        container = engine.create(image, host)
        container.run()
        transport = container.process.stdout_transport
        assert transport
        assert all(b"model bytes" not in record for record in transport)
        # The legitimate consumer (holding the SCF keys) can read it.
        from repro.scone.stream_shield import ShieldedStreamReader

        reader = ShieldedStreamReader(
            result.scf.stdout_key, "stdout", list(transport)
        )
        assert b"loaded 8000 model bytes" == reader.drain()
