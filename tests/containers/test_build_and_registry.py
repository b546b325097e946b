"""Tests for the secure build pipeline, registry, and SCONE client."""

import pytest

from repro.errors import ConfigurationError, IntegrityError
from repro.crypto.keys import KeyHierarchy
from repro.crypto.primitives import DeterministicRandomSource
from repro.crypto.rsa import RsaKeyPair
from repro.scone.cas import ConfigurationService
from repro.scone.fs_shield import FsProtectionFile, ProtectedVolume, UntrustedStore
from repro.sgx.attestation import AttestationService
from repro.containers.build import SecureImageBuilder
from repro.containers.client import SconeClient
from repro.containers.image import FSPF_PATH
from repro.containers.registry import Registry


def service_main(ctx, env):
    return env.fs.read_all("/data/model.bin")


ENTRY_POINTS = {"main": service_main}
SECRET = b"proprietary-model-weights" * 10


def make_builder(seed=0):
    return SecureImageBuilder(
        key_hierarchy=KeyHierarchy.generate(DeterministicRandomSource(seed)),
        chunk_size=64,
    )


def make_client(seed=0):
    registry = Registry()
    cas = ConfigurationService(AttestationService())
    signing_key = RsaKeyPair.generate(
        bits=512, random_source=DeterministicRandomSource(seed + 100)
    )
    client = SconeClient(
        registry, cas, signing_key=signing_key,
        key_hierarchy=KeyHierarchy.generate(DeterministicRandomSource(seed)),
    )
    return client, registry, cas


class TestBuilder:
    def test_build_produces_secure_image(self):
        result = make_builder().build(
            "svc", ENTRY_POINTS, protected_files={"/data/model.bin": SECRET}
        )
        assert result.image.is_secure
        assert result.image.enclave_code.measurement == result.measurement

    def test_protected_files_not_in_plaintext(self):
        result = make_builder().build(
            "svc", ENTRY_POINTS, protected_files={"/data/model.bin": SECRET}
        )
        for blob in result.image.flatten().values():
            assert b"proprietary" not in blob

    def test_public_files_shipped_as_is(self):
        result = make_builder().build(
            "svc",
            ENTRY_POINTS,
            protected_files={"/data/model.bin": SECRET},
            public_files={"/README": b"public notes"},
        )
        assert result.image.flatten()["/README"] == b"public notes"

    def test_fspf_decryptable_with_builder_key(self):
        builder = make_builder()
        result = builder.build(
            "svc", ENTRY_POINTS, protected_files={"/data/model.bin": SECRET}
        )
        manifest = FsProtectionFile.decrypt(
            result.image.fspf_blob(),
            builder.keys.aead_key("fspf"),
            expected_hash=result.fspf_hash,
        )
        assert manifest.paths() == ["/data/model.bin"]

    def test_chunks_reconstruct_protected_volume(self):
        builder = make_builder()
        result = builder.build(
            "svc", ENTRY_POINTS, protected_files={"/data/model.bin": SECRET}
        )
        store = UntrustedStore()
        for (path, index), blob in result.image.protected_chunks().items():
            store.put(path, index, blob)
        manifest = FsProtectionFile.decrypt(
            result.image.fspf_blob(), builder.keys.aead_key("fspf")
        )
        volume = ProtectedVolume(store, protection=manifest)
        assert volume.read_all("/data/model.bin") == SECRET

    def test_scf_binds_fspf_hash(self):
        result = make_builder().build(
            "svc", ENTRY_POINTS, protected_files={"/f": b"x"}
        )
        assert result.scf.fspf_hash == result.fspf_hash

    def test_arguments_and_environment_in_scf(self):
        result = make_builder().build(
            "svc", ENTRY_POINTS, arguments=("--fast",), environment={"A": "1"}
        )
        assert result.scf.arguments == ("--fast",)
        assert result.scf.environment == {"A": "1"}


class TestRegistry:
    def test_push_pull_round_trip(self):
        client, registry, _cas = make_client()
        result = client.build_and_publish("svc", ENTRY_POINTS)
        assert registry.pull("svc:latest").digest == result.image.digest

    def test_pull_unknown_reference(self):
        with pytest.raises(ConfigurationError):
            Registry().pull("ghost:latest")

    def test_references_listing(self):
        client, registry, _cas = make_client()
        client.build_and_publish("svc-a", ENTRY_POINTS)
        client.build_and_publish("svc-b", ENTRY_POINTS)
        assert registry.references() == ["svc-a:latest", "svc-b:latest"]


class TestSconeClient:
    def test_publish_registers_scf(self):
        client, _registry, cas = make_client()
        result = client.build_and_publish(
            "svc", ENTRY_POINTS, protected_files={"/f": b"secret"}
        )
        assert cas.has_scf(result.measurement)

    def test_pull_verified_accepts_untampered(self):
        client, _registry, _cas = make_client()
        client.build_and_publish("svc", ENTRY_POINTS)
        image = client.pull_verified("svc:latest")
        assert image.reference == "svc:latest"

    def test_tampered_layer_detected(self):
        client, registry, _cas = make_client()
        client.build_and_publish(
            "svc", ENTRY_POINTS, protected_files={"/f": b"secret" * 20}
        )
        registry.tamper_layer("svc:latest", 0, FSPF_PATH, b"forged-manifest")
        with pytest.raises(IntegrityError, match="signature"):
            client.pull_verified("svc:latest")

    def test_unsigned_image_rejected(self):
        client, registry, _cas = make_client()
        result = client.builder.build("svc", ENTRY_POINTS)
        registry.push(result.image)  # no signature
        with pytest.raises(IntegrityError, match="unsigned"):
            client.pull_verified("svc:latest")

    def test_wrong_signer_rejected(self):
        client, registry, _cas = make_client()
        client.build_and_publish("svc", ENTRY_POINTS)
        other_key = RsaKeyPair.generate(
            bits=512, random_source=DeterministicRandomSource(999)
        )
        with pytest.raises(IntegrityError):
            client.pull_verified("svc:latest", trusted_signer=other_key.public_key)

    def test_replaced_image_detected_with_pinned_signer(self):
        client, registry, _cas = make_client()
        client.build_and_publish("svc", ENTRY_POINTS)
        attacker, _attacker_registry, _attacker_cas = make_client(seed=7)
        evil = attacker.builder.build("svc", ENTRY_POINTS).image
        evil_signature = attacker.signing_key.sign(evil.digest.encode("ascii"))
        registry.replace_image("svc:latest", evil)
        registry._signatures["svc:latest"] = (
            evil_signature, attacker.signing_key.public_key,
        )
        with pytest.raises(IntegrityError):
            client.pull_verified(
                "svc:latest", trusted_signer=client.signing_key.public_key
            )

    def test_customize_adds_layer_and_resigns(self):
        client, registry, _cas = make_client()
        client.build_and_publish(
            "svc", ENTRY_POINTS, protected_files={"/f": b"secret" * 20}
        )
        custom = client.customize(
            "svc:latest", {"/etc/app.conf": b"region=eu"}, new_tag="eu"
        )
        pulled = client.pull_verified("svc:eu")
        assert pulled.flatten()["/etc/app.conf"] == b"region=eu"
        assert pulled.digest == custom.digest
        # Base protected content still present and still ciphertext.
        assert FSPF_PATH in pulled.flatten()
