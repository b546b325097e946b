"""Tests for the SCF and its attested delivery via the CAS."""

import pytest

from repro.errors import AttestationError, IntegrityError
from repro.crypto.keys import KeyHierarchy
from repro.crypto.primitives import DeterministicRandomSource
from repro.scone.cas import ConfigurationService
from repro.scone.scf import StartupConfiguration
from repro.sgx.attestation import AttestationService
from repro.sgx.enclave import EnclaveCode
from repro.sgx.platform import SgxPlatform


def app_main(ctx, env):
    return "ran"


def other_main(ctx, env):
    return "other"


APP_CODE = EnclaveCode("app", {"main": app_main})
OTHER_CODE = EnclaveCode("app", {"main": other_main})


def make_scf(seed=0, fspf_hash=b"\x00" * 32):
    hierarchy = KeyHierarchy.generate(DeterministicRandomSource(seed))
    return StartupConfiguration.create(
        hierarchy,
        fspf_hash,
        arguments=("--mode", "prod"),
        environment={"REGION": "eu"},
    )


@pytest.fixture()
def platform():
    return SgxPlatform(seed=5, quoting_key_bits=512)


@pytest.fixture()
def cas(platform):
    attestation = AttestationService()
    attestation.register_platform(
        platform.platform_id, platform.quoting_enclave.public_key
    )
    return ConfigurationService(attestation)


class TestScfSerialisation:
    def test_round_trip(self):
        scf = make_scf()
        assert StartupConfiguration.from_bytes(scf.to_bytes()) == scf

    def test_keys_deterministic_from_hierarchy(self):
        assert make_scf(seed=1) == make_scf(seed=1)
        assert make_scf(seed=1) != make_scf(seed=2)

    def test_stream_keys_independent(self):
        scf = make_scf()
        assert scf.stdin_key != scf.stdout_key
        assert scf.stdout_key != scf.stderr_key

    def test_malformed_rejected(self):
        with pytest.raises(IntegrityError):
            StartupConfiguration.from_bytes(b"not json")
        with pytest.raises(IntegrityError):
            StartupConfiguration.from_bytes(b"{}")


class TestCasProvisioning:
    def test_registered_enclave_receives_scf(self, platform, cas):
        scf = make_scf()
        cas.register_scf(APP_CODE.measurement, scf)
        enclave = platform.load_enclave(APP_CODE)
        delivered = cas.provision(platform, enclave)
        assert delivered == scf
        assert cas.delivered == 1

    def test_unregistered_enclave_denied(self, platform, cas):
        enclave = platform.load_enclave(APP_CODE)
        with pytest.raises(AttestationError):
            cas.provision(platform, enclave)
        assert cas.denied == 1

    def test_modified_code_denied(self, platform, cas):
        cas.register_scf(APP_CODE.measurement, make_scf())
        tampered = platform.load_enclave(OTHER_CODE)
        with pytest.raises(AttestationError):
            cas.provision(platform, tampered)

    def test_unregistered_platform_denied(self, cas):
        rogue_platform = SgxPlatform(seed=66, quoting_key_bits=512)
        cas.register_scf(APP_CODE.measurement, make_scf())
        enclave = rogue_platform.load_enclave(APP_CODE)
        with pytest.raises(AttestationError):
            cas.provision(rogue_platform, enclave)

    def test_each_measurement_gets_its_own_scf(self, platform, cas):
        scf_a = make_scf(seed=1)
        scf_b = make_scf(seed=2)
        code_b = EnclaveCode("app-b", {"main": app_main})
        cas.register_scf(APP_CODE.measurement, scf_a)
        cas.register_scf(code_b.measurement, scf_b)
        assert cas.provision(platform, platform.load_enclave(APP_CODE)) == scf_a
        assert cas.provision(platform, platform.load_enclave(code_b)) == scf_b

    def test_has_scf(self, cas):
        assert not cas.has_scf(APP_CODE.measurement)
        cas.register_scf(APP_CODE.measurement, make_scf())
        assert cas.has_scf(APP_CODE.measurement)
