"""Tests for the SCONE process runtime."""

import pytest

from repro.errors import AttestationError, ConfigurationError
from repro.crypto.keys import KeyHierarchy
from repro.crypto.primitives import DeterministicRandomSource
from repro.scone.cas import ConfigurationService
from repro.scone.fs_shield import ProtectedVolume, UntrustedStore
from repro.scone.runtime import SconeProcess, SconeRuntimeConfig
from repro.scone.scf import StartupConfiguration
from repro.scone.stream_shield import ShieldedStreamReader
from repro.sgx.attestation import AttestationService
from repro.sgx.enclave import EnclaveCode
from repro.sgx.platform import SgxPlatform


def app_main(ctx, env):
    data = env.fs.read_all("/data/input.txt")
    env.stdout.write(b"processed:" + data)
    return len(data)


def write_file(ctx, env, path, payload):
    env.fs.write(path, payload)
    return env.fs.file_size(path)


APP_CODE = EnclaveCode("runtime-app", {"main": app_main, "write": write_file})


def build_fixture(seed=9):
    """A platform, CAS, pre-populated protected volume, and SCF."""
    platform = SgxPlatform(seed=seed, quoting_key_bits=512)
    attestation = AttestationService()
    attestation.register_platform(
        platform.platform_id, platform.quoting_enclave.public_key
    )
    cas = ConfigurationService(attestation)

    hierarchy = KeyHierarchy.generate(DeterministicRandomSource(seed))
    store = UntrustedStore()
    volume = ProtectedVolume(store)
    volume.write("/data/input.txt", b"meter-readings")

    fspf_key = hierarchy.aead_key("fspf")
    fspf_blob = volume.protection.encrypt(fspf_key)
    scf = StartupConfiguration.create(
        hierarchy,
        volume.protection.content_hash(),
        arguments=("--job", "analytics"),
        environment={"TENANT": "utility-7"},
    )
    cas.register_scf(APP_CODE.measurement, scf)
    return platform, cas, store, fspf_blob, scf


class TestBoot:
    def test_start_and_run(self):
        platform, cas, store, fspf_blob, _scf = build_fixture()
        process = SconeProcess(platform, APP_CODE, cas, store=store,
                               fspf_blob=fspf_blob)
        process.start()
        assert process.run("main") == len(b"meter-readings")

    def test_run_before_start_rejected(self):
        platform, cas, store, fspf_blob, _scf = build_fixture()
        process = SconeProcess(platform, APP_CODE, cas, store=store,
                               fspf_blob=fspf_blob)
        with pytest.raises(ConfigurationError):
            process.run("main")

    def test_unregistered_code_cannot_boot(self):
        platform, cas, store, fspf_blob, _scf = build_fixture()
        rogue = EnclaveCode("rogue", {"main": app_main})
        process = SconeProcess(platform, rogue, cas, store=store,
                               fspf_blob=fspf_blob)
        with pytest.raises(AttestationError):
            process.start()

    def test_arguments_and_environment_delivered(self):
        platform, cas, store, fspf_blob, _scf = build_fixture()
        process = SconeProcess(platform, APP_CODE, cas, store=store,
                               fspf_blob=fspf_blob).start()
        assert process.env.arguments == ["--job", "analytics"]
        assert process.env.environment == {"TENANT": "utility-7"}

    def test_tampered_fspf_blob_rejected(self):
        from repro.errors import IntegrityError

        platform, cas, store, fspf_blob, _scf = build_fixture()
        tampered = bytearray(fspf_blob)
        tampered[-1] ^= 1
        process = SconeProcess(platform, APP_CODE, cas, store=store,
                               fspf_blob=bytes(tampered))
        with pytest.raises(IntegrityError):
            process.start()


class TestShieldedIo:
    def test_stdout_encrypted_and_readable_by_key_owner(self):
        platform, cas, store, fspf_blob, scf = build_fixture()
        process = SconeProcess(platform, APP_CODE, cas, store=store,
                               fspf_blob=fspf_blob).start()
        process.run("main")
        assert all(
            b"processed:" not in record for record in process.stdout_transport
        )
        reader = ShieldedStreamReader(
            scf.stdout_key, "stdout", process.stdout_transport
        )
        assert reader.drain() == b"processed:meter-readings"

    def test_files_written_inside_are_protected(self):
        platform, cas, store, fspf_blob, scf = build_fixture()
        process = SconeProcess(platform, APP_CODE, cas, store=store,
                               fspf_blob=fspf_blob).start()
        size = process.run("write", "/data/out.bin", b"derived-secret")
        assert size == len(b"derived-secret")
        for (path, index) in list(store._chunks):
            if path == "/data/out.bin":
                assert b"derived-secret" not in store.get(path, index)

    def test_sync_mode_configurable(self):
        platform, cas, store, fspf_blob, _scf = build_fixture()
        process = SconeProcess(
            platform, APP_CODE, cas, store=store, fspf_blob=fspf_blob,
            config=SconeRuntimeConfig(syscall_mode="sync"),
        ).start()
        from repro.scone.syscalls import SyncSyscallExecutor

        assert isinstance(process.env.syscalls, SyncSyscallExecutor)

    def test_invalid_syscall_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            SconeRuntimeConfig(syscall_mode="magic")

    def test_stop_closes_streams_and_enclave(self):
        platform, cas, store, fspf_blob, scf = build_fixture()
        process = SconeProcess(platform, APP_CODE, cas, store=store,
                               fspf_blob=fspf_blob).start()
        process.run("main")
        process.stop()
        assert not process.started
        reader = ShieldedStreamReader(
            scf.stdout_key, "stdout", process.stdout_transport
        )
        reader.drain()
        assert reader.closed
