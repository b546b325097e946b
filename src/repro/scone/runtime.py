"""The SCONE process runtime: boots an enclave application.

Boot sequence (paper Section V-A):

1. load the measured enclave code on the SGX platform;
2. obtain the SCF from the CAS over an attested channel -- fails hard
   if the enclave measurement is not registered;
3. open the FS protection file with the SCF's key and verify its hash;
4. wire the shielded standard streams with the SCF's stream keys;
5. hand the application an in-enclave environment exposing the
   protected file system, shielded stdio, arguments, environment
   variables, and the (sync or async) shielded syscall interface.
"""

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.scone.fs_shield import FsProtectionFile, ProtectedVolume, UntrustedStore
from repro.scone.stream_shield import ShieldedStreamReader, ShieldedStreamWriter
from repro.scone.syscalls import (
    AsyncSyscallExecutor,
    SimulatedKernel,
    SyncSyscallExecutor,
    SyscallShield,
)


@dataclass
class SconeRuntimeConfig:
    """Tunables of the runtime."""

    syscall_mode: str = "async"   # "async" (shared queue) or "sync"
    syscall_workers: int = 2

    def __post_init__(self):
        if self.syscall_mode not in ("async", "sync"):
            raise ConfigurationError(
                "syscall_mode must be 'async' or 'sync', not %r"
                % self.syscall_mode
            )


class SconeEnvironment:
    """What the application sees inside the enclave."""

    def __init__(self, scf, volume, stdout, stderr, stdin, syscalls, clock):
        self.arguments = list(scf.arguments)
        self.environment = dict(scf.environment)
        self.fs = volume
        self.stdout = stdout
        self.stderr = stderr
        self.stdin = stdin
        self.syscalls = syscalls
        self.clock = clock

    def read_stdin(self):
        """All input queued on the shielded stdin (authenticated)."""
        return self.stdin.drain()


class SconeProcess:
    """One secure container process on one SGX platform."""

    def __init__(self, platform, enclave_code, cas, store=None, fspf_blob=None,
                 config=None, stdin_transport=None):
        self.platform = platform
        self.enclave_code = enclave_code
        self.cas = cas
        self.store = store if store is not None else UntrustedStore()
        self.fspf_blob = fspf_blob
        self.kernel = SimulatedKernel()
        self.config = config or SconeRuntimeConfig()
        self.enclave = None
        self.scf = None
        self.env = None
        self.stdout_transport = []
        self.stderr_transport = []
        # Records sealed with the SCF's stdin key by the trusted data
        # source; the host only ever relays ciphertext.
        self.stdin_transport = stdin_transport if stdin_transport is not None else []

    @property
    def started(self):
        """Whether :meth:`start` completed successfully."""
        return self.env is not None

    def start(self):
        """Boot: load, attest, fetch SCF, open shields."""
        self.enclave = self.platform.load_enclave(self.enclave_code)
        # Attested SCF delivery; raises AttestationError when the CAS
        # does not recognise this enclave's measurement.
        self.scf = self.cas.provision(self.platform, self.enclave)

        if self.fspf_blob is not None:
            protection = FsProtectionFile.decrypt(
                self.fspf_blob, self.scf.fspf_key, expected_hash=self.scf.fspf_hash
            )
        else:
            protection = FsProtectionFile()
        volume = ProtectedVolume(
            self.store, protection=protection, memory=self.enclave.memory
        )

        stdout = ShieldedStreamWriter(
            self.scf.stdout_key, "stdout", self.stdout_transport
        )
        stderr = ShieldedStreamWriter(
            self.scf.stderr_key, "stderr", self.stderr_transport
        )
        stdin = ShieldedStreamReader(
            self.scf.stdin_key, "stdin", self.stdin_transport
        )

        shield = SyscallShield(memory=self.enclave.memory)
        if self.config.syscall_mode == "async":
            syscalls = AsyncSyscallExecutor(
                self.platform.clock, self.kernel, self.platform.costs,
                shield=shield, workers=self.config.syscall_workers,
            )
        else:
            syscalls = SyncSyscallExecutor(
                self.platform.clock, self.kernel, self.platform.costs,
                shield=shield,
            )

        self.env = SconeEnvironment(
            scf=self.scf, volume=volume, stdout=stdout, stderr=stderr,
            stdin=stdin, syscalls=syscalls, clock=self.platform.clock,
        )
        return self

    def run(self, entry_point="main", *args, **kwargs):
        """ECALL into the application with the SCONE environment."""
        if not self.started:
            raise ConfigurationError("process not started; call start() first")
        return self.enclave.ecall(entry_point, self.env, *args, **kwargs)

    def stop(self):
        """Close shielded streams and destroy the enclave."""
        if self.env is not None:
            self.env.stdout.close()
            self.env.stderr.close()
        if self.enclave is not None:
            self.enclave.destroy()
        self.env = None
