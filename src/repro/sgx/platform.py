"""An SGX-capable machine: clock, caches, EPC, quoting enclave, fuses."""

import itertools

from repro.crypto.kdf import hkdf
from repro.crypto.primitives import DeterministicRandomSource, SystemRandomSource
from repro.crypto.rsa import DEFAULT_KEY_BITS
from repro.sgx.attestation import QuotingEnclave
from repro.sgx.costs import DEFAULT_COSTS
from repro.sgx.enclave import Enclave
from repro.sgx.memory import EpcModel, LlcModel
from repro.sgx.sealing import (
    SealingPolicy,
    derive_sealing_key,
    seal_with,
    unseal_with,
)
from repro.sim.clock import CycleClock
from repro.telemetry import default_registry

_platform_ids = itertools.count(1)


class SgxPlatform:
    """One physical machine with SGX support.

    Owns the virtual cycle clock, a shared LLC, the shared EPC, the
    platform fuse secret (root of sealing keys), and the quoting
    enclave.  Create application enclaves with :meth:`load_enclave`;
    their memories are charged on the platform's clock.
    """

    def __init__(self, costs=DEFAULT_COSTS, platform_id=None, seed=None,
                 quoting_key_bits=DEFAULT_KEY_BITS):
        self.costs = costs
        self.platform_id = platform_id or ("sgx-platform-%d" % next(_platform_ids))
        self.clock = CycleClock()
        self.llc = LlcModel(costs)
        self.epc = EpcModel(costs)
        if seed is None:
            random_source = SystemRandomSource()
        else:
            random_source = DeterministicRandomSource(seed)
        self._fuse_secret = random_source.bytes(32)
        self.quoting_enclave = QuotingEnclave(
            self.platform_id, random_source=random_source, key_bits=quoting_key_bits
        )
        self._enclaves = []
        # Pure functions of the fuse secret and the code identity, so
        # derived once: (identity, policy) -> key, code name -> signer.
        self._sealing_keys = {}
        self._signers = {}
        # EPC paging telemetry: sampled at snapshot time (gauge_fn), so
        # the per-access hot path in SimulatedMemory stays untouched.
        # Labelled by a per-registry ordinal, not platform_id -- the
        # global platform counter differs between two same-seed runs in
        # one process, and snapshots must stay byte-identical.
        registry = default_registry()
        ordinal = registry.next_index("sgx.platform")
        epc = self.epc
        registry.gauge_fn("sgx.epc.faults", lambda: epc.faults,
                          platform=ordinal)
        registry.gauge_fn("sgx.epc.loads", lambda: epc.loads,
                          platform=ordinal)
        registry.gauge_fn("sgx.epc.resident_pages",
                          lambda: epc.resident_pages, platform=ordinal)

    @property
    def enclaves(self):
        """Enclaves currently loaded on this platform."""
        return list(self._enclaves)

    def load_enclave(self, code, name=None):
        """Create and initialise an enclave from measured code."""
        enclave = Enclave(self, code, name=name)
        self._enclaves.append(enclave)
        return enclave

    def quote(self, enclave, report_data=b""):
        """Produce a remotely verifiable quote for ``enclave``.

        In real SGX the report originates inside the enclave (see
        :meth:`EnclaveContext.report`); this helper serves
        infrastructure code that owns the enclave object itself.
        """
        from repro.sgx.enclave import Report

        report = Report(enclave.measurement, report_data, enclave.enclave_id)
        return self.quoting_enclave.quote(report)

    def _signer_of(self, enclave):
        """The signer identity (MRSIGNER analogue) of an enclave."""
        name = enclave.code.name
        signer = self._signers.get(name)
        if signer is None:
            signer = self._signers[name] = hkdf(
                name.encode("utf-8"), b"signer-identity", length=16
            ).hex()
        return signer

    def _sealing_key(self, enclave, policy):
        """The (cached) sealing key binding ``enclave`` under ``policy``."""
        if policy is SealingPolicy.MRENCLAVE:
            identity = enclave.measurement
        else:
            identity = self._signer_of(enclave)
        key = self._sealing_keys.get((identity, policy))
        if key is None:
            key = self._sealing_keys[identity, policy] = derive_sealing_key(
                self._fuse_secret, identity, policy
            )
        return key

    def seal(self, enclave, data, policy=None):
        """Seal ``data`` to the enclave's identity on this platform."""
        policy = policy or SealingPolicy.MRENCLAVE
        return seal_with(self._sealing_key(enclave, policy), data, policy)

    def unseal(self, enclave, blob):
        """Unseal a blob for ``enclave``; fails for foreign identities."""
        return unseal_with(self._sealing_key(enclave, blob.policy), blob)
