"""Deterministic Intel SGX simulator.

SGX hardware is unavailable in this environment, so this package models
the mechanisms that produce the performance and security behaviour the
paper reports:

- :mod:`~repro.sgx.costs` -- the cycle cost model (LLC hits, DRAM, MEE
  decryption on enclave cache misses, OS-serviced EPC page faults,
  enclave transitions), with constants taken from SCONE (OSDI'16) and
  *Intel SGX Explained*.
- :mod:`~repro.sgx.memory` -- an LLC + EPC memory hierarchy charged in
  virtual cycles; running identical code against an enclave memory and a
  native memory reproduces Figure 3's flat -> knee -> 18x curve.
- :mod:`~repro.sgx.enclave` -- enclaves with code measurement, ECALL /
  OCALL transitions, and in-enclave state.
- :mod:`~repro.sgx.attestation` -- quoting enclave, quotes, and a remote
  verification service (IAS-like).
- :mod:`~repro.sgx.channel` -- the one attested channel: a DH value
  committed in a quote, one KDF, and a sequenced record stream.
- :mod:`~repro.sgx.sealing` -- sealing keys bound to measurement or
  signer identity.
- :mod:`~repro.sgx.platform` -- an SGX-capable machine tying the pieces
  together.
"""

from repro.sgx.attestation import AttestationService, Quote, QuotingEnclave
from repro.sgx.costs import MemoryCosts, DEFAULT_COSTS
from repro.sgx.enclave import Enclave, EnclaveCode, EnclaveContext
from repro.sgx.memory import EpcModel, LlcModel, MemoryStats, SimulatedMemory
from repro.sgx.platform import SgxPlatform
from repro.sgx.sealing import SealedBlob, SealingPolicy

__all__ = [
    "AttestationService",
    "DEFAULT_COSTS",
    "Enclave",
    "EnclaveCode",
    "EnclaveContext",
    "EpcModel",
    "LlcModel",
    "MemoryCosts",
    "MemoryStats",
    "Quote",
    "QuotingEnclave",
    "SealedBlob",
    "SealingPolicy",
    "SgxPlatform",
    "SimulatedMemory",
]
