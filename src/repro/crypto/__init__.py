"""Cryptographic substrate for the SecureCloud reproduction.

The real system uses AES-GCM inside SGX and TLS between components.
Python's standard library ships no AEAD cipher, so this package builds
one from primitives that *are* available (SHA-256 / HMAC): an
encrypt-then-MAC stream construction with real confidentiality and
integrity round-trip semantics.  Signatures are textbook RSA with
full-domain hashing, and key agreement is finite-field Diffie-Hellman
over the RFC 3526 2048-bit MODP group.  The one handshake built on
them, with the record stream that replaces TLS, is
:mod:`repro.sgx.channel`: it binds each DH value to an SGX quote.

These constructions are faithful in *behaviour* (tampering is detected,
keys must match, handshakes authenticate the enclave) and are exactly what
the reproduction needs; they are **not** hardened production
cryptography (no side-channel defences, textbook RSA padding).
"""

from repro.crypto.aead import AeadKey, Ciphertext
from repro.crypto.dh import DhKeyPair, DH_GENERATOR, DH_PRIME
from repro.crypto.kdf import hkdf, hkdf_expand, hkdf_extract
from repro.crypto.keys import KeyHierarchy
from repro.crypto.primitives import (
    DeterministicRandomSource,
    SystemRandomSource,
    constant_time_equal,
    hmac_sha256,
    keystream,
    sha256,
)
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey

__all__ = [
    "AeadKey",
    "Ciphertext",
    "DH_GENERATOR",
    "DH_PRIME",
    "DeterministicRandomSource",
    "DhKeyPair",
    "KeyHierarchy",
    "RsaKeyPair",
    "RsaPublicKey",
    "SystemRandomSource",
    "constant_time_equal",
    "hkdf",
    "hkdf_expand",
    "hkdf_extract",
    "hmac_sha256",
    "keystream",
    "sha256",
]
