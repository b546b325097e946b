"""Sealing: persisting enclave secrets across restarts.

The sealing key is derived from a platform-resident fuse secret plus an
identity component chosen by policy:

- ``SealingPolicy.MRENCLAVE``: only the exact same code on the same
  platform can unseal (measurement-bound);
- ``SealingPolicy.MRSIGNER``: any enclave by the same author on the same
  platform can unseal (used for upgradable services).

Sealed blobs are AEAD ciphertexts whose associated data carries the
policy, so a blob sealed under one policy cannot be opened under the
other.
"""

import enum
from dataclasses import dataclass

from repro.errors import IntegrityError
from repro.crypto.aead import AeadKey
from repro.crypto.kdf import hkdf


class SealingPolicy(enum.Enum):
    """Which identity component binds the sealing key."""

    MRENCLAVE = "mrenclave"
    MRSIGNER = "mrsigner"


@dataclass(frozen=True)
class SealedBlob:
    """A sealed secret: policy label plus AEAD ciphertext."""

    policy: SealingPolicy
    ciphertext: bytes

    def to_bytes(self):
        """Serialise for storage on the untrusted file system."""
        label = self.policy.value.encode("ascii")
        return len(label).to_bytes(2, "big") + label + self.ciphertext

    @classmethod
    def from_bytes(cls, raw):
        """Parse a blob serialised by :meth:`to_bytes`."""
        if len(raw) < 2:
            raise IntegrityError("truncated sealed blob")
        label_length = int.from_bytes(raw[:2], "big")
        label = raw[2 : 2 + label_length].decode("ascii")
        try:
            policy = SealingPolicy(label)
        except ValueError as exc:
            raise IntegrityError("unknown sealing policy %r" % label) from exc
        return cls(policy=policy, ciphertext=raw[2 + label_length :])


def derive_sealing_key(platform_secret, identity, policy):
    """The AEAD key for (platform, identity, policy)."""
    info = b"sgx-seal|" + policy.value.encode("ascii") + b"|" + identity.encode("ascii")
    return AeadKey(hkdf(platform_secret, info))


def seal_with(key, data, policy):
    """Seal ``data`` under an already derived sealing key."""
    ciphertext = key.seal(data, policy.value.encode("ascii"))
    return SealedBlob(policy=policy, ciphertext=ciphertext)


def unseal_with(key, blob):
    """Open ``blob`` under an already derived sealing key; raises
    :class:`IntegrityError` if it is not the sealer's."""
    return key.open(blob.ciphertext, blob.policy.value.encode("ascii"))


def seal(platform_secret, measurement, signer, data, policy=SealingPolicy.MRENCLAVE):
    """Seal ``data`` under the requested policy."""
    identity = measurement if policy is SealingPolicy.MRENCLAVE else signer
    key = derive_sealing_key(platform_secret, identity, policy)
    return seal_with(key, data, policy)


def unseal(platform_secret, measurement, signer, blob):
    """Recover sealed data; raises :class:`IntegrityError` if the caller's
    identity or platform does not match the sealer's."""
    identity = measurement if blob.policy is SealingPolicy.MRENCLAVE else signer
    key = derive_sealing_key(platform_secret, identity, blob.policy)
    return unseal_with(key, blob)
