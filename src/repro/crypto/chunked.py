"""Chunked sealing (``SB2``): per-chunk keystreams, one manifest, one tag.

Large payloads are split into fixed-size chunks.  Every chunk gets its
own keystream, generated from material *derived* for that chunk alone:

- chunk key  ``HMAC(enc_key, label || nonce || index)`` -- one chunk's
  key says nothing about any other chunk or any other payload (the
  base nonce is folded into the derivation);
- chunk nonce ``nonce[:8] || index`` -- the base-nonce-plus-counter
  pattern, so the (key, nonce) pair feeding the XOF is unique per
  (payload, chunk).

Each chunk's keystream depends only on ``(enc_key, nonce, index,
chunk_size)``, so the ciphertext is a function of key, nonce, chunk
size and plaintext alone.  Chunks are sealed one after another inside
the call that was asked for them: chunk keys and plaintext never leave
it.

Integrity comes from a *manifest*: per chunk, its size and the SHA-256
digest of its ciphertext, concatenated in chunk order.  The AEAD layer
authenticates the manifest (plus chunk count and chunk size) under a
single tag; the body itself is checked chunk-by-chunk against the
manifest digests.  Truncation changes the last chunk's size or digest,
reordering moves digests out of their authenticated positions,
duplication breaks the size ledger, and splicing a chunk from another
payload produces a foreign digest -- all fail closed before a byte of
plaintext is released.

The virtual cost model (:func:`chunked_seal_cycles`,
:func:`serial_seal_cycles`) mirrors the repository's cycle accounting
so benchmarks report deterministic sealed-bytes-per-virtual-ms numbers.
"""

import hashlib

from repro.errors import IntegrityError
from repro.crypto.primitives import (
    constant_time_equal,
    hmac_sha256,
    xof_keystream_xor,
)
from repro.telemetry.registry import default_registry

# Frames at or below one chunk keep the single-pass ``SB1`` framing.
DEFAULT_CHUNK_SIZE = 256 * 1024

# Manifest entry: 4-byte chunk size || 32-byte ciphertext digest.
DIGEST_SIZE = 32
_SIZE_BYTES = 4
MANIFEST_ENTRY_SIZE = _SIZE_BYTES + DIGEST_SIZE

_CHUNK_KEY_LABEL = b"securecloud-chunk-key"

# --- virtual cost model (cycles on the repo-wide 2.6 GHz clock) ---
#
# The one price of a sealed byte: every enclave that charges for a seal
# (SCBR fan-out and plane messages, stream firings, checkpoints and
# handoffs) calls serial_seal_cycles.  AES-class sealing streams at a
# few cycles/byte; the setup constant folds nonce derivation, MAC
# finalisation, and framing.  The chunked path additionally pays a
# per-chunk dispatch (key derivation, slicing, manifest entry).
CHUNK_SETUP_CYCLES = 2_000
CHUNK_SEAL_CYCLES_PER_BYTE = 4
CHUNK_DISPATCH_CYCLES = 1_000


def chunk_spans(length, chunk_size):
    """``(offset, size)`` of every chunk covering ``length`` bytes."""
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if length < 0:
        raise ValueError("length must be non-negative")
    return [
        (offset, min(chunk_size, length - offset))
        for offset in range(0, length, chunk_size)
    ]


def derive_chunk_key(enc_key, nonce, index):
    """Per-chunk keystream key; binds the base nonce and chunk index."""
    return hmac_sha256(
        enc_key, _CHUNK_KEY_LABEL + bytes(nonce) + index.to_bytes(8, "big")
    )


def chunk_nonce(nonce, index):
    """Base-nonce-plus-counter: first 8 nonce bytes, then the index."""
    return bytes(nonce[:8]) + index.to_bytes(8, "big")


def chunked_keystream_xor(enc_key, nonce, data, chunk_size=DEFAULT_CHUNK_SIZE):
    """XOR ``data`` against the chunked keystream (its own inverse).

    ``data`` may be any bytes-like object; chunks are sliced as
    ``memoryview``\\ s, so the payload is never copied.
    """
    view = memoryview(data)
    spans = chunk_spans(len(view), chunk_size)
    if not spans:
        return b""
    registry = default_registry()
    registry.counter("crypto.chunked_passes").inc()
    registry.counter("crypto.chunks_processed").inc(len(spans))
    registry.counter("crypto.chunked_bytes").inc(len(view))
    return b"".join(
        xof_keystream_xor(
            derive_chunk_key(enc_key, nonce, index),
            chunk_nonce(nonce, index),
            view[offset : offset + size],
        )
        for index, (offset, size) in enumerate(spans)
    )


def build_manifest(body, chunk_size):
    """Size-and-digest ledger of ``body``'s ciphertext chunks."""
    view = memoryview(body)
    pieces = []
    for offset, size in chunk_spans(len(view), chunk_size):
        pieces.append(size.to_bytes(_SIZE_BYTES, "big"))
        pieces.append(hashlib.sha256(view[offset : offset + size]).digest())
    return b"".join(pieces)


def verify_manifest(body, chunk_size, manifest):
    """Check ``body`` against an *authenticated* manifest; fail closed.

    The caller must have verified the AEAD tag over the manifest first;
    this function then holds the body to it: chunk count, every chunk
    size, and every ciphertext digest must match, in order.
    """
    view = memoryview(body)
    if len(manifest) % MANIFEST_ENTRY_SIZE:
        raise IntegrityError("chunk manifest length is not a whole ledger")
    spans = chunk_spans(len(view), chunk_size)
    if len(manifest) != len(spans) * MANIFEST_ENTRY_SIZE:
        raise IntegrityError(
            "sealed body carries %d chunks but the manifest lists %d"
            % (len(spans), len(manifest) // MANIFEST_ENTRY_SIZE)
        )
    manifest_view = memoryview(manifest)
    for index, (offset, size) in enumerate(spans):
        entry = manifest_view[
            index * MANIFEST_ENTRY_SIZE : (index + 1) * MANIFEST_ENTRY_SIZE
        ]
        listed_size = int.from_bytes(entry[:_SIZE_BYTES], "big")
        if listed_size != size:
            raise IntegrityError(
                "chunk %d is %d bytes but the manifest lists %d "
                "(truncated or duplicated chunk)" % (index, size, listed_size)
            )
        digest = hashlib.sha256(view[offset : offset + size]).digest()
        if not constant_time_equal(digest, bytes(entry[_SIZE_BYTES:])):
            raise IntegrityError(
                "chunk %d digest mismatch (tampered, reordered, or "
                "spliced from another payload)" % index
            )


def serial_seal_cycles(length):
    """Virtual cycles to seal ``length`` bytes in one serial pass."""
    return CHUNK_SETUP_CYCLES + CHUNK_SEAL_CYCLES_PER_BYTE * length


def chunked_seal_cycles(length, chunk_size=DEFAULT_CHUNK_SIZE):
    """Virtual cycles to seal ``length`` bytes chunk by chunk.

    Every chunk pays its dispatch, its setup and its per-byte pass.
    Deterministic by construction -- the model depends on sizes alone,
    never on the host -- so gated benchmarks stay stable.
    """
    chunks = len(chunk_spans(length, chunk_size))
    return (
        (CHUNK_DISPATCH_CYCLES + CHUNK_SETUP_CYCLES) * chunks
        + CHUNK_SEAL_CYCLES_PER_BYTE * length
    )
