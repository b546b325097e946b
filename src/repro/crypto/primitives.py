"""Hash, MAC, keystream, and randomness primitives."""

import hashlib
import hmac as _hmac
import os
import random


def sha256(data):
    """SHA-256 digest of ``data`` (bytes in, 32 bytes out)."""
    return hashlib.sha256(data).digest()


def sha256_hex(data):
    """SHA-256 digest as a hex string (content addressing, identities)."""
    return hashlib.sha256(data).hexdigest()


def hmac_sha256(key, data):
    """HMAC-SHA256 tag of ``data`` under ``key`` (32 bytes)."""
    return _hmac.new(key, data, hashlib.sha256).digest()


def constant_time_equal(a, b):
    """Timing-safe comparison for MACs and hashes."""
    return _hmac.compare_digest(a, b)


# HMAC-SHA256 (RFC 2104) from two SHA-256 states: one that absorbed
# K xor ipad, one that absorbed K xor opad.  A key's states are built
# once (``hmac_pads``); each MAC then copies them, so no call pays the
# key schedule or a Python-level ``hmac`` object.
_SHA256_BLOCK_SIZE = 64
_IPAD = bytes(byte ^ 0x36 for byte in range(256))
_OPAD = bytes(byte ^ 0x5C for byte in range(256))
_HMAC_BLOCK_SIZE = 32


def hmac_pads(key):
    """``(inner, outer)`` SHA-256 states of HMAC-SHA256 under ``key``.

    Treat both as read-only: :func:`hmac_digest` and
    :func:`pad_keystream` ``.copy()`` them per message.
    """
    key = bytes(key)
    if len(key) > _SHA256_BLOCK_SIZE:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_SHA256_BLOCK_SIZE, b"\0")
    return (
        hashlib.sha256(key.translate(_IPAD)),
        hashlib.sha256(key.translate(_OPAD)),
    )


def hmac_digest(pads, data, more=b""):
    """HMAC-SHA256 of ``data || more`` under the key of ``pads``.

    Byte-identical to ``hmac_sha256(key, data + more)``; ``more`` saves
    a caller the concatenation of a header and a (memoryview) body.
    """
    inner = pads[0].copy()
    inner.update(data)
    inner.update(more)
    outer = pads[1].copy()
    outer.update(inner.digest())
    return outer.digest()


def pad_keystream(pads, nonce, length):
    """:func:`keystream` under the key of ``pads``.

    The nonce is absorbed once into a copy of the inner state; each
    32-byte block then costs one inner copy+update+digest and one outer
    copy+update+digest, all in C.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    if length == 0:
        return b""
    inner, outer = pads
    base = inner.copy()
    base.update(nonce)
    block_count = -(-length // _HMAC_BLOCK_SIZE)
    blocks = [None] * block_count
    for counter in range(block_count):
        block = base.copy()
        block.update(counter.to_bytes(8, "big"))
        finish = outer.copy()
        finish.update(block.digest())
        blocks[counter] = finish.digest()
    return b"".join(blocks)[:length]


def keystream(key, nonce, length):
    """Deterministic keystream: HMAC-SHA256 in counter mode.

    Block i is ``HMAC(key, nonce || i)``; the construction is a PRF in
    counter mode, i.e. a stream cipher keyed by (key, nonce).  Reusing a
    (key, nonce) pair leaks plaintext XOR, exactly as with AES-CTR, so
    callers must use fresh nonces (the AEAD layer does).  A caller with
    many messages under one key keeps ``hmac_pads(key)`` and calls
    :func:`pad_keystream`.
    """
    return pad_keystream(hmac_pads(key), nonce, length)


def xor_bytes(data, stream):
    """XOR ``data`` with a same-length ``stream``.

    Both operands are folded into Python big integers so the XOR runs in
    C over machine words instead of byte-by-byte in the interpreter.
    """
    if len(data) != len(stream):
        raise ValueError("xor operands must have equal length")
    if not data:
        return b""
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
    ).to_bytes(len(data), "big")


def keystream_xor(key, nonce, data):
    """Encrypt/decrypt ``data`` in place of ``xor_bytes(data, keystream(...))``.

    Fusing the two saves the intermediate allocation and lets callers
    stay oblivious to the keystream length bookkeeping; the operation is
    its own inverse.
    """
    return pad_keystream_xor(hmac_pads(key), nonce, data)


def pad_keystream_xor(pads, nonce, data):
    """:func:`keystream_xor` under the key of ``pads`` (own inverse)."""
    if not data:
        return b""
    return xor_bytes(data, pad_keystream(pads, nonce, len(data)))


_XOF_LABEL = b"securecloud-xof-keystream"


def xof_keystream(key, nonce, length):
    """High-throughput keystream: SHAKE-256 as a keyed XOF.

    The sponge absorbs ``label || len(key) || key || nonce`` and squeezes
    the entire ``length``-byte stream in a single C call -- no per-block
    Python overhead at all, which is an order of magnitude faster than
    the HMAC-CTR construction above.  Like :func:`keystream` it is a PRF
    of (key, nonce): reusing a pair leaks plaintext XOR.  XOF output is a
    stream, so the prefix property holds (``xof_keystream(k, n, a) ==
    xof_keystream(k, n, b)[:a]`` for ``a <= b``).

    This is the data plane of the *new, versioned* batch framing; the
    legacy single-record format keeps :func:`keystream` for wire
    compatibility.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    if length == 0:
        return b""
    ctx = hashlib.shake_256()
    ctx.update(_XOF_LABEL)
    ctx.update(len(key).to_bytes(2, "big"))
    ctx.update(key)
    ctx.update(nonce)
    return ctx.digest(length)


def xof_keystream_xor(key, nonce, data):
    """Fused encrypt/decrypt against :func:`xof_keystream` (own inverse)."""
    if not data:
        return b""
    return xor_bytes(data, xof_keystream(key, nonce, len(data)))


class SystemRandomSource:
    """Randomness from the operating system (default in production)."""

    def bytes(self, n):
        """``n`` unpredictable bytes."""
        return os.urandom(n)

    def randbits(self, k):
        """A ``k``-bit random integer."""
        return int.from_bytes(os.urandom((k + 7) // 8), "big") >> (
            (8 - k % 8) % 8
        )


class DeterministicRandomSource:
    """Seeded randomness for reproducible tests and benchmarks.

    Never use outside tests: its output is predictable by construction.
    """

    def __init__(self, seed=0):
        self._random = random.Random(seed)

    def bytes(self, n):
        """``n`` deterministic pseudo-random bytes."""
        if n == 0:
            return b""
        return self._random.getrandbits(8 * n).to_bytes(n, "big")

    def randbits(self, k):
        """A deterministic ``k``-bit integer."""
        return self._random.getrandbits(k)
