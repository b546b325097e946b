"""The HMAC kernel against the standard library's ``hmac``.

``hmac_pads`` builds a key's two SHA-256 states once; every keystream
block and every AEAD tag copies them.  Each output here is recomputed
with ``hmac.new(key, msg, hashlib.sha256).digest()`` and must match byte
for byte: key lengths around the 64-byte SHA-256 block (a longer key is
hashed first), stream lengths around the 32-byte HMAC block, and the
three tags an ``AeadKey`` writes (single-record, ``SB1`` batch and
``SB2`` chunked).
"""

import hashlib
import hmac

import pytest

from repro.crypto.aead import AeadKey, SealedBatch
from repro.crypto.primitives import (
    hmac_digest,
    hmac_pads,
    hmac_sha256,
    keystream,
    pad_keystream,
)

KEY_LENGTHS = (0, 1, 32, 63, 64, 65, 200)
NONCE = bytes(range(16))
MAX_LENGTH = 4096
# Every length up to 300, then a stride, the last lengths and the
# block boundaries (31/32/33, 63/64/65, ...) on the way.
LENGTHS = sorted(
    set(range(301))
    | set(range(301, MAX_LENGTH + 1, 97))
    | {n + d for n in (32, 64, 1024, 2048, MAX_LENGTH - 1) for d in (-1, 0, 1)}
    | {MAX_LENGTH}
)


def stdlib_hmac(key, message):
    return hmac.new(key, message, hashlib.sha256).digest()


def stdlib_keystream(key, nonce, length):
    blocks = [
        stdlib_hmac(key, nonce + counter.to_bytes(8, "big"))
        for counter in range(-(-length // 32))
    ]
    return b"".join(blocks)[:length]


def key_of(length):
    return bytes((7 * i + length) % 256 for i in range(length))


@pytest.mark.parametrize("key_length", KEY_LENGTHS)
def test_keystream_matches_stdlib_hmac_for_every_length(key_length):
    key = key_of(key_length)
    reference = stdlib_keystream(key, NONCE, MAX_LENGTH)
    pads = hmac_pads(key)
    for length in LENGTHS:
        assert pad_keystream(pads, NONCE, length) == reference[:length]
    for length in (0, 31, 32, 33, MAX_LENGTH):
        assert keystream(key, NONCE, length) == reference[:length]


@pytest.mark.parametrize("key_length", KEY_LENGTHS)
def test_digest_matches_stdlib_hmac(key_length):
    key = key_of(key_length)
    pads = hmac_pads(key)
    for length in (0, 1, 31, 32, 33, 63, 64, 65, 200, MAX_LENGTH):
        message = bytes(range(256)) * (length // 256 + 1)
        message = message[:length]
        assert hmac_digest(pads, message) == stdlib_hmac(key, message)
        split = length // 3
        assert hmac_digest(
            pads, message[:split], memoryview(message)[split:]
        ) == stdlib_hmac(key, message)
    assert hmac_sha256(key, b"m") == stdlib_hmac(key, b"m")


def test_pads_are_not_consumed_by_use():
    pads = hmac_pads(b"k")
    first = hmac_digest(pads, b"a")
    pad_keystream(pads, NONCE, 100)
    assert hmac_digest(pads, b"a") == first == stdlib_hmac(b"k", b"a")


KEY = bytes(range(32, 64))
ENC_KEY = stdlib_hmac(KEY, b"securecloud-aead-enc")
MAC_KEY = stdlib_hmac(KEY, b"securecloud-aead-mac")
AAD = b"header|aad"


def aad_header(aad):
    return len(aad).to_bytes(8, "big") + aad


@pytest.mark.parametrize("length", (0, 1, 31, 32, 33, 64, 100, MAX_LENGTH))
def test_single_record_seal_is_stdlib_hmac_ctr_then_mac(length):
    plaintext = bytes(i % 251 for i in range(length))
    blob = AeadKey(KEY).seal(plaintext, AAD, nonce=NONCE)
    nonce, tag, body = blob[:16], blob[16:48], blob[48:]
    assert nonce == NONCE
    stream = stdlib_keystream(ENC_KEY, NONCE, length)
    assert body == bytes(a ^ b for a, b in zip(plaintext, stream))
    assert tag == stdlib_hmac(MAC_KEY, NONCE + aad_header(AAD) + body)
    assert AeadKey(KEY).open(blob, AAD) == plaintext


@pytest.mark.parametrize("chunk_size", (0, 64))
def test_batch_tags_are_stdlib_hmac(chunk_size):
    records = [b"", b"a", b"b" * 31, b"c" * 33, b"d" * 200]
    batch = AeadKey(KEY).encrypt_batch(
        records, aad=AAD, nonce=NONCE, chunk_size=chunk_size
    )
    count = len(records).to_bytes(4, "big")
    if chunk_size:
        message = (b"SB2" + count + chunk_size.to_bytes(4, "big") + NONCE
                   + aad_header(AAD) + batch.manifest)
    else:
        message = b"SB1" + count + NONCE + aad_header(AAD) + bytes(batch.body)
    assert batch.tag == stdlib_hmac(MAC_KEY, message)
    parsed = SealedBatch.from_bytes(batch.to_bytes())
    assert AeadKey(KEY).decrypt_batch(parsed, aad=AAD) == records
