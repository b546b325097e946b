"""Known-answer vectors for the three seal framings.

The hypothesis suites prove round trips and fail-closed behaviour; they
cannot notice a change that re-keys or re-frames *both* directions at
once.  These digests pin the wire bytes themselves: a fixed key, nonce
and associated data must keep producing exactly these frames -- through
the object layer (``encrypt*`` + ``to_bytes``) and through the
``seal``/``seal_records`` boundary every other package uses.
"""

import hashlib

import pytest

from repro.crypto import aead
from repro.crypto.aead import (
    AeadKey,
    BATCH_MAGIC,
    CHUNKED_MAGIC,
    Ciphertext,
    SealedBatch,
)

KEY = AeadKey(bytes(range(32)))
NONCE = bytes(range(16, 32))
AAD = b"kat"
RECORDS = [bytes([i % 251]) * (i * 37 % 200) for i in range(64)]
BIG = bytes((i * 7 + 3) % 256 for i in range(600 * 1024))


class _FixedNonce:
    """``seal_records`` takes no nonce: it draws NONCE from its key."""

    def bytes(self, n):
        assert n == len(NONCE)
        return NONCE


def test_single_record_ciphertext_vector():
    for raw in (
        KEY.encrypt(b"securecloud", aad=AAD, nonce=NONCE).to_bytes(),
        KEY.seal(b"securecloud", AAD, nonce=NONCE),
    ):
        assert len(raw) == 59
        assert hashlib.sha256(raw).hexdigest() == (
            "1c089fb0de3b0c75594a3145add9c424219753d357f1b4f03b8181bc20c0929d"
        )
        assert KEY.decrypt(Ciphertext.from_bytes(raw), aad=AAD) == b"securecloud"
        assert KEY.open(raw, AAD) == b"securecloud"


@pytest.mark.parametrize(
    "payloads, chunk_size, magic, size, digest",
    [
        (RECORDS, None, BATCH_MAGIC, 6703,
         "add48ec9993b25842ae7bf728f1c30cc167a1fef1139dd0e78ff4069ad2a367b"),
        ([BIG], None, CHUNKED_MAGIC, 614575,
         "2e52ecbf653383e19154c3bf19ec00c59f5478a0c2766e5d2c2abdaf8e3bdad6"),
        (RECORDS, 1024, CHUNKED_MAGIC, 6963,
         "d56ec41c0695426e880947ba681f16c9823db05e20f751f502489b8e5c093cb6"),
    ],
    ids=["sb1", "sb2-auto", "sb2-small-chunks"],
)
def test_batch_frame_vector(
    payloads, chunk_size, magic, size, digest, monkeypatch
):
    raws = [KEY.encrypt_batch(
        payloads, aad=AAD, nonce=NONCE, chunk_size=chunk_size
    ).to_bytes()]
    # The boundary selects the framing by size alone; a forced chunk
    # size is reached by moving the threshold it selects against.
    if chunk_size is not None:
        monkeypatch.setattr(aead, "DEFAULT_CHUNK_SIZE", chunk_size)
    raws.append(
        AeadKey(KEY.key_bytes, random_source=_FixedNonce()).seal_records(
            payloads, AAD
        )
    )
    for raw in raws:
        assert raw[:3] == magic
        assert len(raw) == size
        assert hashlib.sha256(raw).hexdigest() == digest
        assert KEY.decrypt_batch(SealedBatch.from_bytes(raw), aad=AAD) == payloads
        assert KEY.open_records(raw, AAD) == payloads
