"""Property-based tests for the chunked ``SB2`` sealing frame.

Mirrors the ``SB1`` suite in :mod:`tests.crypto.test_aead_properties`:
random payloads at chunk-size boundaries (empty, one byte, exactly N
chunks, N chunks plus one) must round-trip byte-exactly, and every
adversarial move against the chunk structure -- truncation, chunk
reordering, chunk duplication, splicing a chunk from another payload,
or the wrong key -- must fail *closed* with
:class:`~repro.errors.IntegrityError` before any plaintext is released.
"""

import dataclasses
from unittest import mock

import pytest

from hypothesis import given, settings, strategies as st

from repro.crypto import aead
from repro.crypto.aead import CHUNKED_MAGIC, AeadKey, SealedBatch
from repro.crypto.chunked import serial_seal_cycles
from repro.crypto.primitives import DeterministicRandomSource
from repro.errors import IntegrityError

CHUNK = 512          # small chunk size keeps many-chunk cases fast


def _key(seed):
    return AeadKey.generate(DeterministicRandomSource(seed))


def _seal(key, payload, seed=0, chunk_size=CHUNK):
    nonce = DeterministicRandomSource(seed + 1000).bytes(16)
    return key.encrypt_batch([payload], nonce=nonce, chunk_size=chunk_size)


# Payload sizes pinned to the interesting chunk boundaries: empty, one
# byte, one byte short of a chunk, exactly N chunks, N chunks plus one.
_boundary_sizes = st.sampled_from(
    [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK, 3 * CHUNK + 1]
)


def _payload(size, seed):
    return DeterministicRandomSource(seed + 7).bytes(size)


class TestRoundTrip:
    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=2**16), _boundary_sizes)
    def test_boundary_sizes_round_trip(self, seed, size):
        key = _key(seed)
        payload = _payload(size, seed)
        batch = _seal(key, payload, seed)
        raw = batch.to_bytes()
        opened = key.decrypt_batch(SealedBatch.from_bytes(raw))
        assert opened == [payload]


class TestFailClosed:
    @settings(max_examples=40)
    @given(
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=0, max_value=3 * CHUNK),
    )
    def test_truncation_anywhere_fails(self, seed, cut):
        key = _key(seed)
        raw = _seal(key, _payload(3 * CHUNK + 1, seed), seed).to_bytes()
        cut = min(cut, len(raw) - 1)
        with pytest.raises(IntegrityError):
            key.decrypt_batch(SealedBatch.from_bytes(raw[:cut]))

    @settings(max_examples=40)
    @given(
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
    )
    def test_chunk_reorder_fails(self, seed, a, b):
        if a == b:
            return
        key = _key(seed)
        batch = _seal(key, _payload(4 * CHUNK, seed), seed)
        body = bytearray(batch.body)
        chunk_a = bytes(body[a * CHUNK : (a + 1) * CHUNK])
        chunk_b = bytes(body[b * CHUNK : (b + 1) * CHUNK])
        body[a * CHUNK : (a + 1) * CHUNK] = chunk_b
        body[b * CHUNK : (b + 1) * CHUNK] = chunk_a
        evil = dataclasses.replace(batch, body=bytes(body))
        with pytest.raises(IntegrityError):
            key.decrypt_batch(evil)

    @settings(max_examples=40)
    @given(
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
    )
    def test_chunk_duplication_fails(self, seed, src, dst):
        if src == dst:
            return
        key = _key(seed)
        batch = _seal(key, _payload(4 * CHUNK, seed), seed)
        body = bytearray(batch.body)
        body[dst * CHUNK : (dst + 1) * CHUNK] = (
            body[src * CHUNK : (src + 1) * CHUNK]
        )
        evil = dataclasses.replace(batch, body=bytes(body))
        with pytest.raises(IntegrityError):
            key.decrypt_batch(evil)

    @settings(max_examples=40)
    @given(
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=0, max_value=2),
    )
    def test_cross_payload_splice_fails(self, seed, index):
        # Splice a same-position ciphertext chunk from a *different*
        # payload sealed under the same key (different nonce): the
        # manifest digest for that chunk no longer matches.
        key = _key(seed)
        victim = _seal(key, _payload(3 * CHUNK, seed), seed)
        donor = _seal(key, _payload(3 * CHUNK, seed + 1), seed + 1)
        body = bytearray(victim.body)
        body[index * CHUNK : (index + 1) * CHUNK] = bytes(
            donor.body[index * CHUNK : (index + 1) * CHUNK]
        )
        evil = dataclasses.replace(victim, body=bytes(body))
        with pytest.raises(IntegrityError):
            key.decrypt_batch(evil)

    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=2**16), _boundary_sizes)
    def test_wrong_key_fails(self, seed, size):
        raw = _seal(_key(seed), _payload(size, seed), seed).to_bytes()
        with pytest.raises(IntegrityError):
            _key(seed + 1).decrypt_batch(SealedBatch.from_bytes(raw))

    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=2**16))
    def test_wrong_aad_fails(self, seed):
        key = _key(seed)
        nonce = DeterministicRandomSource(seed).bytes(16)
        batch = key.encrypt_batch(
            [_payload(2 * CHUNK, seed)], aad=b"right", nonce=nonce,
            chunk_size=CHUNK,
        )
        with pytest.raises(IntegrityError):
            key.decrypt_batch(batch, aad=b"wrong")

    @settings(max_examples=25)
    @given(
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_single_bit_flip_anywhere_fails(self, seed, position):
        key = _key(seed)
        raw = bytearray(_seal(key, _payload(2 * CHUNK + 3, seed), seed).to_bytes())
        raw[position % len(raw)] ^= 1 << (position % 8)
        with pytest.raises(IntegrityError):
            key.decrypt_batch(SealedBatch.from_bytes(bytes(raw)))


class TestSealBoundary:
    """The same contract through ``seal_records``/``open_records``,
    which pick ``SB2`` by size alone (the chunk size is lowered here so
    many-chunk frames stay small)."""

    @settings(max_examples=40)
    @given(
        st.integers(min_value=0, max_value=2**16),
        st.sampled_from([CHUNK + 1, 3 * CHUNK, 3 * CHUNK + 1]),
        st.integers(min_value=0, max_value=2**16),
        st.booleans(),
    )
    def test_flip_or_truncation_of_a_chunked_frame_names_the_what(
        self, seed, size, position, truncate
    ):
        key = _key(seed)
        payload = _payload(size, seed)
        with mock.patch.object(aead, "DEFAULT_CHUNK_SIZE", CHUNK):
            raw = key.seal_records([payload], b"aad")
        assert raw[:3] == CHUNKED_MAGIC
        assert key.open_records(raw, b"aad") == [payload]
        position %= len(raw)
        if truncate:
            mutated = raw[:position]
        else:
            mutated = bytearray(raw)
            mutated[position] ^= 1 << (position % 8)
        with pytest.raises(IntegrityError, match="^table export failed"):
            key.open_records(mutated, b"aad", what="table export")
        with pytest.raises(IntegrityError):
            key.open(raw, b"aad")

    @given(st.integers(min_value=0, max_value=2**32))
    def test_one_price_per_sealed_byte(self, length):
        """The formula every seal site charges (the SCBR fan-out and
        plane messages, stream firings, checkpoints and handoffs, A9's
        serial row): 2000 cycles of setup plus 4 per byte."""
        assert serial_seal_cycles(length) == 2000 + 4 * length
