"""Unit tests for the chunked sealing core.

Covers the chunk geometry, the per-chunk derivations, the keystream
pass, manifest verification, the auto-selection threshold between
``SB1`` and ``SB2`` framing, and the deterministic virtual cost model
the benchmarks gate on.
"""

import dataclasses

import pytest

from repro.crypto.aead import AeadKey, BATCH_MAGIC, CHUNKED_MAGIC, SealedBatch
from repro.crypto.chunked import (
    CHUNK_SEAL_CYCLES_PER_BYTE,
    CHUNK_SETUP_CYCLES,
    DEFAULT_CHUNK_SIZE,
    MANIFEST_ENTRY_SIZE,
    CHUNK_DISPATCH_CYCLES,
    build_manifest,
    chunk_nonce,
    chunk_spans,
    chunked_keystream_xor,
    chunked_seal_cycles,
    derive_chunk_key,
    serial_seal_cycles,
    verify_manifest,
)
from repro.crypto.primitives import DeterministicRandomSource
from repro.errors import IntegrityError

CHUNK = 1024


def _key(seed=7):
    return AeadKey.generate(DeterministicRandomSource(seed))


def _payload(size, seed=11):
    return DeterministicRandomSource(seed).bytes(size)


class TestChunkGeometry:
    def test_spans_cover_exactly(self):
        spans = chunk_spans(2500, 1000)
        assert spans == [(0, 1000), (1000, 1000), (2000, 500)]

    def test_empty_payload_has_no_spans(self):
        assert chunk_spans(0, 1000) == []

    def test_exact_multiple_has_no_runt(self):
        assert chunk_spans(2000, 1000) == [(0, 1000), (1000, 1000)]

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            chunk_spans(10, 0)
        with pytest.raises(ValueError):
            chunk_spans(-1, 10)


class TestDerivations:
    def test_chunk_keys_differ_per_index_and_nonce(self):
        enc = b"k" * 32
        nonce = b"n" * 16
        keys = {derive_chunk_key(enc, nonce, i) for i in range(8)}
        assert len(keys) == 8
        assert derive_chunk_key(enc, b"m" * 16, 0) != derive_chunk_key(
            enc, nonce, 0
        )

    def test_chunk_nonce_is_prefix_plus_counter(self):
        nonce = bytes(range(16))
        assert chunk_nonce(nonce, 3) == nonce[:8] + (3).to_bytes(8, "big")


class TestWorkerInvariance:
    def test_xor_is_its_own_inverse(self):
        data = _payload(3 * CHUNK + 1)
        sealed = chunked_keystream_xor(b"e" * 32, b"v" * 16, data, CHUNK)
        opened = chunked_keystream_xor(b"e" * 32, b"v" * 16, sealed, CHUNK)
        assert opened == data

    def test_memoryview_input_accepted(self):
        data = _payload(2 * CHUNK)
        direct = chunked_keystream_xor(b"e" * 32, b"v" * 16, data, CHUNK)
        viewed = chunked_keystream_xor(
            b"e" * 32, b"v" * 16, memoryview(data), CHUNK
        )
        assert direct == viewed


class TestManifest:
    def test_manifest_entry_count_matches_chunks(self):
        body = _payload(3 * CHUNK + 7)
        manifest = build_manifest(body, CHUNK)
        assert len(manifest) == 4 * MANIFEST_ENTRY_SIZE
        verify_manifest(body, CHUNK, manifest)

    def test_truncated_body_fails(self):
        body = _payload(2 * CHUNK)
        manifest = build_manifest(body, CHUNK)
        with pytest.raises(IntegrityError):
            verify_manifest(body[:-1], CHUNK, manifest)

    def test_reordered_chunks_fail(self):
        body = _payload(2 * CHUNK)
        manifest = build_manifest(body, CHUNK)
        swapped = body[CHUNK:] + body[:CHUNK]
        with pytest.raises(IntegrityError):
            verify_manifest(swapped, CHUNK, manifest)

    def test_ragged_manifest_length_fails(self):
        body = _payload(CHUNK)
        manifest = build_manifest(body, CHUNK)
        with pytest.raises(IntegrityError):
            verify_manifest(body, CHUNK, manifest[:-1])

    def test_empty_body_empty_manifest(self):
        assert build_manifest(b"", CHUNK) == b""
        verify_manifest(b"", CHUNK, b"")


class TestAutoSelection:
    def test_sub_chunk_frames_keep_sb1_bytes(self):
        # Small records must not regress: the auto-selected path must be
        # byte-identical to the forced-serial SB1 path.
        key = _key()
        nonce = DeterministicRandomSource(3).bytes(16)
        records = [b"r" * 64] * 16
        auto = key.encrypt_batch(records, aad=b"s", nonce=nonce)
        forced = key.encrypt_batch(records, aad=b"s", nonce=nonce, chunk_size=0)
        assert auto.to_bytes() == forced.to_bytes()
        assert auto.to_bytes()[:3] == BATCH_MAGIC

    def test_large_frames_choose_chunked(self):
        key = _key()
        batch = key.encrypt_batch([_payload(DEFAULT_CHUNK_SIZE + 1)])
        assert batch.chunk_size == DEFAULT_CHUNK_SIZE
        assert batch.to_bytes()[:3] == CHUNKED_MAGIC

    def test_threshold_boundary_stays_serial(self):
        key = _key()
        # Exactly one chunk's worth of framed bytes must stay serial
        # (chunking a single chunk is pure overhead).
        payload = _payload(DEFAULT_CHUNK_SIZE - 4)
        assert key.encrypt_batch([payload]).chunk_size == 0

    def test_wire_round_trip_both_magics(self):
        key = _key()
        for payloads in ([b"tiny"], [_payload(DEFAULT_CHUNK_SIZE * 2)]):
            raw = key.encrypt_batch(payloads, aad=b"w").to_bytes()
            assert SealedBatch.is_batch(raw)
            opened = key.decrypt_batch(SealedBatch.from_bytes(raw), aad=b"w")
            assert opened == payloads


class TestChunkedFailClosed:
    def test_tampered_chunk_fails_before_plaintext(self):
        key = _key()
        batch = key.encrypt_batch([_payload(3 * CHUNK)], chunk_size=CHUNK)
        evil_body = bytearray(batch.body)
        evil_body[CHUNK + 5] ^= 0x80
        evil = dataclasses.replace(batch, body=bytes(evil_body))
        with pytest.raises(IntegrityError):
            key.decrypt_batch(evil)

    def test_consistent_reorder_of_manifest_and_body_fails_on_tag(self):
        # An attacker who reorders body chunks *and* the matching
        # manifest entries defeats the digest check but not the tag.
        key = _key()
        batch = key.encrypt_batch([_payload(2 * CHUNK)], chunk_size=CHUNK)
        body = bytes(batch.body)
        evil = dataclasses.replace(
            batch,
            body=body[CHUNK:] + body[:CHUNK],
            manifest=(
                batch.manifest[MANIFEST_ENTRY_SIZE:]
                + batch.manifest[:MANIFEST_ENTRY_SIZE]
            ),
        )
        with pytest.raises(IntegrityError):
            key.decrypt_batch(evil)

    def test_zero_chunk_size_wire_rejected(self):
        key = _key()
        raw = bytearray(
            key.encrypt_batch([_payload(2 * CHUNK)], chunk_size=CHUNK).to_bytes()
        )
        raw[7:11] = (0).to_bytes(4, "big")   # chunk_size field
        with pytest.raises(IntegrityError):
            SealedBatch.from_bytes(bytes(raw))


class TestCostModel:
    def test_serial_cost_is_linear(self):
        assert serial_seal_cycles(1000) == (
            CHUNK_SETUP_CYCLES + 1000 * CHUNK_SEAL_CYCLES_PER_BYTE
        )

    def test_empty_payload_costs_nothing(self):
        assert chunked_seal_cycles(0, DEFAULT_CHUNK_SIZE) == 0

    def test_dispatch_cost_charged_per_chunk(self):
        length = 4 * DEFAULT_CHUNK_SIZE
        cycles = chunked_seal_cycles(length, DEFAULT_CHUNK_SIZE)
        per_chunk = CHUNK_SETUP_CYCLES + (
            DEFAULT_CHUNK_SIZE * CHUNK_SEAL_CYCLES_PER_BYTE
        )
        assert cycles == 4 * (CHUNK_DISPATCH_CYCLES + per_chunk)
