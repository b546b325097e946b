"""Property-based tests for the sealed-batch AEAD framing.

Random payload batches must round-trip exactly, and every adversarial
mutation of the wire blob -- truncation at any point, any single bit
flip, reordered record frames, a forged record count, a swapped AAD --
must fail *closed*: :class:`~repro.errors.IntegrityError` before a
single byte of plaintext is released.
"""

import pytest

from hypothesis import assume, given, settings, strategies as st

from repro.crypto.aead import (
    BATCH_MAGIC,
    CHUNKED_MAGIC,
    NONCE_SIZE,
    TAG_SIZE,
    AeadKey,
    SealedBatch,
    _LEN_SIZE,
    _frame_records,
    _unframe_records,
)
from repro.crypto.primitives import DeterministicRandomSource
from repro.errors import IntegrityError

_HEADER = len(BATCH_MAGIC) + 4 + NONCE_SIZE + TAG_SIZE


def _key(seed):
    return AeadKey.generate(DeterministicRandomSource(seed))


def _open(key, raw, aad=b""):
    return key.decrypt_batch(SealedBatch.from_bytes(raw), aad=aad)


class TestRoundTrip:
    @settings(max_examples=50)
    @given(
        st.integers(min_value=0, max_value=2**16),
        st.lists(st.binary(max_size=256), max_size=16),
        st.binary(max_size=32),
    )
    def test_wire_round_trip(self, seed, payloads, aad):
        key = _key(seed)
        raw = key.encrypt_batch(payloads, aad=aad).to_bytes()
        assert _open(key, raw, aad=aad) == payloads

    @settings(max_examples=25)
    @given(st.lists(st.binary(max_size=64), max_size=8))
    def test_ciphertext_hides_payload_bytes(self, payloads):
        key = _key(1)
        raw = key.encrypt_batch(payloads).to_bytes()
        body = raw[_HEADER:]
        for payload in payloads:
            if len(payload) >= 8:        # short strings collide by chance
                assert payload not in body


class TestFailClosed:
    @settings(max_examples=50)
    @given(
        st.lists(st.binary(min_size=1, max_size=64), min_size=1, max_size=8),
        st.data(),
    )
    def test_any_truncation_fails_closed(self, payloads, data):
        key = _key(2)
        raw = key.encrypt_batch(payloads).to_bytes()
        cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
        with pytest.raises(IntegrityError):
            _open(key, raw[:cut])

    @settings(max_examples=50)
    @given(
        st.lists(st.binary(max_size=64), max_size=8),
        st.data(),
    )
    def test_any_bit_flip_fails_closed(self, payloads, data):
        key = _key(3)
        raw = bytearray(key.encrypt_batch(payloads).to_bytes())
        position = data.draw(
            st.integers(min_value=0, max_value=len(raw) - 1)
        )
        bit = data.draw(st.integers(min_value=0, max_value=7))
        raw[position] ^= 1 << bit
        with pytest.raises(IntegrityError):
            _open(key, bytes(raw))

    @settings(max_examples=50)
    @given(
        st.lists(st.binary(min_size=4, max_size=32), min_size=2,
                 max_size=6),
        st.data(),
    )
    def test_reordered_frames_fail_closed(self, payloads, data):
        """Swapping two whole ``len || record`` frames inside the
        encrypted body is a splice, not noise -- the tag still refuses
        it, so record order is authenticated."""
        # Make records pairwise distinct so a swap changes the frame.
        payloads = [
            index.to_bytes(2, "big") + payload
            for index, payload in enumerate(payloads)
        ]
        key = _key(4)
        batch = key.encrypt_batch(payloads)
        # Frame boundaries inside the (encrypted) body mirror the
        # plaintext framing: len-prefix plus payload, in order.
        offsets, cursor = [], 0
        for payload in payloads:
            size = _LEN_SIZE + len(payload)
            offsets.append((cursor, cursor + size))
            cursor += size
        first = data.draw(
            st.integers(min_value=0, max_value=len(payloads) - 2)
        )
        second = data.draw(
            st.integers(min_value=first + 1, max_value=len(payloads) - 1)
        )
        body = batch.body
        (a0, a1), (b0, b1) = offsets[first], offsets[second]
        mutated = (body[:a0] + body[b0:b1] + body[a1:b0]
                   + body[a0:a1] + body[b1:])
        assert len(mutated) == len(body)
        assume(mutated != body)
        raw = SealedBatch(
            nonce=batch.nonce, body=mutated, tag=batch.tag,
            count=batch.count,
        ).to_bytes()
        with pytest.raises(IntegrityError):
            _open(key, raw)

    @settings(max_examples=50)
    @given(
        st.lists(st.binary(max_size=64), max_size=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_forged_count_fails_closed(self, payloads, forged):
        key = _key(5)
        batch = key.encrypt_batch(payloads)
        assume(forged != batch.count)
        raw = SealedBatch(
            nonce=batch.nonce, body=batch.body, tag=batch.tag,
            count=forged,
        ).to_bytes()
        with pytest.raises(IntegrityError):
            _open(key, raw)

    @settings(max_examples=25)
    @given(
        st.lists(st.binary(max_size=64), max_size=8),
        st.binary(max_size=16),
        st.binary(max_size=16),
    )
    def test_aad_swap_fails_closed(self, payloads, aad, other_aad):
        assume(aad != other_aad)
        key = _key(6)
        raw = key.encrypt_batch(payloads, aad=aad).to_bytes()
        with pytest.raises(IntegrityError):
            _open(key, raw, aad=other_aad)

    @settings(max_examples=25)
    @given(
        st.lists(st.binary(max_size=64), max_size=8),
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_wrong_key_fails_closed(self, payloads, seed_a, seed_b):
        assume(seed_a != seed_b)
        raw = _key(seed_a).encrypt_batch(payloads).to_bytes()
        with pytest.raises(IntegrityError):
            _open(_key(seed_b), raw)


def _reference_unframe(frame, count):
    """The record parser as first written: re-slice the view per field."""
    view = memoryview(frame)
    records = []
    for _ in range(count):
        if len(view) < _LEN_SIZE:
            raise IntegrityError("sealed batch record framing truncated")
        length = int.from_bytes(view[:_LEN_SIZE], "big")
        view = view[_LEN_SIZE:]
        if len(view) < length:
            raise IntegrityError("sealed batch record framing truncated")
        records.append(bytes(view[:length]))
        view = view[length:]
    if len(view):
        raise IntegrityError("trailing bytes after sealed batch records")
    return records


def _outcome(parse, frame, count):
    try:
        return parse(frame, count)
    except IntegrityError as exc:
        return str(exc)


class TestRecordFraming:
    """``_unframe_records`` runs on authenticated plaintext, so the tag
    tests above never reach it with a malformed frame; these do."""

    @settings(max_examples=50)
    @given(st.lists(st.binary(max_size=64), max_size=12))
    def test_round_trip_from_bytes_and_from_a_view(self, payloads):
        frame = _frame_records(payloads)
        assert _unframe_records(frame, len(payloads)) == payloads
        assert _unframe_records(
            memoryview(bytearray(frame)), len(payloads)
        ) == payloads

    @settings(max_examples=25)
    @given(st.lists(st.binary(max_size=32), min_size=1, max_size=8))
    def test_every_prefix_and_any_trailing_byte_fail_closed(self, payloads):
        frame = _frame_records(payloads)
        for cut in range(len(frame)):
            with pytest.raises(IntegrityError, match="framing truncated"):
                _unframe_records(frame[:cut], len(payloads))
        with pytest.raises(IntegrityError, match="trailing bytes"):
            _unframe_records(frame + b"\x00", len(payloads))
        with pytest.raises(IntegrityError, match="trailing bytes"):
            _unframe_records(frame, len(payloads) - 1)

    @settings(max_examples=100)
    @given(
        st.one_of(
            st.binary(max_size=96),
            st.lists(st.binary(max_size=24), max_size=6).map(_frame_records),
        ),
        st.integers(min_value=0, max_value=8),
    )
    def test_same_records_or_same_refusal_as_the_reference(
        self, frame, count
    ):
        assert _outcome(_unframe_records, frame, count) == _outcome(
            _reference_unframe, frame, count
        )


def _mutate(raw, data):
    """One adversarial edit of a wire blob: a byte flip or a truncation."""
    position = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    if data.draw(st.booleans()):
        return raw[:position]
    flipped = bytearray(raw)
    flipped[position] ^= data.draw(st.integers(min_value=1, max_value=255))
    return bytes(flipped)


class TestSealBoundary:
    """``seal``/``open`` and ``seal_records``/``open_records``: the
    bytes-in/bytes-out boundary every package outside ``repro.crypto``
    uses, held to the same fail-closed contract as the object layer."""

    @settings(max_examples=50)
    @given(
        st.integers(min_value=0, max_value=2**16),
        st.lists(st.binary(max_size=256), max_size=16),
        st.binary(max_size=32),
    )
    def test_round_trip(self, seed, payloads, aad):
        key = _key(seed)
        sealed = key.seal_records(payloads, aad)
        assert key.open_records(sealed, aad) == payloads
        for payload in payloads:
            assert key.open(key.seal(payload, aad), aad) == payload

    @settings(max_examples=100)
    @given(st.binary(max_size=128), st.booleans(), st.data())
    def test_any_flip_or_truncation_names_the_callers_what(
        self, payload, records, data
    ):
        key = _key(7)
        if records:
            raw, opener = key.seal_records([payload], b"aad"), key.open_records
        else:
            raw, opener = key.seal(payload, b"aad"), key.open
        mutated = _mutate(raw, data)
        with pytest.raises(IntegrityError) as raised:
            opener(mutated, b"aad", what="meter frame 7")
        assert str(raised.value).startswith("meter frame 7")
        # The label is all ``what`` changes: without it the same
        # underlying reason surfaces as the error itself.
        with pytest.raises(IntegrityError) as bare:
            opener(mutated, b"aad")
        assert str(bare.value) == str(raised.value.__cause__)

    @settings(max_examples=50)
    @given(
        st.binary(max_size=128),
        st.sampled_from([None, BATCH_MAGIC, CHUNKED_MAGIC]),
        st.binary(min_size=NONCE_SIZE, max_size=NONCE_SIZE),
    )
    def test_the_two_framings_never_open_as_each_other(
        self, payload, magic, nonce
    ):
        """Including a single record whose random nonce happens to
        spell a batch magic (2 in 2**24 nonces do)."""
        key = _key(8)
        if magic is not None:
            nonce = magic + nonce[len(magic):]
        single = key.seal(payload, b"aad", nonce=nonce)
        assert key.open(single, b"aad") == payload
        with pytest.raises(IntegrityError):
            key.open_records(single, b"aad", what="frame")
        framed = key.seal_records([payload], b"aad")
        assert key.open_records(framed, b"aad") == [payload]
        with pytest.raises(IntegrityError):
            key.open(framed, b"aad", what="record")

    @pytest.mark.parametrize("blob", [None, "SB1 a str", 17, 1.5, [b"x"]])
    def test_a_blob_that_is_not_bytes_is_an_integrity_error(self, blob):
        """Blobs come back from untrusted stores; a wrong *type* is one
        more way to be tampered with, not a ``TypeError``."""
        key = _key(9)
        for opener in (key.open, key.open_records, key.open_record):
            with pytest.raises(IntegrityError, match="^dataset failed"):
                opener(blob, b"aad", what="dataset")

    @pytest.mark.parametrize("count", [0, 2, 5])
    def test_open_record_takes_exactly_one_record(self, count):
        """A state-sized message is a record list of one; a list of any
        other length under the right key and AAD is refused as tampered,
        never unpacked into a ``ValueError``."""
        key = _key(11)
        assert key.open_record(
            key.seal_records([b"state"], b"aad"), b"aad"
        ) == b"state"
        several = key.seal_records([b"state"] * count, b"aad")
        with pytest.raises(IntegrityError, match="^checkpoint holds %d" % count):
            key.open_record(several, b"aad", what="checkpoint")
        with pytest.raises(IntegrityError, match="^sealed blob holds"):
            key.open_record(several, b"aad")
        with pytest.raises(IntegrityError, match="^checkpoint failed"):
            key.open_record(key.seal(b"state", b"aad"), b"aad",
                            what="checkpoint")

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_any_bytes_like_blob_opens(self, wrap):
        key = _key(10)
        assert key.open(wrap(key.seal(b"one", b"aad")), b"aad") == b"one"
        assert key.open_records(
            wrap(key.seal_records([b"one", b"two"], b"aad")), b"aad"
        ) == [b"one", b"two"]
