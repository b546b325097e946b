"""Tests for shielded standard streams."""

import pytest

from repro.errors import IntegrityError
from repro.crypto.aead import AeadKey
from repro.crypto.primitives import DeterministicRandomSource
from repro.scone.stream_shield import ShieldedStreamReader, ShieldedStreamWriter


def key(seed=0):
    return AeadKey(DeterministicRandomSource(seed).bytes(32))


def pair(stream_name="stdout"):
    transport = []
    k = key()
    writer = ShieldedStreamWriter(k, stream_name, transport)
    reader = ShieldedStreamReader(k, stream_name, transport)
    return writer, reader, transport


class TestStreams:
    def test_round_trip(self):
        writer, reader, _transport = pair()
        writer.write(b"line one\n")
        writer.write(b"line two\n")
        writer.close()
        assert reader.drain() == b"line one\nline two\n"
        assert reader.closed

    def test_transport_is_ciphertext(self):
        writer, _reader, transport = pair()
        writer.write(b"SECRET-OUTPUT")
        assert b"SECRET-OUTPUT" not in transport[0]

    def test_tampered_record(self):
        writer, reader, transport = pair()
        writer.write(b"data")
        blob = bytearray(transport[0])
        blob[-1] ^= 1
        with pytest.raises(IntegrityError):
            reader.read_record(bytes(blob))

    def test_reordered_records(self):
        writer, reader, transport = pair()
        writer.write(b"first")
        writer.write(b"second")
        transport.reverse()
        with pytest.raises(IntegrityError):
            reader.drain()

    def test_replayed_record(self):
        writer, reader, transport = pair()
        writer.write(b"once")
        record = transport[0]
        assert reader.read_record(record) == b"once"
        with pytest.raises(IntegrityError):
            reader.read_record(record)

    def test_dropped_record_detected(self):
        writer, reader, transport = pair()
        writer.write(b"first")
        writer.write(b"second")
        del transport[0]
        with pytest.raises(IntegrityError):
            reader.drain()

    def test_cross_stream_record_rejected(self):
        shared_key = key()
        out_writer = ShieldedStreamWriter(shared_key, "stdout")
        err_reader = ShieldedStreamReader(shared_key, "stderr")
        record = out_writer.write(b"misdirected")
        with pytest.raises(IntegrityError):
            err_reader.read_record(record)

    def test_wrong_key_rejected(self):
        writer, _reader, transport = pair()
        writer.write(b"data")
        wrong_reader = ShieldedStreamReader(key(9), "stdout", transport)
        with pytest.raises(IntegrityError):
            wrong_reader.drain()

    def test_records_after_close_rejected(self):
        writer, reader, _transport = pair()
        writer.write(b"data")
        close_record = writer.close()
        reader.read_record(writer.transport[0])
        reader.read_record(close_record)
        extra = writer.write(b"sneaky")
        with pytest.raises(IntegrityError):
            reader.read_record(extra)

    def test_records_written_counter(self):
        writer, _reader, _transport = pair()
        writer.write(b"a")
        writer.write(b"b")
        assert writer.records_written == 2


class TestBatchedRecords:
    def test_round_trip(self):
        writer, reader, _transport = pair()
        writer.write_batch([b"one ", b"two ", b"three"])
        writer.close()
        assert reader.drain() == b"one two three"
        assert reader.closed

    def test_batch_consumes_one_sequence_number(self):
        writer, reader, _transport = pair()
        writer.write_batch([b"a", b"b"])
        writer.write(b"c")
        writer.close()
        assert writer.records_written == 2
        assert reader.drain() == b"abc"

    def test_batch_is_ciphertext_on_wire(self):
        writer, _reader, transport = pair()
        writer.write_batch([b"SECRET-ONE", b"SECRET-TWO"])
        assert b"SECRET-ONE" not in transport[0]
        assert b"SECRET-TWO" not in transport[0]

    def test_tampered_batch_detected(self):
        writer, reader, transport = pair()
        writer.write_batch([b"data", b"more"])
        blob = bytearray(transport[0])
        blob[-1] ^= 1
        with pytest.raises(IntegrityError):
            reader.read_record(bytes(blob))

    def test_reordered_batches_detected(self):
        writer, reader, transport = pair()
        writer.write_batch([b"first"])
        writer.write_batch([b"second"])
        transport.reverse()
        with pytest.raises(IntegrityError):
            reader.drain()

    def test_replayed_batch_detected(self):
        writer, reader, transport = pair()
        writer.write_batch([b"once"])
        record = transport[0]
        assert reader.read_record(record) == b"once"
        with pytest.raises(IntegrityError):
            reader.read_record(record)

    def test_mixed_batch_and_single_framing_amortised(self):
        chunks = [b"x" * 32] * 64
        batch_writer, batch_reader, batch_transport = pair()
        batch_writer.write_batch(chunks)
        single_writer, _reader, single_transport = pair()
        for chunk in chunks:
            single_writer.write(chunk)
        assert sum(map(len, batch_transport)) < sum(map(len, single_transport))
        assert batch_reader.read_record(batch_transport[0]) == b"".join(chunks)


class TestNonceSpellingBatchMagic:
    """A single record leads with its random nonce, which may read
    ``SB1``/``SB2``; the reader must not mistake it for a batch."""

    @pytest.mark.parametrize("magic", [b"SB1", b"SB2"])
    def test_data_record_reads_back(self, magic):
        k = key()
        reader = ShieldedStreamReader(k)
        record = k.encrypt(
            b"hello", aad=b"stdout|0", nonce=magic + bytes(13)
        ).to_bytes()
        assert record[:3] == magic
        assert reader.read_record(record) == b"hello"
        follow_up = k.encrypt(b"next", aad=b"stdout|1").to_bytes()
        assert reader.read_record(follow_up) == b"next"

    @pytest.mark.parametrize("magic", [b"SB1", b"SB2"])
    def test_eof_marker_closes_the_stream(self, magic):
        k = key()
        reader = ShieldedStreamReader(k)
        marker = k.encrypt(
            b"", aad=b"stdout|eof|0", nonce=magic + bytes(13)
        ).to_bytes()
        assert reader.read_record(marker) == b""
        assert reader.closed

    def test_tampered_batch_fails_closed_without_advancing(self):
        writer, reader, transport = pair()
        writer.write_batch([b"data", b"more"])
        blob = bytearray(transport[0])
        blob[-1] ^= 1
        with pytest.raises(IntegrityError, match="record 0 failed auth"):
            reader.read_record(bytes(blob))
        assert not reader.closed
        assert reader.read_record(transport[0]) == b"datamore"
