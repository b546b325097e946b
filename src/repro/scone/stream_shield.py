"""Shielded standard I/O streams.

SCONE transparently encrypts data flowing through stdin/stdout/stderr so
the host OS sees only ciphertext.  Each stream direction has its own key
(carried in the SCF) and a record counter, so the untrusted side cannot
read, modify, reorder, replay, or drop records without detection.

High-throughput writers can coalesce many chunks into one sealed record
with :meth:`ShieldedStreamWriter.write_batch`: the chunks travel as one
:meth:`~repro.crypto.aead.AeadKey.seal_records` frame (one nonce, one
tag, one keystream pass) under a single sequence number.  The reader
recognises the batch framing transparently and yields the concatenated
bytes, so stream semantics are unchanged.
"""

from repro.errors import IntegrityError


class ShieldedStreamWriter:
    """The in-enclave writing end of a shielded stream."""

    def __init__(self, key, stream_name="stdout", transport=None):
        self.key = key
        self.stream_name = stream_name
        self.transport = transport if transport is not None else []
        self._sequence = 0

    @property
    def records_written(self):
        """Number of records emitted so far."""
        return self._sequence

    def _aad(self):
        return b"%s|%d" % (self.stream_name.encode("utf-8"), self._sequence)

    def write(self, data):
        """Encrypt ``data`` as the next record and hand it to the host."""
        record = self.key.seal(data, self._aad())
        self._sequence += 1
        self.transport.append(record)
        return record

    def write_batch(self, chunks):
        """Seal many chunks as one record (one nonce+tag for the batch).

        Consumes a single sequence number: the batch is one record on
        the wire, ordered and replay-protected like any other.
        """
        record = self.key.seal_records(chunks, self._aad())
        self._sequence += 1
        self.transport.append(record)
        return record

    def close(self):
        """Emit an authenticated end-of-stream marker.

        Without it, the untrusted host could silently truncate the
        stream; the reader treats missing closure as an error.
        """
        record = self.key.seal(b"", b"%s|eof|%d" % (
            self.stream_name.encode("utf-8"), self._sequence
        ))
        self.transport.append(record)
        return record


class ShieldedStreamReader:
    """The consuming end: verifies order, integrity, and closure."""

    def __init__(self, key, stream_name="stdout", transport=None):
        self.key = key
        self.stream_name = stream_name
        self.transport = transport if transport is not None else []
        self._sequence = 0
        self._closed = False

    @property
    def closed(self):
        """True once the end-of-stream marker has been verified."""
        return self._closed

    def read_record(self, record):
        """Verify and decrypt one record (raises on any tampering)."""
        if self._closed:
            raise IntegrityError("records after authenticated end of stream")
        name = self.stream_name.encode("utf-8")
        data_aad = b"%s|%d" % (name, self._sequence)
        # A single record leads with its random nonce, which can spell
        # the batch magic: what does not open as records (refused on its
        # magic alone, nearly always) is still tried as a single record,
        # then as the end-of-stream marker, before it is refused.
        try:
            plaintext = b"".join(self.key.open_records(record, data_aad))
        except IntegrityError:
            try:
                plaintext = self.key.open(record, data_aad)
            except IntegrityError:
                self.key.open(
                    record, b"%s|eof|%d" % (name, self._sequence),
                    what="stream %s record %d"
                    % (self.stream_name, self._sequence),
                )
                self._closed = True
                return b""
        self._sequence += 1
        return plaintext

    def drain(self):
        """Read every record queued on the transport, in order."""
        chunks = []
        while self.transport:
            record = self.transport.pop(0)
            chunk = self.read_record(record)
            if self._closed:
                break
            chunks.append(chunk)
        return b"".join(chunks)
