"""Shielded standard I/O streams.

SCONE transparently encrypts data flowing through stdin/stdout/stderr so
the host OS sees only ciphertext.  Each stream direction has its own key
(carried in the SCF) and a record counter, so the untrusted side cannot
read, modify, reorder, replay, or drop records without detection.

High-throughput writers can coalesce many chunks into one sealed record
with :meth:`ShieldedStreamWriter.write_batch`: the chunks travel as one
:class:`~repro.crypto.aead.SealedBatch` frame (one nonce, one tag, one
keystream pass) under a single sequence number.  The reader recognises
the batch framing transparently and yields the concatenated bytes, so
stream semantics are unchanged.
"""

from repro.errors import IntegrityError
from repro.crypto.aead import Ciphertext, SealedBatch


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
        record = self.key.encrypt(data, aad=self._aad()).to_bytes()
        self._sequence += 1
        self.transport.append(record)
        return record

    def write_batch(self, chunks):
        """Seal many chunks as one record (one nonce+tag for the batch).

        Consumes a single sequence number: the batch is one record on
        the wire, ordered and replay-protected like any other.
        """
        record = self.key.encrypt_batch(list(chunks), aad=self._aad()).to_bytes()
        self._sequence += 1
        self.transport.append(record)
        return record

    def close(self):
        """Emit an authenticated end-of-stream marker.

        Without it, the untrusted host could silently truncate the
        stream; the reader treats missing closure as an error.
        """
        record = self.key.encrypt(b"", aad=b"%s|eof|%d" % (
            self.stream_name.encode("utf-8"), self._sequence
        )).to_bytes()
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
        if SealedBatch.is_batch(record):
            # A single record leads with its random nonce, which can
            # spell the batch magic: what does not open as a batch is
            # still tried as a single record before it is refused.
            try:
                chunks = self.key.decrypt_batch(
                    SealedBatch.from_bytes(record), aad=data_aad
                )
            except IntegrityError:
                pass
            else:
                self._sequence += 1
                return b"".join(chunks)
        ciphertext = Ciphertext.from_bytes(record)
        try:
            plaintext = self.key.decrypt(ciphertext, aad=data_aad)
        except IntegrityError:
            eof_aad = b"%s|eof|%d" % (name, self._sequence)
            try:
                self.key.decrypt(ciphertext, aad=eof_aad)
            except IntegrityError:
                raise IntegrityError(
                    "stream %s record %d failed authentication (tampered, "
                    "reordered, replayed, or dropped)"
                    % (self.stream_name, self._sequence)
                ) from None
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
