"""Authenticated encryption with associated data (AEAD).

The boundary every other package uses is bytes in, bytes out:
:meth:`AeadKey.seal` / :meth:`AeadKey.open` for one small fixed-size
payload and :meth:`AeadKey.seal_records` / :meth:`AeadKey.open_records`
for a list of records -- or, as a list of one opened with
:meth:`AeadKey.open_record`, for a payload whose size grows with state
(DESIGN section 10, "Which framing when").  ``seal*`` returns the wire
blob; ``open*`` parses it,
checks the tag and raises :class:`~repro.errors.IntegrityError` on
anything else -- a blob that is not bytes, a truncated or foreign
framing, a flipped bit -- naming the caller's ``what`` when one is
given.  The framing classes below (:class:`Ciphertext`,
:class:`SealedBatch`) and the object layer that produces them
(:meth:`AeadKey.encrypt` / :meth:`AeadKey.decrypt` /
:meth:`AeadKey.encrypt_batch` / :meth:`AeadKey.decrypt_batch`) stay
inside this package: the only outside user is
:mod:`repro.scone.fs_shield`, which stores a chunk's tag detached from
its body (DESIGN section 10, "The seal boundary").

Encrypt-then-MAC over an HMAC-SHA256 counter-mode keystream:

- encryption key and MAC key are derived independently from the AEAD key;
- the tag covers ``nonce || len(aad) || aad || ciphertext`` so truncation
  and aad-swapping attacks are caught;
- nonces are 16 random bytes drawn per encryption (collision probability
  negligible at simulation scales).

Underneath, :meth:`AeadKey.encrypt` mirrors AES-GCM's interface: it
returns a self-contained :class:`Ciphertext`, and
:meth:`AeadKey.decrypt` raises :class:`~repro.errors.IntegrityError` on
any tampering.

For bulk data the per-record nonce+tag framing (48 bytes) dominates small
records, and every record pays its own MAC finalisation.  The batch API
(:meth:`AeadKey.encrypt_batch` / :meth:`AeadKey.decrypt_batch`) seals many
records into one :class:`SealedBatch` frame: one nonce, one keystream
pass over the length-prefixed concatenation (a single-call SHAKE-256
XOF stream -- the batch plane is new, so it is free to use the fastest
PRF available), and one tag over the whole frame.  The framing is
versioned (magic ``SB1``) and domain-separated
from single-record tags, so a batch can never verify as a
:class:`Ciphertext` or vice versa.

Payloads larger than one chunk are sealed *chunked* (magic ``SB2``):
the body keystream is generated per chunk from derived per-chunk
material (see :mod:`repro.crypto.chunked`), and the frame carries a
manifest of per-chunk sizes and ciphertext digests.  The single AEAD
tag covers the manifest together with the chunk count and chunk size,
so truncation, chunk reordering, duplication, and cross-payload
splicing all fail closed.  Sub-chunk payloads keep the exact ``SB1``
bytes they always produced -- auto-selection never changes
small-record framing.
"""

from dataclasses import dataclass

from repro.errors import IntegrityError
from repro.crypto.chunked import (
    DEFAULT_CHUNK_SIZE,
    build_manifest,
    chunked_keystream_xor,
    verify_manifest,
)
from repro.crypto.primitives import (
    SystemRandomSource,
    constant_time_equal,
    hmac_context,
    hmac_sha256,
    keystream_xor,
    xof_keystream_xor,
)

KEY_SIZE = 32
NONCE_SIZE = 16
TAG_SIZE = 32

BATCH_MAGIC = b"SB1"
CHUNKED_MAGIC = b"SB2"
_LEN_SIZE = 4

_ENC_LABEL = b"securecloud-aead-enc"
_MAC_LABEL = b"securecloud-aead-mac"
_FINGERPRINT_LABEL = b"securecloud-key-fingerprint"


@dataclass(frozen=True)
class Ciphertext:
    """A self-contained AEAD ciphertext: nonce, payload, tag."""

    nonce: bytes
    body: bytes
    tag: bytes

    def to_bytes(self):
        """Serialise for storage or transmission."""
        return self.nonce + self.tag + self.body

    @classmethod
    def from_bytes(cls, raw):
        """Parse a blob produced by :meth:`to_bytes`."""
        if len(raw) < NONCE_SIZE + TAG_SIZE:
            raise IntegrityError("ciphertext too short")
        # bytes() of a bytes slice is the slice itself; a bytearray or
        # memoryview blob parses to the same three immutable fields.
        return cls(
            nonce=bytes(raw[:NONCE_SIZE]),
            tag=bytes(raw[NONCE_SIZE : NONCE_SIZE + TAG_SIZE]),
            body=bytes(raw[NONCE_SIZE + TAG_SIZE :]),
        )

    def __len__(self):
        return NONCE_SIZE + TAG_SIZE + len(self.body)


@dataclass(frozen=True, eq=True)
class SealedBatch:
    """Many records sealed as one frame: one nonce, one tag.

    ``body`` is the keystream-encrypted concatenation of
    ``len(record) || record`` for every record; ``count`` is
    authenticated (it participates in the tag header).

    A *chunked* batch (``chunk_size > 0``, wire magic ``SB2``) also
    carries ``manifest``: per body chunk, its size and the SHA-256 of
    its ciphertext, in order.  The tag then covers the manifest (plus
    count and chunk size) instead of the raw body -- the body is held
    to the authenticated manifest chunk by chunk.
    """

    nonce: bytes
    body: bytes
    tag: bytes
    count: int
    chunk_size: int = 0
    manifest: bytes = b""

    def to_bytes(self):
        """Serialise.

        ``SB1``: magic || count || nonce || tag || body.
        ``SB2``: magic || count || chunk_size || manifest_len || nonce
        || tag || manifest || body.  Built with one join so a
        ``memoryview`` body (the zero-copy decode path) serialises
        without an intermediate copy per ``+``.
        """
        if self.chunk_size:
            return b"".join((
                CHUNKED_MAGIC,
                self.count.to_bytes(4, "big"),
                self.chunk_size.to_bytes(4, "big"),
                len(self.manifest).to_bytes(4, "big"),
                self.nonce,
                self.tag,
                self.manifest,
                self.body,
            ))
        return b"".join((
            BATCH_MAGIC,
            self.count.to_bytes(4, "big"),
            self.nonce,
            self.tag,
            self.body,
        ))

    @classmethod
    def from_bytes(cls, raw):
        """Parse a blob produced by :meth:`to_bytes`.

        The body is kept as a ``memoryview`` into ``raw`` -- decode
        adds no ciphertext copy; the only copy on the open path is the
        per-record slice handed to the consumer.
        """
        magic = bytes(raw[: len(BATCH_MAGIC)])
        if magic == CHUNKED_MAGIC:
            header = len(CHUNKED_MAGIC) + 12 + NONCE_SIZE + TAG_SIZE
            if len(raw) < header:
                raise IntegrityError("sealed batch header truncated")
            view = memoryview(raw)
            offset = len(CHUNKED_MAGIC)
            count = int.from_bytes(view[offset : offset + 4], "big")
            chunk_size = int.from_bytes(view[offset + 4 : offset + 8], "big")
            manifest_len = int.from_bytes(view[offset + 8 : offset + 12], "big")
            offset += 12
            if chunk_size < 1:
                raise IntegrityError("chunked batch with zero chunk size")
            nonce = bytes(view[offset : offset + NONCE_SIZE])
            offset += NONCE_SIZE
            tag = bytes(view[offset : offset + TAG_SIZE])
            offset += TAG_SIZE
            if len(raw) - offset < manifest_len:
                raise IntegrityError("chunk manifest truncated")
            manifest = bytes(view[offset : offset + manifest_len])
            return cls(
                nonce=nonce,
                body=view[offset + manifest_len :],
                tag=tag,
                count=count,
                chunk_size=chunk_size,
                manifest=manifest,
            )
        header = len(BATCH_MAGIC) + 4 + NONCE_SIZE + TAG_SIZE
        if len(raw) < header or magic != BATCH_MAGIC:
            raise IntegrityError("not a sealed batch")
        view = memoryview(raw)
        offset = len(BATCH_MAGIC)
        count = int.from_bytes(view[offset : offset + 4], "big")
        offset += 4
        nonce = bytes(view[offset : offset + NONCE_SIZE])
        offset += NONCE_SIZE
        tag = bytes(view[offset : offset + TAG_SIZE])
        offset += TAG_SIZE
        return cls(nonce=nonce, body=view[offset:], tag=tag, count=count)

    @classmethod
    def is_batch(cls, raw):
        """Whether ``raw`` carries either batch framing magic."""
        return bytes(raw[: len(BATCH_MAGIC)]) in (BATCH_MAGIC, CHUNKED_MAGIC)

    def __len__(self):
        if self.chunk_size:
            return (
                len(CHUNKED_MAGIC) + 12 + NONCE_SIZE + TAG_SIZE
                + len(self.manifest) + len(self.body)
            )
        return len(BATCH_MAGIC) + 4 + NONCE_SIZE + TAG_SIZE + len(self.body)


def _frame_records(payloads):
    pieces = []
    for payload in payloads:
        pieces.append(len(payload).to_bytes(_LEN_SIZE, "big"))
        pieces.append(payload)
    return b"".join(pieces)


def _unframe_records(frame, count):
    view = memoryview(frame)
    total = len(view)
    records = []
    offset = 0
    for _ in range(count):
        start = offset + _LEN_SIZE
        if start > total:
            raise IntegrityError("sealed batch record framing truncated")
        offset = start + int.from_bytes(view[offset:start], "big")
        if offset > total:
            raise IntegrityError("sealed batch record framing truncated")
        records.append(bytes(view[start:offset]))
    if offset != total:
        raise IntegrityError("trailing bytes after sealed batch records")
    return records


class AeadKey:
    """A symmetric AEAD key.

    >>> key = AeadKey.generate()
    >>> ct = key.encrypt(b"secret", aad=b"header")
    >>> key.decrypt(ct, aad=b"header")
    b'secret'
    """

    def __init__(self, key_bytes, random_source=None):
        if len(key_bytes) != KEY_SIZE:
            raise ValueError("AEAD key must be %d bytes" % KEY_SIZE)
        self._key = bytes(key_bytes)
        self._enc_key = hmac_sha256(self._key, _ENC_LABEL)
        self._mac_key = hmac_sha256(self._key, _MAC_LABEL)
        # The MAC key schedule is paid once; every tag copies this.
        self._mac_context = hmac_context(self._mac_key)
        self._fingerprint_digest = hmac_sha256(_FINGERPRINT_LABEL, self._key)
        self._random = random_source or SystemRandomSource()

    @classmethod
    def generate(cls, random_source=None):
        """Create a fresh random key."""
        source = random_source or SystemRandomSource()
        return cls(source.bytes(KEY_SIZE), random_source=source)

    @property
    def key_bytes(self):
        """The raw key material (for wrapping/sealing)."""
        return self._key

    def fingerprint(self):
        """A public identifier for this key (safe to log)."""
        return self._fingerprint_digest[:8].hex()

    def _tag(self, nonce, aad, body):
        ctx = self._mac_context.copy()
        ctx.update(nonce + len(aad).to_bytes(8, "big") + aad)
        ctx.update(body)
        return ctx.digest()

    def _batch_tag(self, nonce, aad, count, body):
        # Domain-separated from single-record tags by the framing magic
        # and the authenticated record count.
        ctx = self._mac_context.copy()
        ctx.update(
            BATCH_MAGIC
            + count.to_bytes(4, "big")
            + nonce
            + len(aad).to_bytes(8, "big")
            + aad
        )
        ctx.update(body)
        return ctx.digest()

    def _chunked_tag(self, nonce, aad, count, chunk_size, manifest):
        # The chunked tag authenticates the *manifest*, not the body:
        # every body chunk is separately held to its authenticated size
        # and digest, so body integrity follows transitively.  The SB2 magic
        # and the chunk size in the header domain-separate this from
        # both SB1 batch tags and single-record tags.
        ctx = self._mac_context.copy()
        ctx.update(
            CHUNKED_MAGIC
            + count.to_bytes(4, "big")
            + chunk_size.to_bytes(4, "big")
            + nonce
            + len(aad).to_bytes(8, "big")
            + aad
        )
        ctx.update(manifest)
        return ctx.digest()

    def encrypt(self, plaintext, aad=b"", nonce=None):
        """Encrypt and authenticate ``plaintext`` binding ``aad``."""
        if nonce is None:
            nonce = self._random.bytes(NONCE_SIZE)
        if len(nonce) != NONCE_SIZE:
            raise ValueError("nonce must be %d bytes" % NONCE_SIZE)
        body = keystream_xor(self._enc_key, nonce, plaintext)
        return Ciphertext(nonce=nonce, body=body, tag=self._tag(nonce, aad, body))

    def decrypt(self, ciphertext, aad=b""):
        """Verify and decrypt; raises :class:`IntegrityError` on tampering."""
        expected = self._tag(ciphertext.nonce, aad, ciphertext.body)
        if not constant_time_equal(expected, ciphertext.tag):
            raise IntegrityError("AEAD tag verification failed")
        return keystream_xor(self._enc_key, ciphertext.nonce, ciphertext.body)

    def encrypt_batch(self, payloads, aad=b"", nonce=None, chunk_size=None):
        """Seal a sequence of records as one :class:`SealedBatch`.

        Equivalent in confidentiality/integrity to encrypting each
        record separately, but pays one nonce, one keystream setup, and
        one tag for the whole batch.

        ``chunk_size`` selects the framing: ``None`` (default)
        auto-selects -- frames larger than one default chunk are sealed
        chunked (``SB2``), smaller frames keep the byte-identical
        ``SB1`` path; ``0`` forces ``SB1``; a positive value forces
        chunked at that size.
        """
        payloads = list(payloads)
        if nonce is None:
            nonce = self._random.bytes(NONCE_SIZE)
        if len(nonce) != NONCE_SIZE:
            raise ValueError("nonce must be %d bytes" % NONCE_SIZE)
        frame = _frame_records(payloads)
        if chunk_size is None:
            chunk_size = (
                DEFAULT_CHUNK_SIZE if len(frame) > DEFAULT_CHUNK_SIZE else 0
            )
        if chunk_size:
            body = chunked_keystream_xor(
                self._enc_key, nonce, frame, chunk_size
            )
            manifest = build_manifest(body, chunk_size)
            tag = self._chunked_tag(
                nonce, aad, len(payloads), chunk_size, manifest
            )
            return SealedBatch(
                nonce=nonce, body=body, tag=tag, count=len(payloads),
                chunk_size=chunk_size, manifest=manifest,
            )
        body = xof_keystream_xor(self._enc_key, nonce, frame)
        tag = self._batch_tag(nonce, aad, len(payloads), body)
        return SealedBatch(nonce=nonce, body=body, tag=tag, count=len(payloads))

    def decrypt_batch(self, batch, aad=b""):
        """Verify and open a :class:`SealedBatch`; returns the records.

        Chunked batches verify the tag over the manifest first, then
        hold every body chunk to its authenticated size and digest, and
        only then de-keystream -- nothing about the plaintext is
        computed from unauthenticated bytes.
        """
        if batch.chunk_size:
            expected = self._chunked_tag(
                batch.nonce, aad, batch.count, batch.chunk_size, batch.manifest
            )
            if not constant_time_equal(expected, batch.tag):
                raise IntegrityError("sealed batch tag verification failed")
            verify_manifest(batch.body, batch.chunk_size, batch.manifest)
            frame = chunked_keystream_xor(
                self._enc_key, batch.nonce, batch.body, batch.chunk_size
            )
            return _unframe_records(frame, batch.count)
        expected = self._batch_tag(batch.nonce, aad, batch.count, batch.body)
        if not constant_time_equal(expected, batch.tag):
            raise IntegrityError("sealed batch tag verification failed")
        frame = xof_keystream_xor(self._enc_key, batch.nonce, batch.body)
        return _unframe_records(frame, batch.count)

    def seal(self, plaintext, aad, nonce=None):
        """Seal one payload; the wire bytes of a :class:`Ciphertext`."""
        return self.encrypt(plaintext, aad=aad, nonce=nonce).to_bytes()

    def open(self, blob, aad, what=None):
        """Parse, verify and decrypt a :meth:`seal` blob.

        Raises :class:`IntegrityError` -- reading ``"<what> failed
        authentication"`` when the caller names what it was opening --
        for anything but bytes sealed under this key and ``aad``.
        """
        return self._open(Ciphertext, self.decrypt, blob, aad, what)

    def seal_records(self, records, aad):
        """Seal a list of records as one frame (``SB1``, or ``SB2`` when
        large); returns the wire bytes of a :class:`SealedBatch`."""
        return self.encrypt_batch(records, aad=aad).to_bytes()

    def open_records(self, blob, aad, what=None):
        """Parse, verify and open a :meth:`seal_records` blob; returns the
        records.  Fails closed exactly as :meth:`open` does."""
        return self._open(SealedBatch, self.decrypt_batch, blob, aad, what)

    def open_record(self, blob, aad, what=None):
        """Open a :meth:`seal_records` blob that must hold exactly one
        record -- a state-sized message sealed as ``seal_records([payload],
        aad)`` -- and return it; any other count fails closed too."""
        records = self.open_records(blob, aad, what)
        if len(records) != 1:
            raise IntegrityError(
                "%s holds %d records, not one"
                % (what or "sealed blob", len(records))
            )
        return records[0]

    @staticmethod
    def _open(framing, decrypt, blob, aad, what):
        try:
            # Blobs come back from untrusted stores: whatever is not
            # bytes is refused here, before a parser can trip on it.
            if not isinstance(blob, (bytes, bytearray, memoryview)):
                raise IntegrityError(
                    "sealed blob is %s, not bytes" % type(blob).__name__
                )
            return decrypt(framing.from_bytes(blob), aad=aad)
        except IntegrityError as exc:
            if what is None:
                raise
            raise IntegrityError("%s failed authentication" % what) from exc

    def __eq__(self, other):
        return isinstance(other, AeadKey) and constant_time_equal(
            self._key, other._key
        )

    def __hash__(self):
        # Hash the derived fingerprint digest, never the raw key: Python's
        # hash of bytes is observable (dict iteration order, timing) and
        # must not be a function of key material.
        return hash(self._fingerprint_digest)
