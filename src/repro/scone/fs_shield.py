"""The SCONE file-system shield.

Files are split into fixed-size chunks.  Each chunk is encrypted with a
per-file key; its nonce and ciphertext live in the *untrusted* store,
while the authentication tag is recorded in the *FS protection file*
together with the per-file keys -- exactly the split Section V-A of the
paper describes.  Consequences the tests verify:

- the untrusted store holds only ciphertext;
- modifying, swapping, or rolling back any chunk is detected, because
  tags are keyed per (file, chunk index, version) and kept in the
  protection file, not next to the data;
- the protection file itself is sealed with its own key and identified
  by hash inside the SCF, so the whole tree of trust hangs off enclave
  attestation.
"""

from dataclasses import dataclass, field

from repro.errors import ConfigurationError, IntegrityError
from repro.crypto.aead import AeadKey, Ciphertext
from repro.crypto.primitives import sha256
from repro.telemetry import default_registry

DEFAULT_CHUNK_SIZE = 4096


class UntrustedStore:
    """The cloud provider's disk: holds only encrypted chunks.

    Keys are ``(path, chunk_index)``; values are opaque blobs.  The
    ``tamper``/``rollback`` helpers simulate an attacker with full
    control of the store.
    """

    def __init__(self):
        self._chunks = {}

    def put(self, path, index, blob):
        """Store a chunk blob (materialised only if not already bytes)."""
        self._chunks[(path, index)] = (
            blob if type(blob) is bytes else bytes(blob)
        )

    def get(self, path, index):
        """Fetch a chunk blob; raises if absent (attacker deleted it)."""
        try:
            return self._chunks[(path, index)]
        except KeyError:
            raise IntegrityError(
                "chunk %d of %r missing from store" % (index, path)
            ) from None

    def delete_file(self, path):
        """Drop all chunks of ``path``."""
        doomed = [key for key in self._chunks if key[0] == path]
        for key in doomed:
            del self._chunks[key]

    def chunk_count(self, path):
        """Number of stored chunks for ``path``."""
        return sum(1 for stored_path, _i in self._chunks if stored_path == path)

    # --- attacker's toolbox (tests only) ---

    def tamper(self, path, index, offset=0, xor=0x01):
        """Flip a byte inside a stored chunk."""
        blob = bytearray(self.get(path, index))
        blob[offset % len(blob)] ^= xor
        self._chunks[(path, index)] = bytes(blob)

    def swap(self, path, index_a, index_b):
        """Swap two chunks of the same file."""
        a, b = self.get(path, index_a), self.get(path, index_b)
        self._chunks[(path, index_a)] = b
        self._chunks[(path, index_b)] = a

    def snapshot_chunk(self, path, index):
        """Save a chunk for a later rollback attack."""
        return self.get(path, index)

    def rollback(self, path, index, old_blob):
        """Replace a chunk with a previously valid version."""
        self._chunks[(path, index)] = bytes(old_blob)


@dataclass
class FileEntry:
    """Protection metadata for one file."""

    key_bytes: bytes
    size: int = 0
    chunk_size: int = DEFAULT_CHUNK_SIZE
    chunk_tags: list = field(default_factory=list)
    version: int = 0


class FsProtectionFile:
    """The MAC-and-key manifest for a protected volume.

    Serialisable; encrypted as a whole with the *protection key* whose
    hash and key material travel in the SCF.
    """

    def __init__(self):
        self._entries = {}

    def entries(self):
        """Mapping of path to :class:`FileEntry` (live references)."""
        return self._entries

    def paths(self):
        """Sorted protected paths."""
        return sorted(self._entries)

    def entry(self, path):
        """The entry for ``path``; raises if unknown."""
        try:
            return self._entries[path]
        except KeyError:
            raise ConfigurationError("no protected file %r" % path) from None

    def add(self, path, entry):
        """Register a file's protection metadata."""
        self._entries[path] = entry

    def remove(self, path):
        """Forget a file."""
        self._entries.pop(path, None)

    def serialize(self):
        """Canonical bytes of the manifest."""
        pieces = [b"fspf-v1"]
        for path in self.paths():
            entry = self._entries[path]
            encoded_path = path.encode("utf-8")
            pieces.append(len(encoded_path).to_bytes(2, "big") + encoded_path)
            pieces.append(len(entry.key_bytes).to_bytes(2, "big") + entry.key_bytes)
            pieces.append(entry.size.to_bytes(8, "big"))
            pieces.append(entry.chunk_size.to_bytes(4, "big"))
            pieces.append(entry.version.to_bytes(8, "big"))
            pieces.append(len(entry.chunk_tags).to_bytes(4, "big"))
            for tag in entry.chunk_tags:
                pieces.append(tag)
        return b"".join(pieces)

    @classmethod
    def deserialize(cls, raw):
        """Parse bytes produced by :meth:`serialize`."""
        view = memoryview(raw)
        magic = bytes(view[:7])
        if magic != b"fspf-v1":
            raise IntegrityError("bad FS protection file magic")
        view = view[7:]
        manifest = cls()

        def take(n):
            nonlocal view
            if len(view) < n:
                raise IntegrityError("truncated FS protection file")
            piece, view = bytes(view[:n]), view[n:]
            return piece

        while view:
            path_length = int.from_bytes(take(2), "big")
            path = take(path_length).decode("utf-8")
            key_length = int.from_bytes(take(2), "big")
            key_bytes = take(key_length)
            size = int.from_bytes(take(8), "big")
            chunk_size = int.from_bytes(take(4), "big")
            version = int.from_bytes(take(8), "big")
            tag_count = int.from_bytes(take(4), "big")
            tags = [take(32) for _ in range(tag_count)]
            manifest.add(
                path,
                FileEntry(
                    key_bytes=key_bytes,
                    size=size,
                    chunk_size=chunk_size,
                    chunk_tags=tags,
                    version=version,
                ),
            )
        return manifest

    def content_hash(self):
        """Hash binding the exact manifest state (goes into the SCF)."""
        return sha256(self.serialize())

    def encrypt(self, protection_key):
        """Seal the manifest with the volume protection key."""
        return protection_key.seal(self.serialize(), b"fspf")

    @classmethod
    def decrypt(cls, blob, protection_key, expected_hash=None):
        """Open a sealed manifest; optionally check the SCF-bound hash."""
        plaintext = protection_key.open(blob, b"fspf")
        if expected_hash is not None and sha256(plaintext) != expected_hash:
            raise IntegrityError("FS protection file hash mismatch")
        return cls.deserialize(plaintext)


class ProtectedVolume:
    """Authenticated-encrypted file operations over an untrusted store.

    All methods run logically *inside* the enclave: plaintext exists
    only in return values handed to enclave code.  ``memory`` (optional,
    a :class:`~repro.sgx.memory.SimulatedMemory`) is charged for crypto
    work so the FS shield shows up in the cost model.
    """

    # Cycles per byte for the AEAD pass (AES-GCM-class throughput).
    _CRYPTO_CYCLES_PER_BYTE = 1.5

    def __init__(self, store, protection=None, chunk_size=DEFAULT_CHUNK_SIZE,
                 memory=None):
        self.store = store
        self.protection = protection if protection is not None else FsProtectionFile()
        self.chunk_size = chunk_size
        self.memory = memory
        # Constructing an AeadKey derives two subkeys and a MAC context;
        # per-file keys are stable, so pay that once per file, not per
        # chunk operation.
        self._key_cache = {}
        registry = default_registry()
        self._tel_chunk_reads = registry.counter("scone.fs.chunk_reads")
        self._tel_chunk_writes = registry.counter("scone.fs.chunk_writes")
        self._tel_bytes_read = registry.counter("scone.fs.bytes_read")
        self._tel_bytes_written = registry.counter("scone.fs.bytes_written")

    def _charge(self, nbytes):
        if self.memory is not None:
            self.memory.compute(int(nbytes * self._CRYPTO_CYCLES_PER_BYTE))

    def _chunk_key(self, entry):
        key = self._key_cache.get(entry.key_bytes)
        if key is None:
            key = AeadKey(entry.key_bytes)
            self._key_cache[entry.key_bytes] = key
        return key

    def _chunk_aad(self, path, index):
        # Binds each chunk to its (file, position); rollback needs no
        # version in the AAD because the authoritative tag lives in the
        # protection file, so an old-but-valid blob fails against the
        # current tag.
        return b"%s|%d" % (path.encode("utf-8"), index)

    def exists(self, path):
        """Whether the volume protects ``path``."""
        return path in self.protection.entries()

    def file_size(self, path):
        """Authenticated size of ``path``."""
        return self.protection.entry(path).size

    def create(self, path, key_bytes=None):
        """Start protecting an (empty) file."""
        if self.exists(path):
            raise ConfigurationError("file %r already exists" % path)
        if key_bytes is None:
            key_bytes = AeadKey.generate().key_bytes
        entry = FileEntry(key_bytes=key_bytes, chunk_size=self.chunk_size)
        self.protection.add(path, entry)
        return entry

    def delete(self, path):
        """Remove a file and its chunks."""
        self.protection.remove(path)
        self.store.delete_file(path)

    def write(self, path, data, offset=0):
        """Write ``data`` at ``offset``, creating the file if needed.

        Writes beyond the current end first fill the gap with zeros so
        every chunk of the file stays authenticated.
        """
        if offset < 0:
            raise ConfigurationError("negative write offset")
        if not self.exists(path):
            self.create(path)
        entry = self.protection.entry(path)
        if offset > entry.size:
            self.write(path, b"\x00" * (offset - entry.size), offset=entry.size)
        if not len(data):
            return
        key = self._chunk_key(entry)
        chunk_size = entry.chunk_size
        # One view over the caller's buffer: every per-chunk slice below
        # is zero-copy; a chunk-aligned whole-chunk write reaches the
        # AEAD pass without ever being materialised.
        data = memoryview(data)
        end = offset + len(data)
        entry.version += 1

        first_chunk = offset // chunk_size
        last_chunk = (end - 1) // chunk_size
        new_size = max(entry.size, end)
        for index in range(first_chunk, last_chunk + 1):
            chunk_start = index * chunk_size
            chunk_end = chunk_start + chunk_size
            copy_from = max(offset, chunk_start)
            copy_to = min(end, chunk_end)
            logical_chunk_end = min(chunk_end, new_size)
            if (
                copy_from == chunk_start
                and copy_to == logical_chunk_end
            ):
                # The write covers the chunk's entire logical extent:
                # seal the caller's slice directly, no read-modify-write
                # buffer and no copy.
                plaintext = data[copy_from - offset : copy_to - offset]
            else:
                if chunk_start < entry.size:
                    existing = self._read_chunk(path, entry, key, index)
                else:
                    existing = b""
                buffer = bytearray(existing.ljust(chunk_size, b"\x00"))
                buffer[copy_from - chunk_start : copy_to - chunk_start] = data[
                    copy_from - offset : copy_to - offset
                ]
                plaintext = memoryview(buffer)[: logical_chunk_end - chunk_start]
            self._write_chunk(path, entry, key, index, plaintext)
        entry.size = new_size

    def _write_chunk(self, path, entry, key, index, plaintext):
        self._tel_chunk_writes.inc()
        self._tel_bytes_written.inc(len(plaintext))
        self._charge(len(plaintext))
        aad = self._chunk_aad(path, index)
        ciphertext = key.encrypt(plaintext, aad=aad)
        # Tag goes to the protection file, nonce+body to the store.
        while len(entry.chunk_tags) <= index:
            entry.chunk_tags.append(b"\x00" * 32)
        entry.chunk_tags[index] = ciphertext.tag
        self.store.put(path, index, ciphertext.nonce + ciphertext.body)

    def _read_chunk(self, path, entry, key, index):
        blob = self.store.get(path, index)
        if index >= len(entry.chunk_tags):
            raise IntegrityError("chunk %d of %r has no recorded tag" % (index, path))
        # Slice the stored blob as views: the ciphertext body reaches
        # the keystream XOR without being copied out of the store blob.
        view = memoryview(blob)
        nonce, body = bytes(view[:16]), view[16:]
        ciphertext = Ciphertext(nonce=nonce, body=body, tag=entry.chunk_tags[index])
        aad = self._chunk_aad(path, index)
        self._tel_chunk_reads.inc()
        self._tel_bytes_read.inc(len(body))
        self._charge(len(body))
        try:
            return key.decrypt(ciphertext, aad=aad)
        except IntegrityError as exc:
            raise IntegrityError(
                "chunk %d of %r failed authentication (tampered, swapped, "
                "or rolled back)" % (index, path)
            ) from exc

    def read(self, path, offset=0, length=None):
        """Read and authenticate ``length`` bytes at ``offset``."""
        entry = self.protection.entry(path)
        if length is None:
            length = entry.size - offset
        if offset < 0 or length < 0 or offset + length > entry.size:
            raise ConfigurationError(
                "read [%d, %d) outside file of size %d"
                % (offset, offset + length, entry.size)
            )
        if length == 0:
            return b""
        key = self._chunk_key(entry)
        chunk_size = entry.chunk_size
        first_chunk = offset // chunk_size
        last_chunk = (offset + length - 1) // chunk_size
        start = offset - first_chunk * chunk_size
        if first_chunk == last_chunk:
            # Single-chunk read: slice the decrypted chunk once instead
            # of join-then-slice (two copies on the seed path).
            chunk = self._read_chunk(path, entry, key, first_chunk)
            if start == 0 and length == len(chunk):
                return chunk
            return chunk[start : start + length]
        # Multi-chunk read: trim the edge chunks as views before the
        # single join -- the join is the one copy the read path pays.
        pieces = [
            self._read_chunk(path, entry, key, index)
            for index in range(first_chunk, last_chunk + 1)
        ]
        if start:
            pieces[0] = memoryview(pieces[0])[start:]
        overshoot = sum(len(piece) for piece in pieces) - length
        if overshoot:
            pieces[-1] = memoryview(pieces[-1])[:-overshoot]
        return b"".join(pieces)

    def read_all(self, path):
        """The full authenticated contents of ``path``."""
        return self.read(path, 0, self.file_size(path))

    def verify_all(self):
        """Authenticate every chunk of every file; raises on any tamper."""
        for path in self.protection.paths():
            self.read_all(path)
        return True
