"""A secure structured data store.

Rows live as protected files on an untrusted store, one file per row,
under ``/tables/<table>/<key>``; confidentiality, integrity, rollback
and swap protection all come from the SCONE FS shield underneath.  The
table keeps a *manifest row* listing its keys, so `scan` results are
themselves authenticated -- a malicious store cannot hide rows from a
range scan without breaking the manifest's MAC.

The untrusted store may also simply *fail* for a while (the chaos
layer's :class:`~repro.chaos.ChaosVolume` injects exactly that).  With
a ``retry_policy``, every volume I/O retries
:class:`~repro.errors.TransientError` with exponential backoff in
virtual time; row writes are idempotent (write-over, manifest sealed
once), so a retried or resumed ``put_many`` never corrupts the table.
Integrity failures are never retried -- tampering is an attack, not a
hiccup.
"""

import json

from repro.errors import ConfigurationError, IntegrityError
from repro.retry import BackoffClock, retry_call


def _row_path(table, key):
    return "/tables/%s/%s" % (table, key)


def _manifest_path(table):
    return "/tables/%s/.manifest" % table


class SecureTable:
    """Key-value rows with authenticated membership."""

    def __init__(self, volume, name, retry_policy=None):
        if "/" in name or name.startswith("."):
            raise ConfigurationError("invalid table name %r" % name)
        self.volume = volume
        self.name = name
        self.retry_policy = retry_policy
        self.backoff = BackoffClock()
        self.retries = 0
        self._keys = self._load_manifest()

    def _io(self, operation, *args):
        """Run one volume call, retrying transient storage failures.

        Without a policy the call goes straight through (zero overhead
        on the happy path).  With one, ``TransientError`` -- e.g. an
        injected :class:`~repro.errors.StorageUnavailableError` -- is
        retried with exponential backoff charged to ``self.backoff``;
        ``IntegrityError`` is fatal and propagates on the first raise.
        """
        bound = getattr(self.volume, operation)
        if self.retry_policy is None:
            return bound(*args)

        def count_retry(attempt, exc, delay):
            self.retries += 1

        return retry_call(
            lambda attempt: bound(*args),
            policy=self.retry_policy,
            clock=self.backoff,
            on_retry=count_retry,
        )

    def _load_manifest(self):
        path = _manifest_path(self.name)
        if not self.volume.exists(path):
            return set()
        raw = self._io("read_all", path)
        try:
            return set(json.loads(raw.decode("utf-8")))
        except ValueError as exc:
            raise IntegrityError("corrupt table manifest") from exc

    def _store_manifest(self):
        path = _manifest_path(self.name)
        payload = json.dumps(sorted(self._keys)).encode("utf-8")
        if self.volume.exists(path):
            self._io("delete", path)
        self._io("write", path, payload)

    def __len__(self):
        return len(self._keys)

    def __contains__(self, key):
        return key in self._keys

    def put(self, key, value):
        """Insert or overwrite a row (idempotent: safe to re-run)."""
        if "/" in key:
            raise ConfigurationError("row keys must not contain '/'")
        path = _row_path(self.name, key)
        if self.volume.exists(path):
            self._io("delete", path)
        self._io("write", path, value)
        if key not in self._keys:
            self._keys.add(key)
            self._store_manifest()

    def put_many(self, items):
        """Insert or overwrite many rows with one manifest update.

        ``items`` is an iterable of ``(key, value)`` pairs.  ``put`` in a
        loop re-seals the (growing) manifest after every new key --
        quadratic in sealed bytes; this writes all rows first and seals
        the manifest once.  The manifest seal comes last, so a run that
        dies mid-way leaves only unregistered row files; re-running the
        same ``put_many`` overwrites them and completes the manifest --
        idempotent resume.
        """
        added = False
        for key, value in items:
            if "/" in key:
                raise ConfigurationError("row keys must not contain '/'")
            path = _row_path(self.name, key)
            if self.volume.exists(path):
                self._io("delete", path)
            self._io("write", path, value)
            if key not in self._keys:
                self._keys.add(key)
                added = True
        if added:
            self._store_manifest()

    def get(self, key):
        """Read a row; raises for unknown keys."""
        if key not in self._keys:
            raise ConfigurationError(
                "no row %r in table %s" % (key, self.name)
            )
        return self._io("read_all", _row_path(self.name, key))

    def delete(self, key):
        """Remove a row."""
        if key not in self._keys:
            return
        self._io("delete", _row_path(self.name, key))
        self._keys.discard(key)
        self._store_manifest()

    def keys(self):
        """All row keys, sorted."""
        return sorted(self._keys)

    def scan(self, prefix=""):
        """Authenticated (key, value) pairs whose key starts with prefix."""
        return [
            (key, self.get(key))
            for key in self.keys()
            if key.startswith(prefix)
        ]

    def verify(self):
        """Re-authenticate every row against the shield."""
        for key in self._keys:
            self.get(key)
        return True

    def _export_aad(self):
        return b"kvstore-export|" + self.name.encode("utf-8")

    def export_sealed(self, export_key):
        """Seal the whole table as one batch blob for bulk movement.

        Record 0 is the sorted key list; records 1..n are the row
        values in that order, so membership travels authenticated with
        the data.  The table pays one nonce and one tag; tables larger
        than one chunk auto-select the chunked ``SB2`` framing.  Row
        values flow from the shield into the frame with no intermediate
        copy beyond the frame itself.
        """
        keys = self.keys()
        payloads = [json.dumps(keys).encode("utf-8")]
        payloads.extend(self.get(key) for key in keys)
        return export_key.seal_records(payloads, self._export_aad())

    @classmethod
    def import_sealed(cls, volume, name, export_key, blob, retry_policy=None):
        """Open a sealed export and materialise it as a table.

        Tampering anywhere -- the key list, any row, truncation,
        reordering or splicing of body chunks -- fails closed on the
        batch tag or the chunk manifest before a single row is written.
        """
        table = cls(volume, name, retry_policy=retry_policy)
        records = export_key.open_records(blob, table._export_aad())
        if not records:
            raise IntegrityError("sealed table export carries no key list")
        keys = json.loads(records[0].decode("utf-8"))
        if len(records) != len(keys) + 1:
            raise IntegrityError(
                "sealed table export lists %d keys but carries %d rows"
                % (len(keys), len(records) - 1)
            )
        table.put_many(zip(keys, records[1:]))
        return table

    @classmethod
    def open(cls, volume, name, retry_policy=None):
        """Open an existing (or new) table on a volume."""
        return cls(volume, name, retry_policy=retry_policy)
