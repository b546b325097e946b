"""Tests for sealed whole-table export/import on the secure store."""

import pytest

from repro.crypto.aead import AeadKey, CHUNKED_MAGIC, SealedBatch
from repro.crypto.chunked import DEFAULT_CHUNK_SIZE
from repro.crypto.primitives import DeterministicRandomSource
from repro.errors import IntegrityError
from repro.scone.fs_shield import ProtectedVolume, UntrustedStore
from repro.bigdata.kvstore import SecureTable


@pytest.fixture()
def volume():
    return ProtectedVolume(UntrustedStore(), chunk_size=128)


@pytest.fixture()
def export_key():
    return AeadKey.generate(DeterministicRandomSource(42))


class TestSealedExport:
    def test_round_trip(self, volume, export_key):
        table = SecureTable(volume, "meters")
        table.put_many([("m%02d" % i, b"reading-%d" % i) for i in range(10)])
        blob = table.export_sealed(export_key)

        dest = ProtectedVolume(UntrustedStore(), chunk_size=128)
        imported = SecureTable.import_sealed(dest, "meters", export_key, blob)
        assert imported.keys() == table.keys()
        for key in table.keys():
            assert imported.get(key) == table.get(key)

    def test_empty_table_round_trips(self, volume, export_key):
        blob = SecureTable(volume, "t").export_sealed(export_key)
        dest = ProtectedVolume(UntrustedStore(), chunk_size=128)
        assert len(SecureTable.import_sealed(dest, "t", export_key, blob)) == 0

    def test_large_table_uses_chunked_framing(self, volume, export_key):
        table = SecureTable(volume, "big")
        row = bytes(64 * 1024)
        table.put_many([("r%d" % i, row) for i in range(6)])
        blob = table.export_sealed(export_key)
        assert blob[:3] == CHUNKED_MAGIC
        assert len(blob) > DEFAULT_CHUNK_SIZE

        dest = ProtectedVolume(UntrustedStore(), chunk_size=128)
        imported = SecureTable.import_sealed(dest, "big", export_key, blob)
        assert imported.get("r3") == row

    def test_tampered_export_fails_closed(self, volume, export_key):
        table = SecureTable(volume, "t")
        table.put("k", b"v")
        blob = bytearray(table.export_sealed(export_key))
        blob[-1] ^= 0x01
        dest = ProtectedVolume(UntrustedStore(), chunk_size=128)
        with pytest.raises(IntegrityError):
            SecureTable.import_sealed(dest, "t", export_key, bytes(blob))
        # Fail-closed means nothing was materialised on the destination.
        assert len(SecureTable.open(dest, "t")) == 0

    def test_wrong_table_name_fails_closed(self, volume, export_key):
        # The export AAD binds the table name: a blob exported from one
        # table cannot be imported as another.
        table = SecureTable(volume, "source")
        table.put("k", b"v")
        blob = table.export_sealed(export_key)
        dest = ProtectedVolume(UntrustedStore(), chunk_size=128)
        with pytest.raises(IntegrityError):
            SecureTable.import_sealed(dest, "elsewhere", export_key, blob)

    def test_row_dropped_from_export_fails_closed(self, volume, export_key):
        # Re-frame the decrypted records minus one row under the right
        # key: the key-list/row-count cross-check must reject it.
        table = SecureTable(volume, "t")
        table.put_many([("a", b"1"), ("b", b"2")])
        blob = table.export_sealed(export_key)
        records = export_key.decrypt_batch(
            SealedBatch.from_bytes(blob), aad=b"kvstore-export|t"
        )
        forged = export_key.encrypt_batch(
            records[:-1], aad=b"kvstore-export|t"
        ).to_bytes()
        dest = ProtectedVolume(UntrustedStore(), chunk_size=128)
        with pytest.raises(IntegrityError):
            SecureTable.import_sealed(dest, "t", export_key, forged)
