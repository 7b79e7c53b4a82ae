"""Unit tests for the BLOB store backends (memory and page file)."""

import json

import pytest

from repro.core.errors import BlobNotFoundError, StorageError
from repro.storage.backends import FileBlobStore, MemoryBlobStore
from repro.storage.catalog import create_database


class TestMemoryStore:
    def test_put_get_roundtrip(self):
        store = MemoryBlobStore()
        blob_id = store.put(b"hello tiles")
        assert store.get(blob_id) == b"hello tiles"
        assert len(store) == 1

    def test_ids_are_unique_and_increasing(self):
        store = MemoryBlobStore()
        ids = [store.put(bytes([i])) for i in range(5)]
        assert ids == sorted(set(ids))

    def test_page_placement_contiguous(self):
        store = MemoryBlobStore(page_size=1024)
        first = store.put(b"x" * 1500)   # 2 pages
        second = store.put(b"y" * 100)   # 1 page
        assert store.record(first).pages.count == 2
        assert store.record(second).pages.follows(store.record(first).pages)

    def test_missing_blob_raises(self):
        with pytest.raises(BlobNotFoundError):
            MemoryBlobStore().get(42)

    def test_delete_releases_pages(self):
        store = MemoryBlobStore(page_size=1024)
        blob_id = store.put(b"x" * 3000)
        store.delete(blob_id)
        assert blob_id not in store
        replacement = store.put(b"y" * 1000)
        assert store.record(replacement).pages.start == 0  # pages reused

    def test_virtual_blob(self):
        store = MemoryBlobStore(page_size=1024)
        blob_id = store.put_virtual(5000)
        record = store.record(blob_id)
        assert record.virtual
        assert record.pages.count == 5
        assert store.get(blob_id) == bytes(5000)
        assert store.payload_bytes == 0  # nothing actually stored

    def test_virtual_negative_rejected(self):
        with pytest.raises(StorageError):
            MemoryBlobStore().put_virtual(-1)

    def test_empty_payload(self):
        store = MemoryBlobStore()
        blob_id = store.put(b"")
        assert store.get(blob_id) == b""

    def test_blob_ids_iteration(self):
        store = MemoryBlobStore()
        ids = {store.put(b"a"), store.put(b"b")}
        assert set(store.blob_ids()) == ids


class TestFileStore:
    def test_roundtrip(self, tmp_path):
        store = FileBlobStore(tmp_path / "data.pages")
        blob_id = store.put(b"persistent bytes")
        assert store.get(blob_id) == b"persistent bytes"
        store.close()

    def test_persistence_across_reopen(self, tmp_path):
        path = tmp_path / "data.pages"
        with FileBlobStore(path, page_size=512) as store:
            first = store.put(b"alpha" * 100)
            second = store.put(b"beta" * 200)
            virtual = store.put_virtual(1234)
        reopened = FileBlobStore.open(path)
        assert reopened.get(first) == b"alpha" * 100
        assert reopened.get(second) == b"beta" * 200
        assert reopened.get(virtual) == bytes(1234)
        assert reopened.page_size == 512

    def test_new_blobs_after_reopen_do_not_clobber(self, tmp_path):
        path = tmp_path / "data.pages"
        with FileBlobStore(path) as store:
            first = store.put(b"one")
        reopened = FileBlobStore.open(path)
        second = reopened.put(b"two")
        assert reopened.get(first) == b"one"
        assert reopened.get(second) == b"two"

    def test_open_without_catalog_raises(self, tmp_path):
        with pytest.raises(StorageError):
            FileBlobStore.open(tmp_path / "missing.pages")

    def test_crc32c_era_sidecar_refused_by_version(self, tmp_path):
        # a version-1 sidecar (no "version" key) holds CRC32C page CRCs
        path = tmp_path / "old.pages"
        with FileBlobStore(path, page_size=256) as store:
            store.put(b"payload")
        sidecar = json.loads(store.catalog_path.read_text())
        del sidecar["version"]
        store.catalog_path.write_text(json.dumps(sidecar))
        with pytest.raises(StorageError, match="sidecar version 1 "):
            FileBlobStore.open(path)

    def test_delete_then_reuse(self, tmp_path):
        with FileBlobStore(tmp_path / "d.pages", page_size=256) as store:
            a = store.put(b"z" * 700)
            store.delete(a)
            b = store.put(b"w" * 200)
            assert store.record(b).pages.start == 0
            assert store.get(b) == b"w" * 200

    def test_page_size_positive(self, tmp_path):
        with pytest.raises(StorageError):
            FileBlobStore(tmp_path / "d.pages", page_size=0)

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "c.pages"
        with FileBlobStore(path) as store:
            blob_id = store.put(b"kept")
        store.close()  # after the with block's close
        store.close()
        twice = FileBlobStore(tmp_path / "twice.pages")
        twice.close()
        twice.close()
        assert FileBlobStore.open(path).get(blob_id) == b"kept"

    def test_a_closed_databases_store_closes_twice(self, tmp_path):
        db = create_database(tmp_path / "db")
        db.close()
        db.store.close()
        db.store.close()

