"""Concrete BLOB store backends: in-memory and page-file.

``MemoryBlobStore`` keeps payloads in a dict — the default for tests and
benchmarks, where I/O time comes from the deterministic disk model rather
than the host machine.

``FileBlobStore`` writes payloads into a real page file at their allocated
page offsets, with a JSON catalog sidecar, so databases survive process
restarts.  It demonstrates that the page placement the disk model charges
for is the placement actually used on disk.

Durability hardening: every payload write records a CRC-32 per storage
page (persisted in the sidecar) and every read verifies them, so a torn
page or a flipped bit surfaces as a
:class:`~repro.core.errors.ChecksumError` instead of silently corrupt
cells.  An optional :class:`~repro.storage.faults.FaultInjector` wraps
the page file for crash testing.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from repro import obs
from repro.core.errors import ChecksumError, StorageError
from repro.storage.blob import BlobRecord, BlobStore, page_runs
from repro.storage.checksum import (
    mismatched_pages,
    page_checksums,
    page_checksums_many,
    verify_page_checksums,
)
from repro.storage.faults import FaultInjector, fsync_file
from repro.storage.pages import DEFAULT_PAGE_SIZE, PageRange

_PAGES_VERIFIED = obs.counter(
    "checksum.pages_verified", "Storage pages whose CRC-32 was checked on read"
)
_PAGE_FAILURES = obs.counter(
    "checksum.page_failures", "Storage pages failing CRC-32 verification"
)


def _report_pages(checked: Iterable[tuple[BlobRecord, int, list[int]]]) -> None:
    """Count the verified pages of ``(record, pages, bad pages)`` in one
    update, up to and including the first blob with a bad page, which is
    a ChecksumError."""
    pages = 0
    for record, count, bad in checked:
        pages += count
        if bad:
            _PAGES_VERIFIED.inc(pages)
            _PAGE_FAILURES.inc(len(bad))
            raise ChecksumError(
                f"blob {record.blob_id}: CRC-32 mismatch on page(s) "
                f"{bad} of {record.pages}"
            )
    _PAGES_VERIFIED.inc(pages)


class MemoryBlobStore(BlobStore):
    """Dictionary-backed store; payloads never touch the filesystem."""

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        super().__init__(page_size)
        self._payloads: dict[int, bytes] = {}

    def _write_payload(self, record: BlobRecord, payload: bytes) -> None:
        self._payloads[record.blob_id] = payload

    def _read_payload(self, record: BlobRecord) -> bytes:
        return self._payloads[record.blob_id]

    def _delete_payload(self, record: BlobRecord) -> None:
        self._payloads.pop(record.blob_id, None)

    @property
    def payload_bytes(self) -> int:
        """Total real payload bytes held."""
        return sum(len(p) for p in self._payloads.values())


class FileBlobStore(BlobStore):
    """Page-file backed store with a JSON catalog sidecar.

    Layout: ``<path>`` is the page file (BLOB ``k`` lives at byte offset
    ``pages.start * page_size``); ``<path>.catalog.json`` records the
    catalog.  Call :meth:`sync` (or use as a context manager) to persist
    the catalog; :meth:`open` reloads an existing store.

    A CRC-32 is recorded per page of every real payload and verified on
    read; ``injector`` routes page-file writes through a
    :class:`~repro.storage.faults.FaultInjector` for crash testing.
    """

    CATALOG_SUFFIX = ".catalog.json"
    #: Sidecar format; version 1 sidecars hold CRC32C page checksums.
    SIDECAR_VERSION = 2
    #: Page CRCs are always on (the ingest pipeline computes them once
    #: for every store that keeps them).
    checksums = True

    def __init__(
        self,
        path: Union[str, Path],
        page_size: int = DEFAULT_PAGE_SIZE,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        super().__init__(page_size)
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._page_crcs: dict[int, list[int]] = {}
        # "a+b" must be avoided: O_APPEND redirects every write to the file
        # end, ignoring seek positions, which would corrupt page placement.
        mode = "r+b" if self.path.exists() else "w+b"
        raw = open(self.path, mode)
        self._file = injector.wrap(raw, "pages") if injector else raw

    # -- persistence -------------------------------------------------------

    @property
    def catalog_path(self) -> Path:
        return self.path.with_name(self.path.name + self.CATALOG_SUFFIX)

    def sync(self) -> None:
        """Flush the page file and write the catalog sidecar."""
        with self._latch:
            self._sync_locked()

    def _sync_locked(self) -> None:
        self.flush_pending()
        fsync_file(self._file)
        payload = {
            "version": self.SIDECAR_VERSION,
            "page_size": self.page_size,
            "next_id": self._next_id,
            "high_water": self._allocator.high_water,
            "free": [
                [r.start, r.count] for r in self._allocator.free_ranges()
            ],
            "blobs": [
                {
                    "id": r.blob_id,
                    "size": r.byte_size,
                    "stored_size": r.stored_size,
                    "start": r.pages.start,
                    "count": r.pages.count,
                    "virtual": r.virtual,
                    "codec": r.codec,
                    "crcs": self._page_crcs.get(r.blob_id),
                }
                for r in self._catalog.values()
            ],
        }
        tmp = self.catalog_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(self.catalog_path)

    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        injector: Optional[FaultInjector] = None,
    ) -> "FileBlobStore":
        """Reload a previously synced store."""
        path = Path(path)
        catalog_path = path.with_name(path.name + cls.CATALOG_SUFFIX)
        if not catalog_path.exists():
            raise StorageError(f"no catalog at {catalog_path}")
        meta = json.loads(catalog_path.read_text())
        version = meta.get("version", 1)
        if version != cls.SIDECAR_VERSION:
            raise StorageError(
                f"unsupported blob sidecar version {version} in "
                f"{catalog_path} (this build reads version "
                f"{cls.SIDECAR_VERSION} only)"
            )
        store = cls(path, page_size=meta["page_size"], injector=injector)
        store._next_id = meta["next_id"]
        store._allocator._next_page = meta["high_water"]
        store._allocator.restore_free_ranges(
            PageRange(start, count) for start, count in meta.get("free", [])
        )
        for entry in meta["blobs"]:
            record = BlobRecord(
                blob_id=entry["id"],
                byte_size=entry["size"],
                pages=PageRange(entry["start"], entry["count"]),
                virtual=entry["virtual"],
                codec=entry["codec"],
                stored_size=entry["stored_size"],
            )
            store._catalog[record.blob_id] = record
            crcs = entry.get("crcs")
            if crcs is not None:
                store._page_crcs[record.blob_id] = list(crcs)
        return store

    def close(self) -> None:
        """Sync the catalog and close the page file; a closed store stays
        as it is."""
        if self._file.closed:
            return
        self.sync()
        self._file.close()

    def __enter__(self) -> "FileBlobStore":
        return self

    def __exit__(self, *exc: object) -> Optional[bool]:
        self.close()
        return None

    # -- backend hooks -------------------------------------------------------

    def _check_overflow(self, record: BlobRecord, payload: bytes) -> None:
        if len(payload) > record.pages.count * self.page_size:
            raise StorageError(
                f"payload of {len(payload)} bytes overflows page range "
                f"{record.pages}"
            )

    def _record_crcs(self, record: BlobRecord, payload: bytes) -> None:
        # Checksums are recorded before the bytes go out: a write torn
        # mid-page then fails verification instead of reading back as
        # silently truncated data.  A caller that already checksummed the
        # payload (the ingest pipeline, which shares one CRC pass with
        # the WAL record) stashes the values; otherwise compute here.
        stashed = self._crc_stash.get(record.blob_id)
        self._page_crcs[record.blob_id] = (
            list(stashed)
            if stashed is not None
            else page_checksums(payload, self.page_size)
        )

    def _write_payload(self, record: BlobRecord, payload: bytes) -> None:
        self._check_overflow(record, payload)
        self._record_crcs(record, payload)
        self._file.seek(record.pages.start * self.page_size)
        self._file.write(payload)
        record.stored_size = len(payload)

    def _write_payload_run(
        self, records: Sequence[BlobRecord], payloads: Sequence[bytes]
    ) -> None:
        """One seek + one write for a run of page-adjacent payloads.

        Interior slack (the unused tail of each blob's last page) is
        padded with zeros — byte-identical to the holes that separate
        per-blob writes on a fresh file — so coalescing never changes
        the page file's contents, only the number of syscalls.
        """
        if len(records) == 1:
            self._write_payload(records[0], payloads[0])
            return
        parts: list[bytes] = []
        last = len(records) - 1
        for i, (record, payload) in enumerate(zip(records, payloads)):
            self._check_overflow(record, payload)
            self._record_crcs(record, payload)
            parts.append(payload)
            slack = record.pages.count * self.page_size - len(payload)
            if i < last and slack:
                parts.append(bytes(slack))
            record.stored_size = len(payload)
        self._file.seek(records[0].pages.start * self.page_size)
        self._file.write(b"".join(parts))

    def _verify(self, record: BlobRecord, raw: bytes) -> None:
        expected = self._page_crcs.get(record.blob_id)
        if expected is not None:
            bad = verify_page_checksums(raw, self.page_size, expected)
            _report_pages([(record, len(expected), bad)])

    def _read_payload(self, record: BlobRecord) -> bytes:
        raw = self._read_span([record])[0]
        self._verify(record, raw)
        return raw

    def _read_span(self, records: Sequence[BlobRecord]) -> list[bytes]:
        """Stored bytes of page-adjacent records, fetched with one read."""
        base = records[0].pages.start * self.page_size
        last = records[-1]
        assert last.stored_size is not None
        self._file.seek(base)
        buf = self._file.read(
            last.pages.start * self.page_size + last.stored_size - base
        )
        payloads: list[bytes] = []
        for record in records:
            offset = record.pages.start * self.page_size - base
            stored = record.stored_size
            assert stored is not None
            raw = buf[offset : offset + stored]
            if len(raw) != stored:
                raise StorageError(
                    f"short read for blob {record.blob_id}: wanted {stored} "
                    f"bytes, got {len(raw)}"
                )
            payloads.append(raw)
        return payloads

    def get_run(self, blob_ids: Sequence[int]) -> list[bytes]:
        """Verified payloads of a page-ordered list of BLOBs.

        Page-adjacent neighbours share one seek+read, and every page of
        every blob is checked against the sidecar CRCs in one pass after
        the store latch is released — the same guarantees as
        per-blob :meth:`get`.  Falls back to the per-blob loop if any
        blob is virtual or still buffered.
        """
        with self._latch:
            records = self.records(blob_ids)
            if any(r.virtual or r.blob_id in self._pending for r in records):
                return super().get_run(blob_ids)
            payloads = [
                raw
                for span in page_runs(records)
                for raw in self._read_span(span)
            ]
            checked = []
            for record, raw in zip(records, payloads):
                expected = self._page_crcs.get(record.blob_id)
                if expected is not None:
                    checked.append((record, raw, expected))
        actual = page_checksums_many(
            [raw for _, raw, _ in checked], self.page_size
        )
        _report_pages(
            (record, len(expected), mismatched_pages(crcs, expected))
            for (record, _, expected), crcs in zip(checked, actual)
        )
        return payloads

    def _delete_payload(self, record: BlobRecord) -> None:
        # Pages are recycled by the allocator; bytes stay until overwritten.
        self._page_crcs.pop(record.blob_id, None)
