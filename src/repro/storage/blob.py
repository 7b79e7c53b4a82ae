"""BLOB store interface and catalog entries.

Cells of each tile are stored in a separate BLOB (Section 5).  A BLOB
store maps integer BLOB ids to byte payloads placed in page ranges; the
page placement is what the disk model charges for.

Two payload flavours exist:

* *real* — bytes are kept (memory) or written (file backend);
* *virtual* — only the size is recorded and reads synthesise zero bytes.
  Virtual payloads exist for benchmarks whose data volume (the paper's
  375 MB extended cubes) matters only through its page-access pattern.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from repro import obs
from repro.core.errors import BlobNotFoundError, StorageError
from repro.storage.latch import OrderedLatch
from repro.storage.pages import (
    DEFAULT_PAGE_SIZE,
    PageAllocator,
    PageRange,
    pages_needed,
)

_WRITE_RUNS = obs.counter(
    "io.coalesced.write_runs", "Flushes that merged adjacent blobs into one write"
)
_WRITE_BLOBS = obs.counter(
    "io.coalesced.write_blobs", "Blobs written as part of a coalesced run"
)
_WRITE_PAGES = obs.counter(
    "io.coalesced.write_pages", "Pages covered by coalesced write runs"
)
_WRITE_RUN_LEN = obs.histogram(
    "io.coalesced.write_run_length",
    "Blobs per backend write issued by the flush path (1 = not coalesced)",
    buckets=obs.COUNT_BUCKETS,
)


@dataclass
class BlobRecord:
    """Catalog entry for one BLOB."""

    blob_id: int
    byte_size: int
    pages: PageRange
    virtual: bool = False
    codec: str = "none"
    stored_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.stored_size is None:
            self.stored_size = self.byte_size


def page_runs(records: Iterable[BlobRecord]) -> list[list[BlobRecord]]:
    """Split records into runs whose page ranges touch end to start."""
    runs: list[list[BlobRecord]] = []
    for record in records:
        if runs and runs[-1][-1].pages.end == record.pages.start:
            runs[-1].append(record)
        else:
            runs.append([record])
    return runs


class BlobStore(abc.ABC):
    """Abstract page-placed BLOB store.

    With *deferred writes* enabled (the write-ahead-log mode), ``put``
    holds payloads in a pending buffer instead of writing them to the
    backend; the owning :class:`~repro.storage.tilestore.Database`
    flushes the buffer only after the corresponding log records are
    durable, which is the WAL rule that makes crash recovery redo-only:
    the backend never holds bytes the log does not.
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if page_size < 1:
            raise StorageError(f"page size must be positive, got {page_size}")
        self.page_size = page_size
        self._allocator = PageAllocator()
        self._catalog: dict[int, BlobRecord] = {}
        self._next_id = 1
        self._deferred = False
        self._pending: dict[int, bytes] = {}
        # page CRCs handed in by callers that already computed them (the
        # ingest pipeline shares one CRC pass between the WAL record and
        # the backend sidecar); consumed once by the backend write
        self._crc_stash: dict[int, list[int]] = {}
        # One latch over catalog, allocator, pending queue, and backend
        # handle: every public entry point takes it, so concurrent
        # readers see either a blob's full (record, payload) or neither.
        # Reentrant because get() layers over record().
        self._latch = OrderedLatch("store", 60, reentrant=True)

    # -- catalog ---------------------------------------------------------

    def record(self, blob_id: int) -> BlobRecord:
        """Catalog entry for a BLOB (raises when unknown)."""
        return self.records((blob_id,))[0]

    def records(self, blob_ids: Iterable[int]) -> list[BlobRecord]:
        """Catalog entries of a batch under one latch acquisition (raises
        naming the first unknown id)."""
        with self._latch:
            catalog = self._catalog
            try:
                return [catalog[blob_id] for blob_id in blob_ids]
            except KeyError as missing:
                raise BlobNotFoundError(f"no blob {missing.args[0]}") from None

    def __contains__(self, blob_id: int) -> bool:
        with self._latch:
            return blob_id in self._catalog

    def __len__(self) -> int:
        with self._latch:
            return len(self._catalog)

    def blob_ids(self) -> Iterator[int]:
        with self._latch:
            return iter(tuple(self._catalog))

    @property
    def total_pages(self) -> int:
        """Pages of the underlying page file (high-water mark)."""
        with self._latch:
            return self._allocator.high_water

    # -- writes ----------------------------------------------------------

    def put(
        self,
        payload: bytes,
        codec: str = "none",
        page_crcs: Optional[list[int]] = None,
    ) -> int:
        """Store a real payload, returning the new BLOB id.

        ``page_crcs`` (one CRC-32 per storage page of ``payload``) lets
        a caller that already checksummed the payload spare the backend
        a recomputation; backends without checksums ignore it.
        """
        with self._latch:
            blob_id = self._next_id
            self._next_id += 1
            pages = self._allocator.allocate(
                pages_needed(len(payload), self.page_size)
            )
            record = BlobRecord(
                blob_id, len(payload), pages, virtual=False, codec=codec
            )
            if page_crcs is not None:
                self._crc_stash[blob_id] = page_crcs
            if self._deferred:
                self._pending[blob_id] = payload
            else:
                self._write_payload(record, payload)
                self._crc_stash.pop(blob_id, None)
            self._catalog[blob_id] = record
            return blob_id

    def put_virtual(self, byte_size: int) -> int:
        """Register a size-only BLOB (reads synthesise zeros)."""
        if byte_size < 0:
            raise StorageError(f"negative virtual size {byte_size}")
        with self._latch:
            blob_id = self._next_id
            self._next_id += 1
            pages = self._allocator.allocate(
                pages_needed(byte_size, self.page_size)
            )
            self._catalog[blob_id] = BlobRecord(
                blob_id, byte_size, pages, virtual=True
            )
            return blob_id

    def delete(self, blob_id: int) -> None:
        """Drop a BLOB, returning its pages to the allocator."""
        with self._latch:
            record = self.record(blob_id)
            self._pending.pop(blob_id, None)
            self._crc_stash.pop(blob_id, None)
            if not record.virtual:
                self._delete_payload(record)
            self._allocator.release(record.pages)
            del self._catalog[blob_id]

    def forget(self, blob_id: int) -> None:
        """Roll back an uncommitted :meth:`put` (transaction abort).

        Unlike :meth:`delete` this is not a logged event — the blob never
        became visible to anyone — so it only unwinds the allocation:
        pending payload and stashed CRCs are dropped, pages released, the
        catalog entry removed.  Unknown ids are a no-op (idempotent)."""
        with self._latch:
            record = self._catalog.pop(blob_id, None)
            if record is None:
                return
            was_pending = self._pending.pop(blob_id, None) is not None
            self._crc_stash.pop(blob_id, None)
            if not record.virtual and not was_pending:
                # Non-deferred mode wrote through; undo the backend write.
                self._delete_payload(record)
            self._allocator.release(record.pages)

    def restore(self, record: BlobRecord, payload: Optional[bytes]) -> None:
        """Recreate a BLOB at an exact id and page placement (WAL replay).

        Unlike :meth:`put`, the placement is dictated by the caller — the
        log recorded where the bytes lived, and redo must put them back
        there.  Restoring an id already in the catalog is an error when
        the placement differs (log/checkpoint disagreement) and a no-op
        when it matches (idempotent re-replay).
        """
        with self._latch:
            existing = self._catalog.get(record.blob_id)
            if existing is not None:
                if existing.pages != record.pages:
                    raise StorageError(
                        f"blob {record.blob_id} already placed at "
                        f"{existing.pages}, log says {record.pages}"
                    )
                return
            self._allocator.reserve(record.pages)
            self._catalog[record.blob_id] = record
            self._next_id = max(self._next_id, record.blob_id + 1)
            if not record.virtual:
                if payload is None:
                    raise StorageError(
                        f"restore of real blob {record.blob_id} needs a payload"
                    )
                self._write_payload(record, payload)

    # -- deferred writes (write-ahead-log ordering) ----------------------

    def set_deferred_writes(self, deferred: bool) -> None:
        """Toggle write-behind mode; flushes nothing by itself."""
        with self._latch:
            self._deferred = deferred

    @property
    def pending_writes(self) -> int:
        """Number of payloads buffered but not yet on the backend."""
        with self._latch:
            return len(self._pending)

    def take_pending(self) -> tuple[int, ...]:
        """Snapshot the pending ids (a committing transaction's writes).

        The entries stay buffered — and readable via :meth:`get` — until
        :meth:`flush_ids` lands them on the backend, so a concurrent
        reader between commit-publish and flush still gets the bytes."""
        with self._latch:
            return tuple(self._pending)

    def flush_pending(self) -> list[PageRange]:
        """Write every buffered payload to the backend, coalesced.

        Payloads are sorted by page placement and **page-adjacent blobs
        merge into one contiguous backend write** — a batch of tiles
        allocated back-to-back (the common ingest case) hits the backend
        as a single run instead of one call per tile.  Called after the
        WAL commit record is durable; returns the page range of every
        run written (the disk model charges one positioning per run).
        """
        with self._latch:
            return self._flush_locked(tuple(self._pending))

    def flush_ids(self, blob_ids: Sequence[int]) -> list[PageRange]:
        """Flush only the given pending ids (one transaction's writes).

        Concurrent transactions each flush their own snapshot from
        :meth:`take_pending`; ids no longer pending are skipped."""
        with self._latch:
            return self._flush_locked(
                [b for b in blob_ids if b in self._pending]
            )

    def _flush_locked(self, blob_ids: Sequence[int]) -> list[PageRange]:
        ordered = sorted(blob_ids, key=lambda b: self._catalog[b].pages.start)
        written: list[PageRange] = []
        for records in page_runs(self._catalog[b] for b in ordered):
            run = [record.blob_id for record in records]
            self._write_payload_run(records, [self._pending[b] for b in run])
            for blob_id in run:
                self._crc_stash.pop(blob_id, None)
            first, last = records[0].pages, records[-1].pages
            written.append(PageRange(first.start, last.end - first.start))
            _WRITE_RUN_LEN.observe(len(run))
            if len(run) > 1:
                _WRITE_RUNS.inc()
                _WRITE_BLOBS.inc(len(run))
                _WRITE_PAGES.inc(last.end - first.start)
        for blob_id in ordered:
            self._pending.pop(blob_id, None)
        return written

    def is_pending(self, blob_id: int) -> bool:
        """Whether the payload is still buffered (not on the backend)."""
        with self._latch:
            return blob_id in self._pending

    # -- reads -----------------------------------------------------------

    def get(self, blob_id: int) -> bytes:
        """Fetch a BLOB payload (zeros for virtual BLOBs)."""
        with self._latch:
            record = self.record(blob_id)
            if record.virtual:
                return bytes(record.byte_size)
            pending = self._pending.get(blob_id)
            if pending is not None:
                return pending
            return self._read_payload(record)

    def get_run(self, blob_ids: Sequence[int]) -> list[bytes]:
        """Fetch several BLOBs, in the given order; backends may coalesce.

        The base implementation is a loop of :meth:`get` under one
        latch hold (one acquisition, not one per blob);
        ``FileBlobStore`` overrides it with one read per page run of the
        page-ordered list (its blobs need not be adjacent) and one CRC
        pass over them all.
        """
        with self._latch:
            return [self.get(blob_id) for blob_id in blob_ids]

    # -- backend hooks -----------------------------------------------------

    @abc.abstractmethod
    def _write_payload(self, record: BlobRecord, payload: bytes) -> None:
        """Persist the payload at the record's page range."""

    def _write_payload_run(
        self, records: Sequence[BlobRecord], payloads: Sequence[bytes]
    ) -> None:
        """Persist several page-adjacent payloads (one coalesced run).

        Backends that can write contiguously override this; the default
        falls back to one :meth:`_write_payload` per blob.
        """
        for record, payload in zip(records, payloads):
            self._write_payload(record, payload)

    @abc.abstractmethod
    def _read_payload(self, record: BlobRecord) -> bytes:
        """Load the payload bytes for a real BLOB."""

    @abc.abstractmethod
    def _delete_payload(self, record: BlobRecord) -> None:
        """Release backend resources of a real BLOB."""
