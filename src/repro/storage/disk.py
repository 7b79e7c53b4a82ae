"""Deterministic disk timing model.

The paper measures ``t_o`` — the time to retrieve the intersected tiles
from disk — on a 1996 workstation disk through the O2 store.  That
hardware cannot be reproduced, and Python wall-clock I/O timing is too
noisy to be meaningful, so this module *models* the disk: every BLOB read
is charged

* a seek plus half a rotation when its first page does not follow the
  previously read page (random access), and
* a transfer cost per page read.

What the model preserves is exactly what the tiling strategies optimise:
the number of pages fetched and the random-vs-sequential access pattern.
Defaults approximate the paper's era: 8 ms seek, 7200 rpm, 5 MB/s
effective transfer through the object store, a 2 ms settle for short
forward skips, and a 1 ms per-BLOB dereference overhead on 8 KiB pages.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro import obs
from repro.core.errors import StorageError
from repro.storage.blob import BlobStore
from repro.storage.latch import OrderedLatch
from repro.storage.pages import DEFAULT_PAGE_SIZE, PageRange, pages_needed

_BLOB_READS = obs.counter("disk.blob_reads", "BLOBs fetched from the simulated disk")
_PAGES_READ = obs.counter("disk.pages_read", "Pages charged on the simulated disk")
_BYTES_READ = obs.counter("disk.bytes_read", "BLOB payload bytes read")
_RANDOM_ACCESSES = obs.counter("disk.random_accesses", "Full seek+rotation positionings")
_SHORT_SKIPS = obs.counter("disk.short_skips", "Settle-only forward skips")
_SEQUENTIAL_READS = obs.counter("disk.sequential_reads", "Reads continuing at the head")
_INDEX_NODE_READS = obs.counter("disk.index_node_reads", "Index node pages charged")
_MODEL_MS = obs.counter("disk.model_ms", "Modelled disk milliseconds charged")
_BLOB_READ_MS = obs.histogram("disk.blob_read_ms", "Modelled milliseconds per BLOB read")
_WAL_APPENDS = obs.counter("disk.wal_appends", "Write-ahead-log append charges")
_WAL_PAGES = obs.counter("disk.wal_pages_written", "Pages charged for WAL appends")
_WAL_MS = obs.counter("disk.wal_ms", "Modelled WAL milliseconds charged")
_DATA_WRITES = obs.counter("disk.data_writes", "Page-file write runs charged")
_PAGES_WRITTEN = obs.counter("disk.pages_written", "Pages charged for data writes")
_DATA_WRITE_MS = obs.counter("disk.data_write_ms", "Modelled data-write milliseconds")
_REALTIME_WAIT_MS = obs.counter(
    "disk.realtime_wait_ms", "Real milliseconds slept in realtime mode"
)


@dataclass(frozen=True)
class DiskParameters:
    """Cost constants of the simulated disk.

    ``transfer_mb_per_s`` is the *effective* rate through the object
    store, not the raw media rate — the paper reads tiles through O2,
    whose page handling roughly halves mid-90s media throughput.
    ``blob_overhead_ms`` charges the per-BLOB dereference (catalog lookup,
    buffer hand-over) every tile retrieval pays regardless of size.
    """

    seek_ms: float = 8.0
    rotation_ms: float = 8.33  # one revolution at 7200 rpm
    transfer_mb_per_s: float = 5.0
    blob_overhead_ms: float = 1.0
    settle_ms: float = 2.0
    short_skip_pages: int = 256
    page_size: int = DEFAULT_PAGE_SIZE
    #: When > 0, BLOB reads additionally *sleep* this fraction of their
    #: modelled milliseconds in real time.  The wait happens outside the
    #: disk latch — the modelled device admits concurrent in-flight
    #: requests (command queuing), so snapshot readers overlap their
    #: latency while the positioning charges stay serialized and
    #: deterministic.  Off (0.0) everywhere except concurrency
    #: benchmarks, which need read waits to exist in wall-clock time.
    realtime_scale: float = 0.0

    def transfer_ms_per_page(self) -> float:
        """Milliseconds to stream one page off the platter."""
        return self.page_size / (self.transfer_mb_per_s * 1024 * 1024) * 1000.0

    def random_access_ms(self) -> float:
        """Positioning cost of one random page access."""
        return self.seek_ms + self.rotation_ms / 2.0

    def short_skip_ms(self) -> float:
        """Positioning cost of a short forward skip (track-to-track)."""
        return self.settle_ms


@dataclass(frozen=True)
class CpuParameters:
    """Deterministic post-processing (``t_cpu``) model, 1999-era rates.

    Composing the result array copies cells out of each fetched tile.  A
    tile fully contained in the query region contributes one contiguous
    block copy (``aligned_mb_per_s``); a *border* tile — one that
    straddles the query boundary — must be clipped with strided per-cell
    copying, an order of magnitude slower (``border_mb_per_s``).  This is
    exactly the effect the paper describes: "data has to be copied from
    the border tiles to calculate the end result", which is why regular
    tiling loses ``t_totalcpu`` even when its ``t_o`` is competitive.
    """

    aligned_mb_per_s: float = 80.0
    border_mb_per_s: float = 8.0

    def compose_ms(self, aligned_bytes: int, border_bytes: int) -> float:
        """Modelled milliseconds to compose a result from tile payloads."""
        mb = 1024.0 * 1024.0
        return (
            aligned_bytes / (self.aligned_mb_per_s * mb)
            + border_bytes / (self.border_mb_per_s * mb)
        ) * 1000.0


@dataclass
class DiskCounters:
    """Accumulated activity since the last reset."""

    blob_reads: int = 0
    pages_read: int = 0
    random_accesses: int = 0
    short_skips: int = 0
    sequential_reads: int = 0
    bytes_read: int = 0
    time_ms: float = 0.0
    # WAL appends and page-file data writes are accounted separately from
    # time_ms: write-path cost must not pollute the paper's t_o, which
    # measures retrieval only.
    wal_appends: int = 0
    wal_pages: int = 0
    wal_ms: float = 0.0
    data_writes: int = 0
    pages_written: int = 0
    data_write_ms: float = 0.0

    def snapshot(self) -> "DiskCounters":
        return DiskCounters(**vars(self))


class SimulatedDisk:
    """Charges deterministic time for page accesses against a BLOB store.

    The disk remembers the last page it touched: a read whose first page
    directly follows is sequential and skips the positioning cost, so tile
    clustering order influences ``t_o`` exactly as it would on a real
    spindle.
    """

    def __init__(
        self,
        store: BlobStore,
        parameters: DiskParameters | None = None,
    ) -> None:
        self.store = store
        self.parameters = parameters or DiskParameters(page_size=store.page_size)
        if self.parameters.page_size != store.page_size:
            raise StorageError(
                f"disk page size {self.parameters.page_size} differs from "
                f"store page size {store.page_size}"
            )
        self.counters = DiskCounters()
        self._head_position: int | None = None
        # One latch serializes head movement and counter updates: the
        # positioning regime depends on the previous access, so charges
        # must be atomic for the cost model to stay coherent under
        # concurrent readers.
        self._latch = OrderedLatch("disk", 50)

    # -- timing primitives -------------------------------------------------

    def charge_pages(self, page_range: PageRange) -> float:
        """Charge the cost of reading one contiguous page range.

        Three positioning regimes: a read continuing exactly where the
        head sits is sequential (no positioning); a short forward skip
        pays only a settle; anything else is a full random access.
        """
        with self._latch:
            return self._charge_pages_locked(page_range)

    def _charge_pages_locked(self, page_range: PageRange) -> float:
        cost = page_range.count * self.parameters.transfer_ms_per_page()
        if self._head_position == page_range.start:
            self.counters.sequential_reads += 1
            _SEQUENTIAL_READS.inc()
        elif (
            self._head_position is not None
            and 0
            < page_range.start - self._head_position
            <= self.parameters.short_skip_pages
        ):
            cost += self.parameters.short_skip_ms()
            self.counters.short_skips += 1
            _SHORT_SKIPS.inc()
        else:
            cost += self.parameters.random_access_ms()
            self.counters.random_accesses += 1
            _RANDOM_ACCESSES.inc()
        self._head_position = page_range.end
        self.counters.pages_read += page_range.count
        self.counters.time_ms += cost
        _PAGES_READ.inc(page_range.count)
        _MODEL_MS.inc(cost)
        return cost

    def charge_index_node(self) -> float:
        """Charge one random page access for a spatial-index node visit."""
        cost = (
            self.parameters.random_access_ms()
            + self.parameters.transfer_ms_per_page()
        )
        with self._latch:
            self.counters.pages_read += 1
            self.counters.random_accesses += 1
            self.counters.time_ms += cost
            self._head_position = None
        _INDEX_NODE_READS.inc()
        _PAGES_READ.inc()
        _RANDOM_ACCESSES.inc()
        _MODEL_MS.inc(cost)
        return cost

    def charge_log_append(self, byte_count: int, fsync: bool = False) -> float:
        """Charge a sequential write-ahead-log append.

        The log is the one strictly sequential write stream in the
        system, so an append pays only transfer time for its pages; a
        synchronous commit (``fsync``) additionally waits half a rotation
        for the platter.  Charged into the separate ``wal_*`` counters —
        durability overhead is reported next to, not inside, the paper's
        ``t_o``.
        """
        pages = pages_needed(byte_count, self.parameters.page_size)
        cost = pages * self.parameters.transfer_ms_per_page()
        if fsync:
            cost += self.parameters.rotation_ms / 2.0
        with self._latch:
            self.counters.wal_appends += 1
            self.counters.wal_pages += pages
            self.counters.wal_ms += cost
        _WAL_APPENDS.inc()
        _WAL_PAGES.inc(pages)
        _WAL_MS.inc(cost)
        return cost

    def charge_data_write(self, page_range: PageRange) -> float:
        """Charge one coalesced page-file write run.

        Positioning follows the same three regimes as reads (the head is
        shared between reads and writes on a real spindle) but the cost
        lands in the separate ``data_write`` counters: page-file flushes,
        like WAL appends, are write-path overhead that must not inflate
        the paper's ``t_o``.  A run of many coalesced blobs pays one
        positioning, which is the point of coalescing.
        """
        with self._latch:
            cost = page_range.count * self.parameters.transfer_ms_per_page()
            if self._head_position == page_range.start:
                pass
            elif (
                self._head_position is not None
                and 0
                < page_range.start - self._head_position
                <= self.parameters.short_skip_pages
            ):
                cost += self.parameters.short_skip_ms()
            else:
                cost += self.parameters.random_access_ms()
            self._head_position = page_range.end
            self.counters.data_writes += 1
            self.counters.pages_written += page_range.count
            self.counters.data_write_ms += cost
        _DATA_WRITES.inc()
        _PAGES_WRITTEN.inc(page_range.count)
        _DATA_WRITE_MS.inc(cost)
        return cost

    # -- blob interface ------------------------------------------------------

    def read_blob(
        self, blob_id: int, verified: bytes | None = None
    ) -> tuple[bytes, float]:
        """Fetch a BLOB's bytes and the charged time in milliseconds.

        Charge and byte fetch happen under the disk latch, so the pages
        a reader is charged for are the pages whose bytes it gets even
        while a writer commits concurrently (the store latch ranks above
        the disk latch, see :mod:`repro.storage.latch`).  ``verified`` is
        the payload when the fetch path's read-ahead already fetched and
        checksummed it (:func:`repro.storage.pipeline._read_runs`, under a
        pinned view, where blobs are immutable): only the charge, which
        is the same either way, is left to do.
        """
        with self._latch:
            record = self.store.record(blob_id)
            cost = self._charge_pages_locked(record.pages)
            cost += self.parameters.blob_overhead_ms
            self.counters.time_ms += self.parameters.blob_overhead_ms
            payload = self.store.get(blob_id) if verified is None else verified
            self.counters.blob_reads += 1
            self.counters.bytes_read += record.byte_size
        _BLOB_READS.inc()
        _BYTES_READ.inc(record.byte_size)
        _MODEL_MS.inc(self.parameters.blob_overhead_ms)
        _BLOB_READ_MS.observe(cost)
        self._realtime_wait(cost)
        return payload, cost

    def _realtime_wait(self, model_ms: float) -> None:
        """Sleep the scaled modelled time, outside the latch (see
        :attr:`DiskParameters.realtime_scale`)."""
        scale = self.parameters.realtime_scale
        if scale > 0.0 and model_ms > 0.0:
            time.sleep(model_ms * scale / 1000.0)
            _REALTIME_WAIT_MS.inc(model_ms * scale)

    # -- bookkeeping -----------------------------------------------------------

    def reset(self) -> DiskCounters:
        """Zero the counters and forget head position; returns the old
        counters for inspection."""
        with self._latch:
            old = self.counters
            self.counters = DiskCounters()
            self._head_position = None
        return old
