"""Deterministic disk timing model.

The paper measures ``t_o`` — the time to retrieve the intersected tiles
from disk — on a 1996 workstation disk through the O2 store.  That
hardware cannot be reproduced, and Python wall-clock I/O timing is too
noisy to be meaningful, so this module *models* the disk: one pure
function, :func:`price`, charges each page run a seek plus half a
rotation when it does not start near the head (random access), a settle
for a short forward skip, and a transfer cost per page.  Reads, data
writes and index-node visits all call it.  What the model preserves is
exactly what the tiling strategies optimise: the number of pages fetched
and the random-vs-sequential access pattern.  Defaults approximate the
paper's era: 8 ms seek, 7200 rpm, 5 MB/s effective transfer through the
object store, a 2 ms settle for short forward skips, and a 1 ms per-BLOB
dereference overhead on 8 KiB pages.

The disk keeps only simulator state: the head and the modelled read
clock.  A read charge returns each item's ``(cost, regime)``; the
caller counts them into its :class:`~repro.query.timing.QueryTiming`
(:func:`count_charged`), whose fold is the registry's ``disk.*`` read
counters.  Writes and log appends count themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Optional, Sequence

from repro import obs
from repro.core.errors import StorageError
from repro.storage.blob import BlobRecord
from repro.storage.latch import OrderedLatch
from repro.storage.pages import DEFAULT_PAGE_SIZE, PageRange, pages_needed

_WAL_APPENDS = obs.counter("disk.wal_appends", "Write-ahead-log append charges")
_WAL_PAGES = obs.counter("disk.wal_pages_written", "Pages charged for WAL appends")
_WAL_MS = obs.counter("disk.wal_ms", "Modelled WAL milliseconds charged")
_DATA_WRITES = obs.counter("disk.data_writes", "Page-file write runs charged")
_PAGES_WRITTEN = obs.counter("disk.pages_written", "Pages charged for data writes")
_DATA_WRITE_MS = obs.counter("disk.data_write_ms", "Modelled data-write milliseconds")

#: Positioning regimes :func:`price` assigns.
SEQUENTIAL, SHORT_SKIP, RANDOM = "sequential", "short_skip", "random"
#: A :func:`price` item that is an index-node visit, not a page run: one
#: random page, after which the head position is unknown.
INDEX_NODE = None


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

    def __post_init__(self) -> None:
        for name, value in vars(self).items():  # the whole input of price()
            positive = name in ("page_size", "transfer_mb_per_s")
            if not (value > 0 if positive else value >= 0):  # NaN fails too
                kind = "positive" if positive else "non-negative"
                raise StorageError(f"disk parameter {name} must be {kind}, got {value!r}")

    def transfer_ms_per_page(self) -> float:
        """Milliseconds to stream one page off the platter."""
        return self.page_size / (self.transfer_mb_per_s * 1024 * 1024) * 1000.0

    def random_access_ms(self) -> float:
        """Positioning cost of one random page access."""
        return self.seek_ms + self.rotation_ms / 2.0

    def short_skip_ms(self) -> float:
        """Positioning cost of a short forward skip (track-to-track)."""
        return self.settle_ms


def price(
    parameters: DiskParameters, head: Optional[int], runs: Sequence[Optional[PageRange]]
) -> tuple[list[tuple[float, str]], Optional[int]]:
    """Each item's ``(cost, regime)`` from head position ``head``, and the
    head after the last item.

    The one positioning rule: a run starting exactly at the head is
    sequential (transfer only); a forward skip of at most
    ``short_skip_pages`` pays a settle; anything else — backwards, far,
    or from an unknown head (``None``) — pays a full random access.  An
    :data:`INDEX_NODE` item is one random page that leaves the head
    unknown.
    """
    transfer, random = parameters.transfer_ms_per_page(), parameters.random_access_ms()
    priced = []
    for run in runs:
        if run is None:  # INDEX_NODE
            priced.append((random + transfer, RANDOM))
            head = None
            continue
        cost, regime = run.count * transfer, SEQUENTIAL
        if head != run.start:
            if head is not None and 0 < run.start - head <= parameters.short_skip_pages:
                cost, regime = cost + parameters.short_skip_ms(), SHORT_SKIP
            else:
                cost, regime = cost + random, RANDOM
        priced.append((cost, regime))
        head = run.end
    return priced, head


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


def count_charged(
    record, records: Sequence[BlobRecord], regimes: Sequence[Optional[str]]
) -> None:
    """Count into ``record`` (a :class:`~repro.query.timing.QueryTiming`)
    the blob reads the disk charged: ``records`` with each read's regime,
    ``None`` where nothing was charged (a pool or decoded-cache hit)."""
    charged = list(compress(records, regimes))
    record.disk_blobs += len(charged)
    record.disk_pages += sum(charge.pages.count for charge in charged)
    record.disk_bytes += sum(charge.byte_size for charge in charged)
    record.random_reads += regimes.count(RANDOM)
    record.short_skips += regimes.count(SHORT_SKIP)
    record.sequential_reads += regimes.count(SEQUENTIAL)


class SimulatedDisk:
    """The disk's state: the head (the last page touched, shared by reads
    and writes as on a real spindle) and the modelled read clock
    ``time_ms``.  Every charge is one :func:`price` call over a batch, the
    head-moving ones under the latch; a read charge returns its priced
    items for the caller's query record, a write counts itself in the
    registry (``disk.data_*``, ``disk.wal_*``).
    """

    def __init__(self, parameters: DiskParameters | None = None) -> None:
        self.parameters = parameters or DiskParameters()
        #: Modelled read milliseconds since the last :meth:`reset` — the
        #: clock ``profile_read`` reconciles against ``t_o + t_ix_pages``.
        #: Writes and log appends never advance it.
        self.time_ms = 0.0
        self._head: Optional[int] = None
        self._latch = OrderedLatch("disk", 50)

    def charge_reads(self, records: Sequence[BlobRecord]) -> list[tuple[float, str]]:
        """Charge a batch of BLOB reads, in the given (page) order: each
        blob's ``(cost, regime)``, its cost its run's price plus
        ``blob_overhead_ms``."""
        return self._read([record.pages for record in records], self.parameters.blob_overhead_ms)

    def charge_index(self, nodes: int) -> float:
        """Charge ``nodes`` spatial-index node visits (each one random
        page); their summed cost."""
        return sum(cost for cost, _regime in self._read([INDEX_NODE] * nodes))

    def _read(
        self, runs: Sequence[Optional[PageRange]], overhead: float = 0.0
    ) -> list[tuple[float, str]]:
        """One latch hold pricing read-side items onto the clock; an empty
        batch (a chunk of pool hits) takes no latch."""
        if not runs:
            return []
        with self._latch:
            priced, self._head = price(self.parameters, self._head, runs)
            for cost, _regime in priced:
                self.time_ms += cost  # then the overhead (0.0 for index nodes:
                self.time_ms += overhead  # no bit changes): t_o's bits depend on it
        return [(cost + overhead, regime) for cost, regime in priced]

    def charge_writes(self, runs: Sequence[PageRange]) -> list[float]:
        """Charge coalesced page-file write runs, in order: they move the
        shared head, but not the read clock (regimes not counted) —
        write-path overhead must not inflate the paper's ``t_o``.  A run
        of coalesced blobs pays one positioning."""
        if not runs:
            return []
        with self._latch:
            priced, self._head = price(self.parameters, self._head, runs)
        costs = [cost for cost, _regime in priced]
        _DATA_WRITES.inc(len(runs))
        _PAGES_WRITTEN.inc(sum(run.count for run in runs))
        _DATA_WRITE_MS.inc(sum(costs))
        return costs

    def charge_log_append(self, byte_count: int, fsync: bool = False) -> float:
        """Charge a sequential write-ahead-log append.

        The log is the one strictly sequential write stream in the
        system, so an append pays only transfer time for its pages; a
        synchronous commit (``fsync``) additionally waits half a rotation
        for the platter.  Counted under ``disk.wal_*``, off the read clock
        and the head — durability overhead is reported next to, not
        inside, the paper's ``t_o``.
        """
        pages = pages_needed(byte_count, self.parameters.page_size)
        cost = pages * self.parameters.transfer_ms_per_page()
        if fsync:
            cost += self.parameters.rotation_ms / 2.0
        _WAL_APPENDS.inc()
        _WAL_PAGES.inc(pages)
        _WAL_MS.inc(cost)
        return cost

    def reset(self) -> None:
        """Zero the read clock and forget the head position."""
        with self._latch:
            self.time_ms = 0.0
            self._head = None
