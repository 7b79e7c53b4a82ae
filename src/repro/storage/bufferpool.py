"""LRU buffer pool over the simulated disk.

A byte-budgeted cache of BLOB payloads.  A hit returns the payload without
charging disk time; a miss is charged on the :class:`SimulatedDisk` and
admitted, evicting least-recently-used entries until the budget holds.

Benchmarks run cold by default (the paper's ``t_o`` is dominated by actual
retrieval), but the ablation benches use the pool to show how caching
changes the regular-vs-arbitrary comparison.

Each lookup returns its own outcome (:class:`PoolRead`), which the read
pipeline sums into the query's record, whose fold is the registry's
``pool.hits`` / ``pool.misses`` / ``pool.evictions``; the pool keeps no
tallies of its own.  The ``pool.bytes_*`` counters, the admitted-size
histogram and the ``pool.used_bytes`` gauge take one update per
:meth:`read_blobs` batch, inside its latch hold.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, NamedTuple, Optional, Sequence

from repro import obs
from repro.core.errors import StorageError
from repro.query.timing import FETCH_COUNTS, QueryTiming
from repro.storage.blob import BlobRecord, BlobStore
from repro.storage.disk import SimulatedDisk, count_charged
from repro.storage.latch import OrderedLatch

_BYTES_ADMITTED = obs.counter("pool.bytes_admitted", "Payload bytes admitted")
_BYTES_EVICTED = obs.counter("pool.bytes_evicted", "Payload bytes evicted")
# Delta-maintained on every mutation (admit / evict / invalidate / clear)
# so several pools — one per Database — sum into one truthful total
# instead of the last-mutated pool overwriting the others via set().
_USED_BYTES = obs.gauge(
    "pool.used_bytes", "Bytes currently cached (summed over all pools)"
)
_ADMITTED_SIZE = obs.histogram(
    "pool.admitted_size_bytes",
    "Payload size per pool admission",
    buckets=obs.BYTE_BUCKETS,
)


class PoolRead(NamedTuple):
    """One blob read's disk charge — its cost and regime — and pool outcome."""

    cost: float  # modelled disk milliseconds (0.0 on a hit)
    regime: Optional[str] = None  # the disk's positioning (None: not charged)
    hit: Optional[bool] = None  # None: no pool in front of the disk
    evicted: int = 0  # entries this read's admission evicted


HIT = PoolRead(0.0, None, True)


class BufferPool:
    """Byte-budgeted LRU cache of BLOB payloads."""

    def __init__(self, store: BlobStore, disk: SimulatedDisk, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise StorageError(f"negative capacity {capacity_bytes}")
        self.store = store
        self.disk = disk
        self.capacity_bytes = capacity_bytes
        self._entries: "OrderedDict[int, bytes]" = OrderedDict()
        self._used = 0
        # Guards the LRU table and the used-byte accounting (both
        # self._used and its delta into the gauge), so concurrent
        # admit/evict keeps gauge sums exact (DESIGN §11).
        self._latch = OrderedLatch("pool", 45)

    @property
    def used_bytes(self) -> int:
        return self._used

    def cached(self, blob_ids: Sequence[int]) -> list[bool]:
        """Whether each payload is cached — a peek: no LRU touch, nothing counted."""
        with self._latch:
            return [blob_id in self._entries for blob_id in blob_ids]

    def __contains__(self, blob_id: int) -> bool:
        return self.cached([blob_id])[0]

    def read_blobs(
        self, records: Sequence[BlobRecord], load: Callable[[int], bytes]
    ) -> list[tuple[bytes, PoolRead]]:
        """Each blob's payload and :class:`PoolRead`, walked in order under
        one latch hold: a hit is touched, a miss admitted with its
        ``load(blob_id)`` payload, evicting least-recently-used entries to
        fit (a payload over the whole budget is not admitted) — then one
        disk charge prices the misses (none for a batch of hits), and the
        sizes admitted and evicted are counted once for the batch."""
        entries, capacity = self._entries, self.capacity_bytes
        payloads: list[bytes] = []
        evictions: list[Optional[int]] = []  # None: a hit
        missed: list[BlobRecord] = []
        admitted: list[int] = []
        evicted: list[int] = []
        with self._latch:
            start = used = self._used
            try:
                for record in records:
                    blob_id = record.blob_id
                    payload = entries.get(blob_id)
                    if payload is not None:
                        entries.move_to_end(blob_id)
                        evictions.append(None)
                        payloads.append(payload)
                        continue
                    payload = load(blob_id)
                    missed.append(record)
                    payloads.append(payload)
                    size, before = len(payload), len(evicted)
                    if size <= capacity:
                        while used + size > capacity and entries:
                            victim = len(entries.popitem(last=False)[1])
                            used -= victim
                            evicted.append(victim)
                        entries[blob_id] = payload
                        used += size
                        admitted.append(size)
                    evictions.append(len(evicted) - before)
            finally:  # one update per instrument, inside the latch hold
                self._used = used
                if missed:
                    _BYTES_ADMITTED.inc(sum(admitted))
                    _ADMITTED_SIZE.observe_many(admitted)
                    _BYTES_EVICTED.inc(sum(evicted))
                    _USED_BYTES.inc(used - start)
            priced = iter(self.disk.charge_reads(missed))
        return [
            (payload, HIT if evicted is None else PoolRead(*next(priced), False, evicted))
            for payload, evicted in zip(payloads, evictions)
        ]

    def read_blob(self, blob_id: int) -> tuple[bytes, PoolRead]:
        """One blob's :meth:`read_blobs`, a miss read from the store; the
        disk's charge is folded into the registry."""
        records = self.store.records([blob_id])
        [(payload, read)] = self.read_blobs(records, self.store.get)
        record = QueryTiming(t_o=read.cost)
        count_charged(record, records, [read.regime])
        record.fold(FETCH_COUNTS)
        return payload, read

    def invalidate(self, blob_id: int) -> None:
        """Drop one entry (called on BLOB update/delete)."""
        with self._latch:
            payload = self._entries.pop(blob_id, None)
            if payload is not None:
                self._used -= len(payload)
                _USED_BYTES.dec(len(payload))

    def clear(self) -> None:
        """Empty the pool (cold-start benchmarks)."""
        with self._latch:
            self._entries.clear()
            _USED_BYTES.dec(self._used)
            self._used = 0
