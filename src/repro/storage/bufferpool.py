"""LRU buffer pool over the simulated disk.

A byte-budgeted cache of BLOB payloads.  A hit returns the payload without
charging disk time; a miss is charged on the :class:`SimulatedDisk` and
admitted, evicting least-recently-used entries until the budget holds.

Benchmarks run cold by default (the paper's ``t_o`` is dominated by actual
retrieval), but the ablation benches use the pool to show how caching
changes the regular-vs-arbitrary comparison.

Each lookup returns its own outcome (:class:`PoolRead`), which the read
pipeline sums into the query's record and the registry; the pool keeps
local ``hits`` / ``misses`` / ``evictions`` tallies for reports.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, NamedTuple, Optional, Sequence

from repro import obs
from repro.core.errors import StorageError
from repro.storage.blob import BlobRecord, BlobStore
from repro.storage.disk import SimulatedDisk
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
    """One blob read's charge and pool outcome."""

    cost: float  # modelled disk milliseconds (0.0 on a hit)
    hit: Optional[bool] = None  # None: no pool in front of the disk
    evicted: int = 0  # entries this read's admission evicted


HIT = PoolRead(0.0, True)


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
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Guards the LRU table, the local tallies, and the used-byte
        # accounting (both self._used and its delta into the gauge), so
        # concurrent admit/evict keeps gauge sums exact (DESIGN §11).
        self._latch = OrderedLatch("pool", 45)

    @property
    def used_bytes(self) -> int:
        return self._used

    def cached(self, blob_ids: Sequence[int]) -> list[bool]:
        """Whether each payload is cached — a peek: no LRU touch, no tally."""
        with self._latch:
            return [blob_id in self._entries for blob_id in blob_ids]

    def __contains__(self, blob_id: int) -> bool:
        return self.cached([blob_id])[0]

    def read_blobs(
        self, records: Sequence[BlobRecord], load: Callable[[int], bytes]
    ) -> list[tuple[bytes, PoolRead]]:
        """Each blob's payload and :class:`PoolRead`, walked in order under
        one latch hold: a hit is touched, a miss admitted with its
        ``load(blob_id)`` payload — then one disk charge prices the misses
        (none for a batch of hits)."""
        payloads: list[bytes] = []
        evictions: list[Optional[int]] = []  # None: a hit
        missed: list[BlobRecord] = []
        with self._latch:
            for record in records:
                blob_id = record.blob_id
                payload = self._entries.get(blob_id)
                if payload is not None:
                    self._entries.move_to_end(blob_id)
                    self.hits += 1
                    evictions.append(None)
                else:
                    payload = load(blob_id)
                    self.misses += 1
                    missed.append(record)
                    evictions.append(self._admit(blob_id, payload))
                payloads.append(payload)
            costs = iter(self.disk.charge_reads(missed))
        return [
            (payload, HIT if evicted is None else PoolRead(next(costs), False, evicted))
            for payload, evicted in zip(payloads, evictions)
        ]

    def read_blob(self, blob_id: int) -> tuple[bytes, PoolRead]:
        """One blob's :meth:`read_blobs`, a miss read from the store."""
        return self.read_blobs(self.store.records([blob_id]), self.store.get)[0]

    def _admit(self, blob_id: int, payload: bytes) -> int:
        """Admit a payload, evicting LRU entries to fit; returns how many."""
        if len(payload) > self.capacity_bytes:
            return 0
        before = self.evictions
        while self._used + len(payload) > self.capacity_bytes and self._entries:
            _victim, evicted = self._entries.popitem(last=False)
            self._used -= len(evicted)
            _USED_BYTES.dec(len(evicted))
            self.evictions += 1
            _BYTES_EVICTED.inc(len(evicted))
        self._entries[blob_id] = payload
        self._used += len(payload)
        _BYTES_ADMITTED.inc(len(payload))
        _ADMITTED_SIZE.observe(len(payload))
        _USED_BYTES.inc(len(payload))
        return self.evictions - before

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

    def reset_stats(self) -> None:
        """Zero the local hit/miss/eviction tallies (measurement boundary).

        Contents are untouched — clearing data and clearing counters are
        different decisions; ``Database.reset_clock`` does both."""
        with self._latch:
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
