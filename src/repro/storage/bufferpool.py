"""LRU buffer pool over the simulated disk.

A byte-budgeted cache of BLOB payloads.  A hit returns the payload without
charging disk time; a miss reads through :class:`SimulatedDisk` and admits
the payload, evicting least-recently-used entries until the budget holds.

Benchmarks run cold by default (the paper's ``t_o`` is dominated by actual
retrieval), but the ablation benches use the pool to show how caching
changes the regular-vs-arbitrary comparison.

Each lookup returns its own outcome (:class:`PoolRead`), which the read
pipeline sums into the query's record and the registry; the pool keeps
local ``hits`` / ``misses`` / ``evictions`` tallies for reports.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import NamedTuple, Optional

from repro import obs
from repro.core.errors import StorageError
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


class BufferPool:
    """Byte-budgeted LRU cache of BLOB payloads."""

    def __init__(self, disk: SimulatedDisk, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise StorageError(f"negative capacity {capacity_bytes}")
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

    def __contains__(self, blob_id: int) -> bool:
        """Whether a payload is cached — a peek: no LRU touch, no tally."""
        with self._latch:
            return blob_id in self._entries

    def read_blob(
        self, blob_id: int, verified: bytes | None = None
    ) -> tuple[bytes, PoolRead]:
        """BLOB payload and this lookup's :class:`PoolRead`.

        ``verified`` is handed to the disk on a miss
        (:meth:`SimulatedDisk.read_blob`)."""
        with self._latch:
            cached = self._entries.get(blob_id)
            if cached is not None:
                self._entries.move_to_end(blob_id)
                self.hits += 1
                return cached, PoolRead(0.0, True)
            # The latch is held across the miss read: the disk latch
            # ranks above the pool latch, and a serialized miss+admit is
            # what keeps the LRU trajectory and the charges deterministic.
            payload, cost = self.disk.read_blob(blob_id, verified)
            self.misses += 1
            return payload, PoolRead(cost, False, self._admit(blob_id, payload))

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
