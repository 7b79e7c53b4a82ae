"""Decoded-tile cache: LRU of post-decompress numpy tile arrays.

The third level of the read hierarchy.  Below it sit the simulated disk
(charges modelled ``t_o``) and the :class:`~repro.storage.bufferpool.
BufferPool` (caches *compressed* BLOB payloads, saving the disk charge but
not the CPU work).  A buffer-pool hit still pays ``decompress`` plus
``np.frombuffer`` on every access; this cache keeps the finished article —
the decoded, reshaped, read-only tile array — keyed by BLOB id, so a
repeat read of a hot tile costs one dict lookup.

Entries are byte-budgeted LRU like the pool, but budgeted on *decoded*
bytes (``array.nbytes``), which for compressed tiles is larger than the
pool's footprint for the same tile.  Arrays handed out are read-only:
callers compose results by copying out of them (or serve them zero-copy
on the single-tile fast path), so a cached tile can never be corrupted by
a consumer.

Admissions happen after a fetch batch, in page order, in one
:meth:`put_many`.  The cache keeps no tallies: activity is counted once,
in the :mod:`repro.obs` registry under ``cache.decoded.*``, once per
batch — hits and misses by the read pipeline (which also puts them in
the query's record), admissions and evictions by :meth:`put_many`; the
``used_bytes`` gauge is delta-maintained, so several caches (one per
:class:`~repro.storage.tilestore.Database`) sum instead of overwriting.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.core.errors import StorageError
from repro.storage.latch import OrderedLatch

_EVICTIONS = obs.counter(
    "cache.decoded.evictions", "LRU evictions of decoded tiles"
)
_BYTES_ADMITTED = obs.counter(
    "cache.decoded.bytes_admitted", "Decoded bytes admitted"
)
_BYTES_EVICTED = obs.counter(
    "cache.decoded.bytes_evicted", "Decoded bytes evicted"
)
_INVALIDATIONS = obs.counter(
    "cache.decoded.invalidations", "Entries dropped after update/delete"
)
_USED_BYTES = obs.gauge(
    "cache.decoded.used_bytes",
    "Decoded bytes currently cached (summed over all caches)",
)
_ADMITTED_SIZE = obs.histogram(
    "cache.decoded.admitted_size_bytes",
    "Decoded tile size per cache admission",
    buckets=obs.BYTE_BUCKETS,
)


class DecodedTileCache:
    """Byte-budgeted LRU of read-only decoded tile arrays, keyed by BLOB id."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise StorageError(f"negative capacity {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._entries: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._used = 0
        # Guards the LRU table and used-byte accounting (local count +
        # gauge delta move together) — see DESIGN §11.
        self._latch = OrderedLatch("cache.decoded", 70)

    # ------------------------------------------------------------------
    # Lookup / admission
    # ------------------------------------------------------------------

    def get(self, blob_id: int) -> Optional[np.ndarray]:
        """The decoded tile, or ``None`` on a miss."""
        return self.get_many((blob_id,))[0]

    def get_many(self, blob_ids: Sequence[int]) -> list[Optional[np.ndarray]]:
        """:meth:`get` for a batch under one latch acquisition: per id, in
        order, a hit (promoted to most recently used) or a miss."""
        found: list[Optional[np.ndarray]] = []
        with self._latch:
            entries = self._entries
            for blob_id in blob_ids:
                array = entries.get(blob_id)
                if array is not None:
                    entries.move_to_end(blob_id)
                found.append(array)
        return found

    def peek(self, blob_id: int) -> Optional[np.ndarray]:
        """Like :meth:`get` but without LRU promotion."""
        with self._latch:
            return self._entries.get(blob_id)

    def put(self, blob_id: int, array: np.ndarray) -> np.ndarray:
        """Admit a decoded tile; returns the (read-only) cached array."""
        return self.put_many([(blob_id, array)])[0]

    def put_many(self, items: Sequence[tuple[int, np.ndarray]]) -> list[np.ndarray]:
        """Admit ``(blob_id, array)`` pairs in order under one latch hold;
        returns the (read-only) cached arrays.

        A tile larger than the whole budget is not admitted (mirroring the
        buffer pool); the read-only view is returned regardless, so
        callers can always use the result.  Each instrument takes one
        update per batch, inside the latch hold.
        """
        arrays = [self._readonly(array) for _, array in items]
        admitted: list[int] = []
        evicted: list[int] = []
        with self._latch:
            used = self._used
            for (blob_id, _), array in zip(items, arrays):
                size = array.nbytes
                if size > self.capacity_bytes:
                    continue
                previous = self._entries.pop(blob_id, None)
                if previous is not None:
                    self._used -= previous.nbytes
                while self._used > self.capacity_bytes - size and self._entries:
                    _victim, victim = self._entries.popitem(last=False)
                    self._used -= victim.nbytes
                    evicted.append(victim.nbytes)
                self._entries[blob_id] = array
                self._used += size
                admitted.append(size)
            if admitted:
                _EVICTIONS.inc(len(evicted))
                _BYTES_EVICTED.inc(sum(evicted))
                _BYTES_ADMITTED.inc(sum(admitted))
                _ADMITTED_SIZE.observe_many(admitted)
                _USED_BYTES.inc(self._used - used)
        return arrays

    @staticmethod
    def _readonly(array: np.ndarray) -> np.ndarray:
        if array.flags.writeable:
            array = array.view()
            array.flags.writeable = False
        return array

    def _discard_bytes(self, size: int) -> None:
        self._used -= size
        _USED_BYTES.dec(size)

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def invalidate(self, blob_id: int) -> None:
        """Drop one entry (called on BLOB update/delete)."""
        with self._latch:
            array = self._entries.pop(blob_id, None)
            if array is not None:
                self._discard_bytes(array.nbytes)
                _INVALIDATIONS.inc()

    def clear(self) -> None:
        """Empty the cache (cold measurement boundary)."""
        with self._latch:
            self._discard_bytes(self._used)
            self._entries.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, blob_id: object) -> bool:
        return blob_id in self._entries

    def __repr__(self) -> str:
        return (
            f"DecodedTileCache(used={self._used}/{self.capacity_bytes} B, "
            f"entries={len(self._entries)})"
        )
