"""Naive tile directory: a flat list scanned on every search.

The baseline the R+-tree is measured against.  A search reads the whole
directory, so its page cost grows linearly with the number of tiles —
exactly the ``t_ix`` growth the paper observes on the 375 MB extended
cubes.  Directory pages are contiguous, so the scan is one random access
followed by sequential page reads.

The *modelled* cost stays a full scan, but the in-process hot path is
vectorized: entry bounds are kept packed in one int64 array and a search
is a single batched comparison instead of a per-entry
:meth:`MInterval.intersects` loop.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro import obs
from repro.core.geometry import MInterval, pack_bounds
from repro.index.base import (
    IndexEntry,
    SearchResult,
    SpatialIndex,
    entry_bytes,
    intersecting_mask,
)
from repro.storage.pages import DEFAULT_PAGE_SIZE, pages_needed

_SEARCHES = obs.counter("index.directory.searches", "Directory scans")
_NODES_VISITED = obs.counter(
    "index.directory.nodes_visited", "Directory pages scanned"
)
_ENTRIES_FOUND = obs.counter(
    "index.directory.entries_found", "Tile entries returned by directory scans"
)


class DirectoryIndex(SpatialIndex):
    """Flat list-of-entries index (linear scan)."""

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        self.page_size = page_size
        self._entries: list[IndexEntry] = []
        self._packed: Optional[np.ndarray] = None  # rebuilt lazily on search

    def insert(self, entry: IndexEntry) -> None:
        self._entries.append(entry)
        self._packed = None

    def remove(self, tile_id: int) -> bool:
        for i, entry in enumerate(self._entries):
            if entry.tile_id == tile_id:
                del self._entries[i]
                self._packed = None
                return True
        return False

    def pages(self) -> int:
        """Pages the directory occupies (all scanned per search)."""
        if not self._entries:
            return 1
        dim = self._entries[0].domain.dim
        return pages_needed(len(self._entries) * entry_bytes(dim), self.page_size)

    def search(self, region: MInterval) -> SearchResult:
        if self._entries:
            region._check_dim(self._entries[0].domain)
            if self._packed is None:
                self._packed = pack_bounds(
                    [e.domain for e in self._entries],
                    self._entries[0].domain.dim,
                )
            lower, upper = pack_bounds([region], region.dim)[0]
            mask = intersecting_mask(self._packed, lower, upper)
            hits = [self._entries[i] for i in np.flatnonzero(mask)]
        else:
            hits = []
        _SEARCHES.inc()
        _NODES_VISITED.inc(self.pages())
        _ENTRIES_FOUND.inc(len(hits))
        return SearchResult(entries=hits, nodes_visited=self.pages())

    def entries(self) -> Iterator[IndexEntry]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)
