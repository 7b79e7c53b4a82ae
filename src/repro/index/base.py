"""Spatial index interface for tile lookup.

For each access to a multidimensional subinterval, the index returns the
tiles intersected by the query region (Section 5).  Implementations report
how many index *node pages* a search touched so the engine can charge
``t_ix`` on the simulated disk.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.core.geometry import MInterval


@dataclass(frozen=True)
class IndexEntry:
    """Leaf payload: a tile's spatial domain and its stable tile id."""

    domain: MInterval
    tile_id: int


@dataclass
class SearchResult:
    """Entries intersecting a query region plus the pages visited."""

    entries: list[IndexEntry]
    nodes_visited: int


class SpatialIndex(abc.ABC):
    """Maps query regions to the tiles they intersect."""

    @abc.abstractmethod
    def insert(self, entry: IndexEntry) -> None:
        """Add one tile entry."""

    @abc.abstractmethod
    def remove(self, tile_id: int) -> bool:
        """Drop a tile entry by id; returns False when absent."""

    @abc.abstractmethod
    def search(self, region: MInterval) -> SearchResult:
        """All entries whose domain intersects ``region``."""

    @abc.abstractmethod
    def entries(self) -> Iterator[IndexEntry]:
        """Iterate every stored entry (unspecified order)."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of stored entries."""

    def bulk_load(self, entries: Iterable[IndexEntry]) -> None:
        """Load many entries at once; default is repeated insert.

        Tree indexes override this with a packing build.
        """
        for entry in entries:
            self.insert(entry)


def entry_bytes(dim: int) -> int:
    """On-page footprint of one entry: ``2 d`` int32 bounds + int32 id."""
    return (2 * dim + 1) * 4


# ----------------------------------------------------------------------
# Vectorized bound arithmetic (the search hot path)
# ----------------------------------------------------------------------

def intersecting_mask(
    packed: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> np.ndarray:
    """Boolean mask of packed boxes intersecting ``[lower, upper]``.

    One batched comparison replaces a per-entry Python loop of
    :meth:`MInterval.intersects` calls — the index search hot path.
    """
    return np.logical_and(
        (packed[:, 0, :] <= upper).all(axis=1),
        (packed[:, 1, :] >= lower).all(axis=1),
    )
