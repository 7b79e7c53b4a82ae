"""What the spatial index on tiles stores and returns.

For each access to a multidimensional subinterval, the index
(:class:`~repro.index.rplustree.RPlusTreeIndex`) returns the tiles
intersected by the query region (Section 5), and how many index *node
pages* the search touched, so the engine can charge ``t_ix`` on the
simulated disk.
"""

from __future__ import annotations

from dataclasses import dataclass

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
