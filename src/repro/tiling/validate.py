"""Standalone validators and metrics for tiling specifications.

These helpers quantify how well a tiling fits an access workload — the
quality criteria of Section 2: bytes read beyond the query region, number
of tiles touched, page fill.  Benchmarks and tests use them to explain
*why* one strategy beats another, independent of any timing model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.errors import TilingError
from repro.core.geometry import MInterval, fills, pairwise_disjoint


def check_partition(domain: MInterval, tiles: Sequence[MInterval]) -> None:
    """Raise :class:`TilingError` unless ``tiles`` exactly partition
    ``domain`` (disjoint, contained, gap-free)."""
    if not tiles:
        raise TilingError("no tiles")
    if not pairwise_disjoint(tiles):
        raise TilingError("tiles overlap")
    if not fills(tiles, domain):
        raise TilingError(f"tiles do not exactly cover {domain}")


@dataclass(frozen=True)
class AccessCost:
    """Static cost of answering one range query on a given tiling."""

    query: MInterval
    tiles_touched: int
    cells_read: int
    cells_needed: int

    @property
    def cells_wasted(self) -> int:
        """Cells fetched that lie outside the query region."""
        return self.cells_read - self.cells_needed

    @property
    def read_amplification(self) -> float:
        """``cells_read / cells_needed`` — 1.0 is the paper's optimum
        (tiles intersected correspond exactly to the query range)."""
        return self.cells_read / self.cells_needed


def access_cost(
    tiles: Iterable[MInterval], query: MInterval
) -> AccessCost:
    """Static analysis: tiles touched and cells fetched for one query.

    Tiles are the unit of access (Section 2): every intersected tile is
    read in full, so ``cells_read`` sums whole-tile volumes.
    """
    touched = 0
    cells_read = 0
    for tile in tiles:
        if tile.intersects(query):
            touched += 1
            cells_read += tile.cell_count
    if touched == 0:
        raise TilingError(f"query {query} intersects no tile")
    return AccessCost(
        query=query,
        tiles_touched=touched,
        cells_read=cells_read,
        cells_needed=query.cell_count,
    )


def workload_amplification(
    tiles: Sequence[MInterval], queries: Sequence[MInterval]
) -> float:
    """Mean read amplification over a query workload."""
    if not queries:
        raise TilingError("empty workload")
    total = 0.0
    for query in queries:
        total += access_cost(tiles, query).read_amplification
    return total / len(queries)


def is_aligned(tiles: Sequence[MInterval], domain: MInterval) -> bool:
    """True when the tiling is *aligned* in the paper's sense: the tiles are
    exactly the grid induced by full-domain hyperplane cuts.

    Collects each axis' cut positions from all tile bounds and checks that
    the tiles coincide with the resulting grid — so any partially aligned
    or nonaligned scheme returns False.
    """
    check_partition(domain, tiles)
    cuts: list[set[int]] = [set() for _ in range(domain.dim)]
    for tile in tiles:
        for axis in range(domain.dim):
            lo = tile.lower[axis]
            hi = tile.upper[axis]
            assert lo is not None and hi is not None
            if lo > domain.lower[axis]:  # type: ignore[operator]
                cuts[axis].add(lo)
            if hi < domain.upper[axis]:  # type: ignore[operator]
                cuts[axis].add(hi + 1)
    grid_cells = 1
    for axis in range(domain.dim):
        grid_cells *= len(cuts[axis]) + 1
    return grid_cells == len(tiles)
