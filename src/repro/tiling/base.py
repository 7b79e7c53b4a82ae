"""Tiling framework: strategy interface, tiling specs and grid helpers.

A tiling strategy runs in the two phases the paper describes (Section 5.2):
phase one computes a *tiling specification* — a partition of the spatial
domain into disjoint bounded intervals — from user parameters; phase two
(performed by the storage layer) copies cells together and stores each tile.
This module owns phase one's contract.

All strategies honour ``max_tile_size``: no produced tile exceeds that many
bytes (``MaxTileSize`` in the paper), ensuring tiles remain convenient units
of storage and transfer.
"""

from __future__ import annotations

import abc
import itertools
from typing import Iterator, Sequence

from repro.core.errors import TilingError
from repro.core.geometry import MInterval, covers_exactly

#: The paper's benchmark values; any positive byte count is accepted.
DEFAULT_MAX_TILE_SIZE = 128 * 1024

KB = 1024


class TilingSpec:
    """Phase-one output: a validated partition of a domain into tile domains.

    Iterable over its :class:`MInterval` elements; knows how to check the
    partition invariants (disjoint, exact cover, size bound).
    """

    def __init__(
        self,
        domain: MInterval,
        tiles: Sequence[MInterval],
        cell_size: int,
        max_tile_size: int,
    ) -> None:
        self.domain = domain
        self.tiles = tuple(tiles)
        self.cell_size = cell_size
        self.max_tile_size = max_tile_size

    def validate(self, check_size: bool = True) -> "TilingSpec":
        """Raise :class:`TilingError` unless the partition is sound."""
        if not self.tiles:
            raise TilingError(f"empty tiling for domain {self.domain}")
        if not covers_exactly(self.tiles, self.domain):
            raise TilingError(
                f"tiles do not partition {self.domain} exactly "
                f"({len(self.tiles)} tiles)"
            )
        if check_size:
            for tile in self.tiles:
                size = tile.cell_count * self.cell_size
                if size > self.max_tile_size:
                    raise TilingError(
                        f"tile {tile} has {size} bytes, exceeding "
                        f"MaxTileSize {self.max_tile_size}"
                    )
        return self

    @property
    def tile_count(self) -> int:
        return len(self.tiles)

    def tile_bytes(self) -> list[int]:
        """Byte size of each tile."""
        return [t.cell_count * self.cell_size for t in self.tiles]

    def average_tile_bytes(self) -> float:
        sizes = self.tile_bytes()
        return sum(sizes) / len(sizes)

    def __iter__(self) -> Iterator[MInterval]:
        return iter(self.tiles)

    def __len__(self) -> int:
        return len(self.tiles)

    def __repr__(self) -> str:
        return (
            f"TilingSpec({self.domain}, tiles={self.tile_count}, "
            f"max={self.max_tile_size}B)"
        )


class TilingStrategy(abc.ABC):
    """Computes tile partitions for spatial domains.

    Concrete strategies: aligned/regular, single-tile, cuts-along-direction,
    directional, areas-of-interest and statistic tiling.
    """

    def __init__(self, max_tile_size: int = DEFAULT_MAX_TILE_SIZE) -> None:
        if max_tile_size < 1:
            raise TilingError(f"max_tile_size must be positive, got {max_tile_size}")
        self.max_tile_size = max_tile_size

    @property
    def name(self) -> str:
        """Short human-readable strategy name for reports."""
        return type(self).__name__

    @abc.abstractmethod
    def partition(self, domain: MInterval, cell_size: int) -> list[MInterval]:
        """Compute the raw tile-domain list for a bounded domain."""

    def tile(self, domain: MInterval, cell_size: int) -> TilingSpec:
        """Compute and validate the tiling specification."""
        if not domain.is_bounded:
            raise TilingError(f"cannot tile open domain {domain}")
        if cell_size < 1:
            raise TilingError(f"cell_size must be positive, got {cell_size}")
        if cell_size > self.max_tile_size:
            raise TilingError(
                f"cell_size {cell_size} exceeds max_tile_size "
                f"{self.max_tile_size}: even one cell does not fit"
            )
        tiles = self.partition(domain, cell_size)
        return TilingSpec(domain, tiles, cell_size, self.max_tile_size).validate()


def grid_partition(
    domain: MInterval, tile_shape: Sequence[int]
) -> list[MInterval]:
    """Chop ``domain`` into an aligned grid of boxes of ``tile_shape``.

    The grid is anchored at the domain's lower corner; border tiles on the
    high side are smaller (the paper's border-tile effect).  Tiles come out
    in row-major order of their lowest vertex.
    """
    if len(tile_shape) != domain.dim:
        raise TilingError(
            f"tile shape of {len(tile_shape)} axes for dim-{domain.dim} domain"
        )
    for axis, edge in enumerate(tile_shape):
        if edge < 1:
            raise TilingError(f"axis {axis}: tile edge must be >= 1, got {edge}")
    axis_ranges: list[list[tuple[int, int]]] = []
    for l, u, edge in zip(domain.lowest, domain.highest, tile_shape):
        spans = [
            (start, min(start + edge - 1, u))
            for start in range(l, u + 1, edge)
        ]
        axis_ranges.append(spans)
    tiles: list[MInterval] = []
    for combo in itertools.product(*axis_ranges):
        lo = [span[0] for span in combo]
        hi = [span[1] for span in combo]
        tiles.append(MInterval(lo, hi))
    return tiles


def blocks_from_axis_breaks(
    domain: MInterval, breaks_per_axis: Sequence[Sequence[int]]
) -> list[MInterval]:
    """Grid a domain using explicit per-axis cut coordinates.

    ``breaks_per_axis[i]`` lists interior hyperplane positions ``c`` cutting
    axis ``i`` between ``c - 1`` and ``c``; bounds of the domain are implied
    and must not be repeated.  Blocks come out in row-major order.
    """
    if len(breaks_per_axis) != domain.dim:
        raise TilingError("one break list per axis required")
    axis_ranges: list[list[tuple[int, int]]] = []
    for axis, (l, u) in enumerate(zip(domain.lowest, domain.highest)):
        cuts = sorted(set(breaks_per_axis[axis]))
        for c in cuts:
            if not l < c <= u:
                raise TilingError(
                    f"axis {axis}: cut {c} outside interior ({l}, {u}]"
                )
        edges = [l, *cuts, u + 1]
        axis_ranges.append(
            [(edges[k], edges[k + 1] - 1) for k in range(len(edges) - 1)]
        )
    blocks: list[MInterval] = []
    for combo in itertools.product(*axis_ranges):
        lo = [span[0] for span in combo]
        hi = [span[1] for span in combo]
        blocks.append(MInterval(lo, hi))
    return blocks
