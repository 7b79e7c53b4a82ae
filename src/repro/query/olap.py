"""MOLAP roll-up: sub-aggregation over category hierarchies (Figure 3).

The paper motivates directional tiling with data cubes whose dimensions
carry hierarchies: "cells corresponding to each of those parents have to
be accessed simultaneously for computation of a sub-aggregation".
``aggregate_by_category`` computes *all* such sub-aggregations — one
aggregate per cell of the category cross product — producing a rolled-up
cube (cf. Zhao, Deshpande & Naughton's array-based aggregation [14]).

When the object is directionally tiled along the same partitions, every
block read is tile-aligned (read amplification 1.0) and the roll-up
touches each byte exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.core.errors import QueryError
from repro.index.zonemap import check_aggregate
from repro.query.timing import QueryTiming
from repro.tiling.directional import category_intervals

if TYPE_CHECKING:
    from repro.storage.tilestore import StoredMDD


@dataclass
class RollUp:
    """All sub-aggregates over a category cross product.

    ``values[i_1, ..., i_d]`` is the aggregate over category ``i_k`` of
    axis ``k``; ``categories[k]`` lists the closed coordinate spans the
    indices refer to.
    """

    values: np.ndarray
    categories: tuple[tuple[tuple[int, int], ...], ...]
    op: str
    timing: QueryTiming

    def category_of(self, axis: int, coordinate: int) -> int:
        """Index of the category containing ``coordinate`` on ``axis``."""
        for index, (low, high) in enumerate(self.categories[axis]):
            if low <= coordinate <= high:
                return index
        raise QueryError(
            f"coordinate {coordinate} outside every category of axis {axis}"
        )

    def lookup(self, point: Sequence[int]) -> float:
        """The aggregate of the categories containing ``point``."""
        index = tuple(
            self.category_of(axis, coordinate)
            for axis, coordinate in enumerate(point)
        )
        return float(self.values[index])


def aggregate_by_category(
    obj: "StoredMDD",
    partitions: Mapping[int, Sequence[int]],
    op: str = "add_cells",
) -> RollUp:
    """Compute one aggregate per category combination of the partitions.

    ``partitions`` uses the paper's boundary notation per axis (see
    :func:`~repro.tiling.directional.category_intervals`); axes without a
    partition form a single category spanning the full extent.

    All category blocks run as one GROUP BY pass of the planned
    engine's per-tile partial aggregation
    (:meth:`~repro.storage.tilestore.StoredMDD.aggregate_push` with
    ``groups``): no block is materialized, synopses answer tiles inside
    a block with zero decode, a tile straddling blocks is decoded once,
    and the exactness guards guarantee the values match the
    materialized reduction bitwise.
    """
    check_aggregate(op, obj)
    domain = obj.current_domain
    if domain is None:
        raise QueryError(f"object {obj.name!r} holds no tiles yet")
    spans_per_axis: list[list[tuple[int, int]]] = []
    for axis in range(domain.dim):
        low = domain.lowest[axis]
        high = domain.highest[axis]
        boundaries = partitions.get(axis)
        if boundaries is None:
            spans_per_axis.append([(low, high)])
        else:
            spans_per_axis.append(category_intervals(boundaries, low, high))

    values, timing, _pushed = obj.aggregate_push(
        domain, op, groups=spans_per_axis
    )
    return RollUp(
        values=values,
        categories=tuple(tuple(spans) for spans in spans_per_axis),
        op=op,
        timing=timing,
    )
