"""Core MDD model: geometry, cell types, MDD types and tiles."""

from repro.core.cells import BaseType, base_type, known_base_types
from repro.core.errors import (
    DimensionMismatchError,
    DomainError,
    GeometryError,
    OpenBoundError,
    QueryError,
    ReproError,
    StorageError,
    TilingError,
    TypeSystemError,
)
from repro.core.geometry import (
    MInterval,
    OPEN,
    covers_exactly,
    pairwise_disjoint,
    point_lower_than,
    total_cells,
)
from repro.core.mdd import Tile
from repro.core.mddtype import MDDType, mdd_type
from repro.core.order import (
    column_major_key,
    hilbert_key,
    row_major_key,
    tile_order,
    z_order_key,
)

__all__ = [
    "BaseType",
    "DimensionMismatchError",
    "DomainError",
    "GeometryError",
    "MDDType",
    "MInterval",
    "OPEN",
    "OpenBoundError",
    "QueryError",
    "ReproError",
    "StorageError",
    "Tile",
    "TilingError",
    "TypeSystemError",
    "base_type",
    "column_major_key",
    "covers_exactly",
    "hilbert_key",
    "known_base_types",
    "mdd_type",
    "pairwise_disjoint",
    "point_lower_than",
    "row_major_key",
    "tile_order",
    "total_cells",
    "z_order_key",
]
