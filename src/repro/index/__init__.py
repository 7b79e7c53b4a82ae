"""The spatial index on tiles (an R+-tree-like tree) plus per-tile value
synopses (zone maps) for predicate pruning."""

from repro.index.base import IndexEntry, SearchResult, entry_bytes
from repro.index.rplustree import RPlusTreeIndex
from repro.index.zonemap import (
    CellPredicate,
    TilePruner,
    TileSynopsis,
    compute_synopsis,
    constant_synopsis,
    parse_predicate,
    synopsis_can_match,
)

__all__ = [
    "CellPredicate",
    "IndexEntry",
    "RPlusTreeIndex",
    "SearchResult",
    "TilePruner",
    "TileSynopsis",
    "compute_synopsis",
    "constant_synopsis",
    "entry_bytes",
    "parse_predicate",
    "synopsis_can_match",
]
