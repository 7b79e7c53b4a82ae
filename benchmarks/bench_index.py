"""Micro-benchmarks of the spatial index substrate.

Measures real Python time (pytest-benchmark) for R+-tree construction and
search, plus node-visit scaling against a flat directory — the quantity
``t_ix`` charges for.
"""

from __future__ import annotations



from conftest import write_result

from repro.bench.report import format_table
from repro.core.geometry import MInterval
from repro.index.base import IndexEntry, entry_bytes
from repro.index.rplustree import RPlusTreeIndex
from repro.storage.pages import pages_needed
from repro.tiling.aligned import RegularTiling


def grid_entries(extent, max_tile):
    domain = MInterval.from_shape((extent, extent))
    spec = RegularTiling(max_tile).tile(domain, 1)
    return [IndexEntry(tile, i) for i, tile in enumerate(spec.tiles)]


ENTRIES = grid_entries(512, 256)  # ~1k tiles
QUERY = MInterval.parse("[100:140,100:140]")


def inserted(entries, **options):
    """An index built as stores build theirs: one insert per tile."""
    index = RPlusTreeIndex(dim=2, **options)
    for entry in entries:
        index.insert(entry)
    return index


def test_bench_rplustree_incremental_insert(benchmark):
    index = benchmark(lambda: inserted(ENTRIES, max_entries=32))
    assert len(index) == len(ENTRIES)


def test_bench_rplustree_search(benchmark):
    index = inserted(ENTRIES, max_entries=32)
    result = benchmark(lambda: index.search(QUERY))
    want = {e.tile_id for e in ENTRIES if e.domain.intersects(QUERY)}
    assert {e.tile_id for e in result.entries} == want


def test_node_visit_scaling(benchmark):
    """R+-tree page visits grow ~logarithmically with tile count while
    the directory's grow linearly (the paper's extended-cube effect): a
    flat directory scans all of its pages, its entries' bytes in whole
    pages, per lookup."""
    rows = []
    point = MInterval.parse("[9:9,9:9]")
    for extent, max_tile in ((128, 256), (256, 256), (512, 256), (1024, 256)):
        entries = grid_entries(extent, max_tile)
        tree = inserted(entries, page_size=2048)
        tree_visits = tree.search(point).nodes_visited
        flat_visits = pages_needed(len(entries) * entry_bytes(2), 2048)
        rows.append([len(entries), tree_visits, flat_visits])
    assert rows[-1][1] < rows[-1][2]
    first, last = rows[0], rows[-1]
    assert last[2] / first[2] > last[1] / max(first[1], 1)
    tree_large = tree
    benchmark(lambda: tree_large.search(point))
    write_result(
        "index_scaling.txt",
        format_table(["Tiles", "R+-tree pages", "Directory pages"], rows,
                     title="Index page visits per point query"),
    )
