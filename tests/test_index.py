"""Unit tests for the spatial index (the R+-tree)."""

import numpy as np
import pytest

from repro.core.errors import IndexError_
from repro.core.geometry import MInterval
from repro.index.base import IndexEntry, entry_bytes
from repro.index.rplustree import RPlusTreeIndex
from repro.storage.pages import pages_needed
from repro.tiling.aligned import RegularTiling


def grid_entries(domain_text="[0:99,0:99]", max_tile=256, cell_size=1):
    domain = MInterval.parse(domain_text)
    spec = RegularTiling(max_tile).tile(domain, cell_size)
    return [IndexEntry(tile, i) for i, tile in enumerate(spec.tiles)]


def inserted(entries, **options):
    """An index built as stores build theirs: one insert per tile."""
    index = RPlusTreeIndex(dim=entries[0].domain.dim, **options)
    for entry in entries:
        index.insert(entry)
    return index


def brute_force(entries, region):
    return {e.tile_id for e in entries if e.domain.intersects(region)}


class TestEntryBytes:
    def test_grows_with_dim(self):
        assert entry_bytes(1) == 12
        assert entry_bytes(3) == 28


class TestRPlusTreeStructure:
    def test_inserts_build_a_multilevel_tree(self):
        index = inserted(grid_entries(), max_entries=8)
        assert index.height >= 2
        assert sorted(e.tile_id for e in index.entries()) == [
            e.tile_id for e in grid_entries()
        ]
        assert len(index) == len(grid_entries())

    def test_small_load_stays_single_leaf(self):
        index = inserted(grid_entries(max_tile=5000), max_entries=16)
        assert index.height == 1

    def test_capacity_from_page_size(self):
        index = RPlusTreeIndex(dim=3, page_size=8192)
        assert index.max_entries == 8192 // entry_bytes(3)

    def test_invalid_parameters(self):
        with pytest.raises(IndexError_):
            RPlusTreeIndex(dim=0)
        with pytest.raises(IndexError_):
            RPlusTreeIndex(dim=2, max_entries=1)

    def test_dim_mismatch_rejected(self):
        index = RPlusTreeIndex(dim=2)
        with pytest.raises(IndexError_):
            index.insert(IndexEntry(MInterval.parse("[0:9]"), 1))

    def test_unbounded_entry_rejected(self):
        index = RPlusTreeIndex(dim=1)
        with pytest.raises(IndexError_):
            index.insert(IndexEntry(MInterval.parse("[0:*]"), 1))

    def test_entries_iteration_deduplicates(self):
        entries = grid_entries()
        index = inserted(entries, max_entries=8)
        listed = list(index.entries())
        assert len(listed) == len(entries)
        assert {e.tile_id for e in listed} == {e.tile_id for e in entries}


class TestRPlusTreeSearch:
    @pytest.mark.parametrize("load", ["incremental", "reversed"])
    def test_matches_brute_force_on_grid(self, load):
        entries = grid_entries()
        index = inserted(entries if load == "incremental" else entries[::-1], max_entries=8)
        rng = np.random.default_rng(11)
        for _ in range(50):
            lo = rng.integers(0, 90, size=2)
            hi = lo + rng.integers(1, 30, size=2)
            region = MInterval(lo.tolist(), np.minimum(hi, 99).tolist())
            result = index.search(region)
            assert {e.tile_id for e in result.entries} == brute_force(
                entries, region
            ), region

    def test_matches_brute_force_on_random_disjoint_boxes(self):
        rng = np.random.default_rng(5)
        # Disjoint boxes via a coarse grid with random subboxes.
        entries = []
        tile_id = 0
        for gx in range(10):
            for gy in range(10):
                if rng.random() < 0.3:
                    continue  # gaps: partial coverage
                x0 = gx * 10 + int(rng.integers(0, 3))
                y0 = gy * 10 + int(rng.integers(0, 3))
                x1 = gx * 10 + int(rng.integers(5, 10))
                y1 = gy * 10 + int(rng.integers(5, 10))
                entries.append(IndexEntry(MInterval([x0, y0], [x1, y1]), tile_id))
                tile_id += 1
        index = inserted(entries, max_entries=6)
        for _ in range(50):
            lo = rng.integers(0, 95, size=2)
            hi = lo + rng.integers(1, 40, size=2)
            region = MInterval(lo.tolist(), np.minimum(hi, 99).tolist())
            got = {e.tile_id for e in index.search(region).entries}
            assert got == brute_force(entries, region)

    def test_nodes_visited_less_than_directory_pages(self):
        # A flat directory scans every page of its entries per search.
        entries = grid_entries(max_tile=64)  # many tiles
        tree = inserted(entries, page_size=512)
        directory_pages = pages_needed(len(entries) * entry_bytes(2), 512)
        small_query = MInterval.parse("[5:6,5:6]")
        assert tree.search(small_query).nodes_visited < directory_pages

    def test_search_empty_tree(self):
        index = RPlusTreeIndex(dim=2)
        result = index.search(MInterval.parse("[0:9,0:9]"))
        assert result.entries == []

    def test_point_query(self):
        entries = grid_entries()
        index = inserted(entries, max_entries=8)
        point = MInterval.parse("[42:42,73:73]")
        hits = index.search(point).entries
        assert len(hits) == 1
        assert hits[0].domain.contains_point((42, 73))


class TestRPlusTreeMutation:
    def test_incremental_growth_with_splits(self):
        index = RPlusTreeIndex(dim=1, max_entries=4)
        for i in range(100):
            index.insert(IndexEntry(MInterval([i * 10], [i * 10 + 9]), i))
        assert len(index) == 100
        assert index.height > 1
        got = {e.tile_id for e in index.search(MInterval([250], [420])).entries}
        assert got == set(range(25, 43))
