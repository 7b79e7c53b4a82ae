"""Tests for MOLAP roll-up (aggregate_by_category, paper Figure 3)."""

import numpy as np
import pytest

from repro.bench.query import reference_group_by
from repro.core.errors import QueryError
from repro.core.mddtype import mdd_type
from repro.index.zonemap import AGG_FUNCS
from repro.query.engine import QueryEngine
from repro.query.olap import aggregate_by_category
from repro.storage.tilestore import Database
from repro.tiling.aligned import RegularTiling
from repro.tiling.directional import DirectionalTiling, category_intervals

CUBE = mdd_type("Sales", "ulong", "[1:60,1:100]")
PARTITIONS = {
    0: (1, 27, 42, 60),                       # 3 product classes
    1: (1, 27, 35, 41, 59, 73, 89, 97, 100),  # 8 districts
}


def _spans(obj):
    """PARTITIONS as the GROUP BY spec ``group_by_query`` takes."""
    domain = obj.current_domain
    return {
        axis: category_intervals(
            bounds, domain.lowest[axis], domain.highest[axis]
        )
        for axis, bounds in PARTITIONS.items()
    }


def _materialized(obj, op="add_cells"):
    """The roll-up over PARTITIONS by materialize-then-reduce (the
    bench's reference): ``(values, timing)``."""
    return reference_group_by(obj, obj.current_domain, op, _spans(obj))


@pytest.fixture()
def cube():
    db = Database()
    obj = db.create_object("cubes", CUBE, "sales")
    data = np.arange(6000, dtype=np.uint32).reshape(60, 100)
    obj.load_array(data, DirectionalTiling(PARTITIONS, 16 * 1024), origin=(1, 1))
    return obj, data


class TestRollUp:
    def test_shape_matches_category_counts(self, cube):
        obj, _data = cube
        rollup = aggregate_by_category(obj, PARTITIONS)
        assert rollup.values.shape == (3, 8)
        assert len(rollup.categories[0]) == 3
        assert len(rollup.categories[1]) == 8

    def test_values_match_numpy(self, cube):
        obj, data = cube
        rollup = aggregate_by_category(obj, PARTITIONS, op="add_cells")
        # Class 2 x district 2: products 28..42, stores 28..35 (1-based).
        assert rollup.values[1, 1] == data[27:42, 27:35].sum()
        # Class 1 x district 1.
        assert rollup.values[0, 0] == data[0:27, 0:27].sum()

    def test_total_preserved(self, cube):
        obj, data = cube
        rollup = aggregate_by_category(obj, PARTITIONS, op="add_cells")
        assert rollup.values.sum() == data.sum()

    def test_avg_operation(self, cube):
        obj, data = cube
        rollup = aggregate_by_category(obj, PARTITIONS, op="avg_cells")
        assert rollup.values[2, 7] == pytest.approx(data[42:60, 97:100].mean())

    def test_unpartitioned_axis_single_category(self, cube):
        obj, data = cube
        rollup = aggregate_by_category(obj, {0: PARTITIONS[0]})
        assert rollup.values.shape == (3, 1)
        assert rollup.values[0, 0] == data[0:27, :].sum()

    def test_exact_reads_under_matching_tiling(self, cube):
        obj, _data = cube
        # materialized: every block read is tile-aligned.
        _values, timing = _materialized(obj)
        assert timing.cells_fetched == timing.cells_result

    def test_pushdown_answers_aligned_rollup_from_synopses(self, cube):
        obj, _data = cube
        # Aligned blocks are answered entirely from stored synopses —
        # zero decode, same values bitwise as materialize-then-reduce.
        rollup = aggregate_by_category(obj, PARTITIONS)
        baseline, _timing = _materialized(obj)
        assert rollup.timing.cells_fetched == 0
        assert rollup.timing.tiles_synopsis_answered > 0
        assert rollup.values.tobytes() == baseline.tobytes()

    def test_rollup_is_the_group_by_loop(self, cube):
        obj, _data = cube
        engine = QueryEngine(obj.database)
        for op in sorted(AGG_FUNCS):
            rollup = aggregate_by_category(obj, PARTITIONS, op)
            grouped = engine.group_by_query(
                obj, obj.current_domain, op, _spans(obj)
            )
            assert rollup.values.tobytes() == grouped.value.tobytes(), op
            assert rollup.categories == grouped.groups

    def test_regular_tiling_pays_amplification(self):
        db = Database()
        obj = db.create_object("cubes", CUBE, "sales_reg")
        data = np.arange(6000, dtype=np.uint32).reshape(60, 100)
        obj.load_array(data, RegularTiling(4096), origin=(1, 1))
        values, timing = _materialized(obj)
        assert timing.cells_fetched > timing.cells_result
        assert values.sum() == data.sum()  # still correct

    def test_lookup_by_point(self, cube):
        obj, data = cube
        rollup = aggregate_by_category(obj, PARTITIONS)
        assert rollup.lookup((30, 30)) == data[27:42, 27:35].sum()
        with pytest.raises(QueryError):
            rollup.lookup((1000, 1))

    def test_errors(self, cube):
        obj, _data = cube
        with pytest.raises(QueryError):
            aggregate_by_category(obj, PARTITIONS, op="median_cells")
        empty_db = Database()
        empty = empty_db.create_object("cubes", CUBE, "empty")
        with pytest.raises(QueryError):
            aggregate_by_category(empty, PARTITIONS)

    def test_struct_cells_rejected(self):
        db = Database()
        t = mdd_type("Vid", "rgb", "[0:9,0:9]")
        obj = db.create_object("v", t, "clip")
        obj.load_array(np.zeros((10, 10), dtype=t.base.dtype), RegularTiling(1024))
        with pytest.raises(QueryError):
            aggregate_by_category(obj, {0: (0, 4, 9)})
