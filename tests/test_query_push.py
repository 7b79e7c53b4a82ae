"""Query engine v2: partial-aggregate pushdown identity, plans, memory.

The contract under test: the planned pushdown path (per-tile partials on
the pipeline workers, combined in tile-id order) is **bitwise-identical**
to materialize-then-reduce (the bench's reference, beside the numpy
brute force) for every aggregate and GROUP BY query — including NaN
bookkeeping, the integer-overflow eligibility guards, default-filled
holes, and cell predicates — while never
materializing the query box (peak decoded bytes bounded by the worker
count times one tile).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bench.query import materialize_reference, reference_group_by
from repro.core.errors import QueryError
from repro.core.geometry import MInterval
from repro.core.mdd import Tile
from repro.core.mddtype import mdd_type
from repro.index.zonemap import (
    AGG_FUNCS,
    CellPredicate,
    compute_synopsis,
)
from repro.query import rasql
from repro.query.engine import QueryEngine
from repro.shard import ShardedDatabase
from repro.storage.tilestore import Database
from repro.tiling.base import grid_partition
from tests.reduce_oracle import partial_aggregate_eligible

OPS = tuple(sorted(AGG_FUNCS))

#: base-type name -> numpy dtype for the property sweep.
DTYPES = {"long": np.int32, "double": np.float64, "char": np.uint8}


def _build(
    data: np.ndarray,
    base: str,
    tile_shape,
    io_workers: int = 1,
    drop_tile: int = -1,
):
    """An object tiled by ``tile_shape`` over ``data`` (origin 0).

    ``drop_tile`` >= 0 skips that tile (modulo the tile count), leaving a
    default-filled hole in the stored object.
    """
    shape = data.shape
    domain = MInterval.from_shape(shape)
    db = Database(io_workers=io_workers)
    obj = db.create_object(
        "c", mdd_type("T", base, str(domain)), "o"
    )
    boxes = list(grid_partition(domain, tile_shape))
    kept = [
        box
        for i, box in enumerate(boxes)
        # never drop the only tile: an empty object has no domain
        if drop_tile < 0 or len(boxes) == 1 or i != drop_tile % len(boxes)
    ]
    obj.write_tiles(
        [Tile(box, data[box.to_slices(domain.lowest)]) for box in kept]
    )
    composed = np.zeros(shape, dtype=data.dtype)
    for box in kept:
        s = box.to_slices(domain.lowest)
        composed[s] = data[s]
    return db, obj, composed


def _brute(composed: np.ndarray, op: str, predicate=None):
    """The materialized reduction the engine must reproduce bitwise."""
    if predicate is not None:
        composed = np.where(
            predicate.mask(composed),
            composed,
            np.zeros((), dtype=composed.dtype),
        )
    return AGG_FUNCS[op](composed)


def _v1(obj, region, op, predicate=None):
    """The materialize-then-reduce reference value of one box."""
    (value,), _timing = materialize_reference(obj, [region], op, predicate)
    return value


def _same(a, b) -> bool:
    """Bitwise scalar identity: exact repr, NaN-safe, type-separating."""
    return repr(a) == repr(b)


# ----------------------------------------------------------------------
# Deterministic identity
# ----------------------------------------------------------------------

class TestPushdownIdentity:
    def _engine(self, data, base, tile_shape, **kw):
        db, obj, composed = _build(data, base, tile_shape, **kw)
        return QueryEngine(db), obj, composed

    def test_int_all_ops_match_v1_and_numpy(self):
        data = (np.arange(16 * 24, dtype=np.int32) % 97 - 48).reshape(16, 24)
        engine, obj, composed = self._engine(data, "long", (5, 7))
        region = obj.current_domain
        for op in OPS:
            push = engine.aggregate_query(obj, region, op)
            assert push.plan is not None and push.plan.pushed, op
            assert _same(push.value, _v1(obj, region, op)), op
            assert _same(push.value, _brute(composed, op)), op

    def test_predicated_ops_match_v1_and_numpy(self):
        data = (np.arange(16 * 24, dtype=np.int32) % 97 - 48).reshape(16, 24)
        engine, obj, composed = self._engine(data, "long", (5, 7))
        region = MInterval.parse("[2:13,3:20]")
        predicate = CellPredicate(">", 11)
        sub = composed[2:14, 3:21]
        for op in OPS:
            push = engine.aggregate_query(obj, region, op, predicate=predicate)
            assert push.plan.pushed, op
            assert _same(push.value, _v1(obj, region, op, predicate)), op
            assert _same(push.value, _brute(sub, op, predicate)), op

    def test_float_add_avg_fall_back_min_max_count_push(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(12, 12))
        data[3, 4] = np.nan
        data[8, 1] = np.nan
        engine, obj, composed = self._engine(data, "double", (4, 6))
        region = obj.current_domain
        for op in OPS:
            push = engine.aggregate_query(obj, region, op)
            expect_pushed = op in ("count_cells", "min_cells", "max_cells")
            assert push.plan.pushed is expect_pushed, op
            assert _same(push.value, _v1(obj, region, op)), op
            assert _same(push.value, _brute(composed, op)), op

    def test_hole_contributes_default_cells(self):
        data = (np.arange(100, dtype=np.int32) + 1).reshape(10, 10)
        engine, obj, composed = self._engine(
            data, "long", (5, 5), drop_tile=2
        )
        assert (composed == 0).any()  # the hole really exists
        region = obj.current_domain
        for op in OPS:
            push = engine.aggregate_query(obj, region, op)
            assert _same(push.value, _v1(obj, region, op)), op
            assert _same(push.value, _brute(composed, op)), op

    def test_group_by_matches_v1_and_numpy(self):
        data = (np.arange(18 * 16, dtype=np.int32) % 53 - 26).reshape(18, 16)
        engine, obj, composed = self._engine(data, "long", (6, 5))
        spec = {0: [(0, 5), (6, 11), (12, 17)], 1: [(0, 7), (8, 15)]}
        for op in OPS:
            push = engine.group_by_query(obj, obj.current_domain, op, spec)
            v1, _timing = reference_group_by(
                obj, obj.current_domain, op, spec
            )
            assert push.value.shape == (3, 2)
            assert push.groups == (
                ((0, 5), (6, 11), (12, 17)), ((0, 7), (8, 15))
            )
            assert push.value.tobytes() == v1.tobytes(), op
            expected = np.zeros((3, 2))
            for i, (r0, r1) in enumerate(spec[0]):
                for j, (c0, c1) in enumerate(spec[1]):
                    expected[i, j] = _brute(
                        composed[r0:r1 + 1, c0:c1 + 1], op
                    )
            assert push.value.tobytes() == expected.tobytes(), op

    def test_group_by_ungrouped_axis_keeps_singleton(self):
        data = np.arange(64, dtype=np.int32).reshape(8, 8)
        engine, obj, _ = self._engine(data, "long", (4, 4))
        result = engine.group_by_query(
            obj, obj.current_domain, "add_cells", {0: [(0, 3), (4, 7)]}
        )
        assert result.value.shape == (2, 1)
        assert result.value[0, 0] == data[:4].sum()
        assert result.value[1, 0] == data[4:].sum()


class TestGroupByHonoursTheTrim:
    """A grouped axis's spans are clipped to the query region: the
    values are sums over the trimmed box, not over the spans alone."""

    DATA = np.arange(900, dtype=np.int32).reshape(30, 30)

    def _objects(self):
        """The same 30x30 cube on one store and on 2 and 4 shards."""
        domain = MInterval.from_shape(self.DATA.shape)
        mdd = mdd_type("T", "long", str(domain))
        tiles = [
            Tile(box, self.DATA[box.to_slices(domain.lowest)])
            for box in grid_partition(domain, (7, 8))
        ]
        for root in (Database(), ShardedDatabase(2), ShardedDatabase(4)):
            obj = root.create_object("cubes", mdd, "c")
            obj.write_tiles(tiles)
            yield QueryEngine(root), obj

    def test_one_grouped_axis(self):
        region = MInterval.parse("[10:19,0:9]")
        for engine, obj in self._objects():
            result = engine.group_by_query(
                obj, region, "add_cells", {0: [(0, 29)]}
            )
            assert result.region == region
            assert result.groups == (((10, 19),), ((0, 9),))
            assert result.value.tolist() == [[self.DATA[10:20, 0:10].sum()]]
            assert result.value[0, 0] == 43950

    def test_two_grouped_axes(self):
        region = MInterval.parse("[10:19,3:26]")
        spec = {0: [(0, 14), (15, 29)], 1: [(0, 9), (10, 29)]}
        expected = np.array(
            [
                [self.DATA[10:15, 3:10].sum(), self.DATA[10:15, 10:27].sum()],
                [self.DATA[15:20, 3:10].sum(), self.DATA[15:20, 10:27].sum()],
            ],
            dtype=np.float64,
        )
        for engine, obj in self._objects():
            result = engine.group_by_query(obj, region, "add_cells", spec)
            assert result.groups == (
                ((10, 14), (15, 19)), ((3, 9), (10, 26))
            )
            assert result.value.tobytes() == expected.tobytes()
            assert result.value.sum() == self.DATA[10:20, 3:27].sum()

    def test_through_rasql(self):
        for engine, _obj in self._objects():
            (result,) = rasql.execute(
                engine,
                "SELECT add_cells(c[10:19,0:9]) FROM cubes AS c "
                "GROUP BY dim0(0:29)",
            )
            assert result.value.tolist() == [[43950.0]]
            assert result.groups == (((10, 19),), ((0, 9),))

    def test_span_missing_the_region_raises(self):
        region = MInterval.parse("[10:19,0:9]")
        for engine, obj in self._objects():
            with pytest.raises(QueryError, match=r"20:29 on axis 0"):
                engine.group_by_query(
                    obj, region, "add_cells", {0: [(10, 19), (20, 29)]}
                )


# ----------------------------------------------------------------------
# Eligibility guard edges (overflow, NaN bookkeeping lives in synopses)
# ----------------------------------------------------------------------

class TestPartialEligibility:
    I64 = np.dtype(np.int64)

    def test_count_min_max_always(self):
        for op in ("count_cells", "min_cells", "max_cells"):
            assert partial_aggregate_eligible(op, self.I64, [None], 5, 0, 10)
            assert partial_aggregate_eligible(
                op, np.dtype(np.float64), [], 0, 0.0, 4
            )

    def test_float_add_avg_never(self):
        syn = compute_synopsis(np.array([1.0, 2.0]))
        for op in ("add_cells", "avg_cells"):
            assert not partial_aggregate_eligible(
                op, np.dtype(np.float64), [syn], 0, 0.0, 2
            )

    def test_int_add_overflow_guard(self):
        big = compute_synopsis(np.array([2 ** 62], dtype=np.int64))
        assert not partial_aggregate_eligible(
            "add_cells", self.I64, [big], 0, 0, 4
        )
        small = compute_synopsis(np.array([3], dtype=np.int64))
        assert partial_aggregate_eligible(
            "add_cells", self.I64, [small], 0, 0, 4
        )

    def test_masked_counts_default_magnitude_without_uncovered(self):
        syn = compute_synopsis(np.array([1], dtype=np.int64))
        huge_default = 2 ** 62
        # unmasked, fully covered: the default never materializes
        assert partial_aggregate_eligible(
            "add_cells", self.I64, [syn], 0, huge_default, 4
        )
        # masked: failing cells carry the default inside tiles
        assert not partial_aggregate_eligible(
            "add_cells", self.I64, [syn], 0, huge_default, 4, masked=True
        )

    def test_missing_synopsis_blocks_add(self):
        syn = compute_synopsis(np.array([1, 2], dtype=np.int64))
        assert not partial_aggregate_eligible(
            "add_cells", self.I64, [syn, None], 0, 0, 4
        )


# ----------------------------------------------------------------------
# Peak working memory: one tile, never the box
# ----------------------------------------------------------------------

class TestPeakMemoryBound:
    def test_peak_bounded_by_one_tile(self):
        data = (np.arange(64 * 64, dtype=np.int32) % 101).reshape(64, 64)
        db, obj, composed = _build(data, "long", (8, 8), io_workers=4)
        engine = QueryEngine(db)
        # a predicate no synopsis can short-circuit: every tile decodes
        predicate = CellPredicate(">", -1)
        result = engine.aggregate_query(
            obj, obj.current_domain, "add_cells", predicate=predicate
        )
        timing = result.timing
        tile_bytes = 8 * 8 * 4
        box_bytes = composed.nbytes
        assert result.plan.pushed
        assert timing.tiles_partial_agg == 64
        assert timing.peak_partial_bytes == tile_bytes
        assert timing.peak_partial_bytes < box_bytes / 8
        assert _same(result.value, _brute(composed, "add_cells", predicate))

    def test_serial_peak_is_one_tile(self):
        data = np.arange(32 * 32, dtype=np.int32).reshape(32, 32)
        db, obj, _ = _build(data, "long", (8, 8), io_workers=1)
        engine = QueryEngine(db)
        result = engine.aggregate_query(
            obj, obj.current_domain, "count_cells",
            predicate=CellPredicate(">=", 0),
        )
        assert result.timing.peak_partial_bytes == 8 * 8 * 4

    def test_timing_counters_roll_up(self):
        data = np.arange(32 * 32, dtype=np.int32).reshape(32, 32)
        db, obj, _ = _build(data, "long", (8, 8), io_workers=2)
        engine = QueryEngine(db)
        result = engine.group_by_query(
            obj, obj.current_domain, "add_cells",
            {0: [(0, 15), (16, 31)]},
            predicate=CellPredicate(">", 3),
        )
        # adds sum tiles_partial_agg, max peak_partial_bytes
        assert result.timing.tiles_partial_agg > 0
        assert result.timing.peak_partial_bytes == 8 * 8 * 4


# ----------------------------------------------------------------------
# Plan rendering
# ----------------------------------------------------------------------

class TestPlanText:
    def _result(self, **kw):
        data = (np.arange(144, dtype=np.int32) % 31).reshape(12, 12)
        db, obj, _ = _build(data, "long", (4, 4))
        engine = QueryEngine(db)
        return engine.aggregate_query(obj, obj.current_domain, "add_cells", **kw)

    def test_pushdown_plan_stages(self):
        text = self._result().plan.format()
        assert "QUERY PLAN (aggregate add_cells, pushdown)" in text
        assert "scan" in text
        assert "partial-aggregate" in text
        assert "combine" in text
        assert "project" in text
        assert "tile-id order" in text

    def test_predicate_adds_prune_stage(self):
        text = self._result(predicate=CellPredicate(">", 5)).plan.format()
        assert "prune" in text
        assert "partial-aggregate" in text

    def test_materialize_plan(self):
        # materialize is never planned, only executed: float add_cells
        # fails the exactness guards and runs the inline fallback
        data = np.linspace(0.0, 1.0, 144).reshape(12, 12)
        db, obj, _ = _build(data, "double", (4, 4))
        result = QueryEngine(db).aggregate_query(
            obj, obj.current_domain, "add_cells"
        )
        header, *stages = result.plan.format().splitlines()
        assert header.startswith("QUERY PLAN (aggregate add_cells, ")
        assert "materialize" in header
        assert any(line.split()[0] == "materialize" for line in stages)
        assert "partial-aggregate" not in "\n".join(stages)
        assert "pushdown" not in result.plan.as_dict()

    def test_fallback_is_visible(self):
        data = np.linspace(0.0, 1.0, 144).reshape(12, 12)
        db, obj, _ = _build(data, "double", (4, 4))
        engine = QueryEngine(db)
        result = engine.aggregate_query(obj, obj.current_domain, "add_cells")
        assert not result.plan.pushed
        assert "exactness fallback" in result.plan.format()

    def test_group_by_plan_names_groups(self):
        data = np.arange(64, dtype=np.int32).reshape(8, 8)
        db, obj, _ = _build(data, "long", (4, 4))
        engine = QueryEngine(db)
        result = engine.group_by_query(
            obj, obj.current_domain, "add_cells", {0: [(0, 3), (4, 7)]}
        )
        text = result.plan.format()
        assert "QUERY PLAN (group-by add_cells, pushdown)" in text
        assert "2 groups" in text


# ----------------------------------------------------------------------
# Property sweep: random tilings, dtypes, predicates, group intervals
# ----------------------------------------------------------------------

@st.composite
def aggregate_cases(draw):
    rows = draw(st.integers(4, 14))
    cols = draw(st.integers(4, 12))
    base = draw(st.sampled_from(sorted(DTYPES)))
    dtype = DTYPES[base]
    tile_shape = (
        draw(st.integers(1, rows)), draw(st.integers(1, cols))
    )
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    if dtype == np.float64:
        data = rng.normal(scale=10.0, size=(rows, cols))
        for _ in range(draw(st.integers(0, 3))):
            data[
                draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
            ] = np.nan
    elif dtype == np.uint8:
        data = rng.integers(0, 250, size=(rows, cols)).astype(dtype)
    else:
        data = rng.integers(-5000, 5000, size=(rows, cols)).astype(dtype)
    drop = draw(st.sampled_from([-1, -1, 0, 3]))
    op = draw(st.sampled_from(OPS))
    predicate = None
    if draw(st.booleans()):
        pred_op = draw(st.sampled_from(("<", "<=", ">", ">=", "=", "!=")))
        predicate = CellPredicate(pred_op, draw(st.integers(-100, 200)))
    # a random in-bounds query box
    r0 = draw(st.integers(0, rows - 1))
    r1 = draw(st.integers(r0, rows - 1))
    c0 = draw(st.integers(0, cols - 1))
    c1 = draw(st.integers(c0, cols - 1))
    region = MInterval((r0, c0), (r1, c1))
    return data, base, tile_shape, drop, op, predicate, region


@given(aggregate_cases())
@settings(max_examples=80, deadline=None)
def test_property_aggregate_matches_numpy(case):
    data, base, tile_shape, drop, op, predicate, region = case
    db, obj, composed = _build(data, base, tile_shape, drop_tile=drop)
    # dropping a tile can shrink the current domain; query inside it
    region = region.intersection(obj.current_domain)
    assume(region is not None)
    engine = QueryEngine(db)
    push = engine.aggregate_query(obj, region, op, predicate=predicate)
    # composed is indexed from the origin-0 full domain, not the
    # (possibly shrunken) current domain
    origin = MInterval.from_shape(data.shape).lowest
    sub = composed[region.to_slices(origin)]
    assert _same(push.value, _v1(obj, region, op, predicate))
    assert _same(push.value, _brute(sub, op, predicate))


@st.composite
def group_by_cases(draw):
    rows = draw(st.integers(4, 12))
    cols = draw(st.integers(4, 12))
    base = draw(st.sampled_from(sorted(DTYPES)))
    dtype = DTYPES[base]
    tile_shape = (draw(st.integers(1, rows)), draw(st.integers(1, cols)))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    if dtype == np.float64:
        data = rng.normal(scale=10.0, size=(rows, cols))
        if draw(st.booleans()):
            data[0, 0] = np.nan
    else:
        data = rng.integers(0, 200, size=(rows, cols)).astype(dtype)
    op = draw(st.sampled_from(OPS))

    def spans(extent):
        cuts = sorted(
            draw(
                st.sets(st.integers(1, extent - 1), min_size=0, max_size=3)
            )
        )
        edges = [0, *cuts, extent]
        return [
            (edges[i], edges[i + 1] - 1) for i in range(len(edges) - 1)
        ]

    spec = {}
    if draw(st.booleans()):
        spec[0] = spans(rows)
    if draw(st.booleans()) or not spec:
        spec[1] = spans(cols)
    predicate = None
    if draw(st.booleans()):
        predicate = CellPredicate(
            draw(st.sampled_from(("<", ">", "!="))),
            draw(st.integers(0, 150)),
        )
    return data, base, tile_shape, op, spec, predicate


@given(group_by_cases())
@settings(max_examples=60, deadline=None)
def test_property_group_by_matches_numpy(case):
    data, base, tile_shape, op, spec, predicate = case
    db, obj, composed = _build(data, base, tile_shape)
    engine = QueryEngine(db)
    push = engine.group_by_query(
        obj, obj.current_domain, op, spec, predicate=predicate
    )
    v1, _timing = reference_group_by(
        obj, obj.current_domain, op, spec, predicate
    )
    assert push.value.tobytes() == v1.tobytes()
    rows, cols = data.shape
    row_spans = spec.get(0, [(0, rows - 1)])
    col_spans = spec.get(1, [(0, cols - 1)])
    expected = np.zeros((len(row_spans), len(col_spans)))
    for i, (r0, r1) in enumerate(row_spans):
        for j, (c0, c1) in enumerate(col_spans):
            expected[i, j] = _brute(
                composed[r0:r1 + 1, c0:c1 + 1], op, predicate
            )
    assert push.value.shape == expected.shape
    assert push.value.tobytes() == expected.tobytes()
