"""Unit tests for per-tile zone maps: synopses, predicates, pruning,
and the aggregate short-circuit algebra (repro.index.zonemap)."""

import math

import numpy as np
import pytest

from repro.core.errors import IndexError_, StorageError
from repro.core.geometry import MInterval
from repro.core.mddtype import mdd_type
from repro.index.zonemap import (
    AGG_FUNCS,
    CellPredicate,
    TilePruner,
    TileSynopsis,
    ZoneColumns,
    compute_synopsis,
    constant_synopsis,
    parse_predicate,
    partial_synopsis,
    synopsis_can_match,
)
from repro.storage.tilestore import Database
from tests.reduce_oracle import combine_aggregate, partial_aggregate_eligible


class TestComputeSynopsis:
    def test_integer_array(self):
        a = np.array([[3, 0, -7], [12, 5, 0]], dtype=np.int32)
        syn = compute_synopsis(a)
        assert syn.cell_count == 6
        assert syn.nonzero == 4
        assert syn.vmin == -7 and syn.vmax == 12
        assert syn.vsum == int(a.sum())
        assert syn.nan_count == 0
        assert syn.nbins == 8 and syn.bins != 0

    def test_unsigned_array(self):
        a = np.array([250, 251, 255], dtype=np.uint8)
        syn = compute_synopsis(a)
        assert syn.vmin == 250 and syn.vmax == 255
        assert syn.vsum == 250 + 251 + 255  # no uint8 wraparound

    def test_bool_array(self):
        a = np.array([True, False, True])
        syn = compute_synopsis(a)
        assert (syn.vmin, syn.vmax, syn.vsum, syn.nonzero) == (
            False, True, 2, 2,
        )

    def test_empty_array(self):
        syn = compute_synopsis(np.empty((0, 3), dtype=np.int16))
        assert syn.cell_count == 0
        assert syn.vmin is None and syn.vmax is None
        assert syn.vsum == 0 and syn.bins == 0

    def test_float_with_nans(self):
        a = np.array([1.5, np.nan, -2.0, np.nan])
        syn = compute_synopsis(a)
        assert syn.cell_count == 4
        assert syn.nan_count == 2
        assert syn.nonzero == 4  # NaN counts as nonzero, as numpy does
        assert syn.vmin == -2.0 and syn.vmax == 1.5
        assert syn.vsum == -0.5  # NaN-ignoring

    def test_all_nan(self):
        syn = compute_synopsis(np.full(5, np.nan))
        assert syn.vmin is None and syn.vmax is None
        assert syn.nan_count == 5 and syn.nonzero == 5

    def test_struct_cells_have_no_synopsis(self):
        a = np.zeros(4, dtype=[("r", "u1"), ("g", "u1")])
        assert compute_synopsis(a) is None

    def test_nbins_disabled(self):
        syn = compute_synopsis(np.arange(10, dtype=np.int64), nbins=0)
        assert syn.nbins == 0 and syn.bins == 0

    @pytest.mark.parametrize("dtype", [np.int32, np.float64])
    def test_the_widest_bitmap_is_63_bins(self, dtype):
        # 64 or more bins would need bit 63, which the int64 mask wraps
        cells = np.arange(1000, dtype=dtype)
        syn = compute_synopsis(cells, 63)
        assert syn.nbins == 63 and syn.bins == 2**63 - 1
        assert TileSynopsis.from_dict(syn.to_dict()) == syn
        for nbins in (1, 64, 70, -1):
            with pytest.raises(IndexError_, match="nbins"):
                compute_synopsis(cells, nbins)
            with pytest.raises(StorageError, match="malformed zone"):
                TileSynopsis.from_dict({**syn.to_dict(), "nbins": nbins, "bins": 0})

    def test_constant_tile_has_no_bitmap(self):
        # vmin == vmax: the histogram is degenerate, so no bitmap is
        # stored — equality probes are decided by the edge match alone
        syn = compute_synopsis(np.full(9, 7, dtype=np.int32))
        assert syn.bins == 0
        dt = np.dtype(np.int32)
        assert synopsis_can_match(syn, CellPredicate("=", 7), dt)
        assert not synopsis_can_match(syn, CellPredicate("=", 8), dt)


class TestConstantSynopsis:
    def test_nonzero_constant(self):
        syn = constant_synopsis(12, 5)
        assert (syn.cell_count, syn.nonzero) == (12, 12)
        assert syn.vmin == syn.vmax == 5
        assert syn.vsum == 60

    def test_zero_constant(self):
        syn = constant_synopsis(12, 0)
        assert syn.nonzero == 0 and syn.vsum == 0

    def test_nan_constant(self):
        syn = constant_synopsis(4, float("nan"))
        assert syn.vmin is None and syn.nan_count == 4
        assert syn.nonzero == 4

    def test_matches_compute_on_filled_tile(self):
        syn = constant_synopsis(6, 3)
        computed = compute_synopsis(np.full(6, 3, dtype=np.int64), nbins=0)
        assert syn.same_as(computed)


class TestSynopsisSerialisation:
    def test_round_trip(self):
        syn = compute_synopsis(np.array([1, 2, 3], dtype=np.int32))
        assert TileSynopsis.from_dict(syn.to_dict()) == syn

    def test_legacy_payload_defaults(self):
        # records written before bitmaps carry only the core fields
        syn = TileSynopsis.from_dict(
            {"count": 4, "nonzero": 2, "min": 0, "max": 9, "sum": 11}
        )
        assert syn.nan_count == 0 and syn.nbins == 0 and syn.bins == 0

    def test_same_as_treats_nan_as_equal(self):
        a = compute_synopsis(np.full(3, np.nan))
        b = compute_synopsis(np.full(3, np.nan))
        assert a.same_as(b)
        assert a != b or a.same_as(b)  # dataclass eq fails on NaN fields


class TestPredicates:
    def test_parse_forms(self):
        assert parse_predicate("> 128") == CellPredicate(">", 128)
        assert parse_predicate("c >= 5.5") == CellPredicate(">=", 5.5)
        assert parse_predicate("!=0") == CellPredicate("!=", 0)
        assert parse_predicate("v < -3") == CellPredicate("<", -3)

    def test_parse_rejects_garbage(self):
        for text in ("", "between 1 and 2", "> x", "a + 1 > 2"):
            with pytest.raises(ValueError):
                parse_predicate(text)

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            CellPredicate("~", 3)

    def test_mask_follows_numpy_nan_semantics(self):
        a = np.array([1.0, np.nan, 3.0])
        assert list(CellPredicate(">", 0).mask(a)) == [True, False, True]
        assert list(CellPredicate("!=", 1).mask(a)) == [False, True, True]

    def test_str(self):
        assert str(CellPredicate("<=", 7)) == "cell <= 7"


class TestSynopsisCanMatch:
    DT = np.dtype(np.int32)

    def syn(self, values, **kw):
        return compute_synopsis(np.asarray(values, dtype=self.DT), **kw)

    def test_monotone_ops_decided_by_extremes(self):
        syn = self.syn([10, 20, 30])
        assert synopsis_can_match(syn, CellPredicate(">", 29), self.DT)
        assert not synopsis_can_match(syn, CellPredicate(">", 30), self.DT)
        assert synopsis_can_match(syn, CellPredicate("<=", 10), self.DT)
        assert not synopsis_can_match(syn, CellPredicate("<", 10), self.DT)

    def test_equality_uses_the_bitmap(self):
        # values cluster at the ends: the middle bins are unoccupied
        syn = self.syn([0, 1, 799, 800])
        assert synopsis_can_match(syn, CellPredicate("=", 0), self.DT)
        assert synopsis_can_match(syn, CellPredicate("=", 1), self.DT)
        # 400 sits strictly inside [0, 800] in an empty bin -> pruned
        assert not synopsis_can_match(syn, CellPredicate("=", 400), self.DT)

    def test_equality_without_bitmap_is_conservative(self):
        syn = self.syn([0, 800], nbins=0)
        assert synopsis_can_match(syn, CellPredicate("=", 400), self.DT)

    def test_not_equal_prunes_only_constant_tiles(self):
        assert not synopsis_can_match(
            self.syn([7, 7, 7]), CellPredicate("!=", 7), self.DT
        )
        assert synopsis_can_match(
            self.syn([7, 7, 8]), CellPredicate("!=", 7), self.DT
        )
        assert synopsis_can_match(
            self.syn([7, 7, 7]), CellPredicate("!=", 8), self.DT
        )

    def test_nan_tile_satisfies_not_equal_only(self):
        dt = np.dtype(np.float64)
        syn = compute_synopsis(np.full(3, np.nan))
        assert synopsis_can_match(syn, CellPredicate("!=", 0), dt)
        for op in ("<", "<=", ">", ">=", "="):
            assert not synopsis_can_match(syn, CellPredicate(op, 0), dt)

    def test_empty_tile_never_matches(self):
        syn = compute_synopsis(np.empty(0, dtype=self.DT))
        assert not synopsis_can_match(syn, CellPredicate("!=", 1), self.DT)
        assert not synopsis_can_match(syn, CellPredicate(">", -1), self.DT)


class TestTilePruner:
    def test_partition_and_counter(self):
        dt = np.dtype(np.int32)
        zones = ZoneColumns(
            [
                compute_synopsis(np.array([1, 2], dtype=dt)),
                compute_synopsis(np.array([50, 60], dtype=dt)),
                None,  # no synopsis -> always fetched
            ],
            dt,
        )
        pruner = TilePruner(CellPredicate(">", 10), zones, dt)
        assert pruner.can_match([0, 1, 2]).tolist() == [False, True, True]
        assert pruner.pruned == 1


class TestAggregateEligible:
    INT = np.dtype(np.int32)

    def test_count_min_max_always_eligible(self):
        for op in ("count_cells", "min_cells", "max_cells"):
            assert partial_aggregate_eligible(op, self.INT, [None], 5, 0, 10)
            assert partial_aggregate_eligible(op, np.dtype(np.float64), [], 0, 0.0, 4)

    def test_struct_never_eligible(self):
        dt = np.dtype([("r", "u1")])
        assert not partial_aggregate_eligible("count_cells", dt, [], 0, 0, 1)

    def test_float_add_never_eligible(self):
        syn = compute_synopsis(np.array([1.0, 2.0]))
        assert not partial_aggregate_eligible(
            "add_cells", np.dtype(np.float64), [syn], 0, 0.0, 2
        )

    def test_int_add_needs_every_synopsis(self):
        syn = compute_synopsis(np.array([1, 2], dtype=self.INT))
        assert partial_aggregate_eligible("add_cells", self.INT, [syn], 0, 0, 2)
        assert not partial_aggregate_eligible(
            "add_cells", self.INT, [syn, None], 0, 0, 4
        )

    def test_int_add_overflow_guard(self):
        big = compute_synopsis(np.array([2 ** 62], dtype=np.int64))
        assert not partial_aggregate_eligible(
            "add_cells", np.dtype(np.int64), [big], 0, 0, 4
        )

    def test_default_magnitude_counts_when_uncovered(self):
        huge_default = 2 ** 62
        syn = compute_synopsis(np.array([1], dtype=np.int64))
        assert partial_aggregate_eligible(
            "add_cells", np.dtype(np.int64), [syn], 0, huge_default, 4
        )
        assert not partial_aggregate_eligible(
            "add_cells", np.dtype(np.int64), [syn], 3, huge_default, 4
        )


class TestCombineAggregate:
    INT = np.dtype(np.int64)

    def test_matches_brute_force(self):
        full = np.array([1, 0, 5], dtype=self.INT)
        partial = np.array([7, -2], dtype=self.INT)
        default, default_cells = 3, 2
        composed = np.concatenate(
            [full, partial, np.full(default_cells, default, self.INT)]
        )
        parts = dict(
            syn_parts=[compute_synopsis(full), partial_synopsis(partial)],
            default_cells=default_cells,
            default=default,
            region_cells=composed.size,
        )
        for op in AGG_FUNCS:
            got = combine_aggregate(op, self.INT, **parts)
            assert got == AGG_FUNCS[op](composed), op

    def test_float_min_propagates_nan(self):
        dt = np.dtype(np.float64)
        syn = compute_synopsis(np.array([1.0, np.nan]))
        got = combine_aggregate("min_cells", dt, [syn], 0, 0.0, 2)
        assert math.isnan(got)

    def test_unknown_op_raises(self):
        with pytest.raises(KeyError):
            combine_aggregate("median_cells", self.INT, [], 0, 0, 1)


IMG = mdd_type("Img", "long", "[0:19,0:19]")


def _graded_object():
    """Four row-band tiles with disjoint value ranges: cell = 100*band+col."""
    from repro.core.mdd import Tile
    from repro.tiling.base import grid_partition

    db = Database()
    obj = db.create_object("imgs", IMG, "img")
    data = (np.arange(20)[:, None] // 5 * 100 + np.arange(20)).astype(
        np.int32
    )
    domain = MInterval.parse("[0:19,0:19]")
    tiles = [
        Tile(box, data[box.to_slices(domain.lowest)])
        for box in grid_partition(domain, (5, 20))
    ]
    obj.write_tiles(tiles)
    return db, obj, data


class TestStoredReads:
    def test_pruned_read_is_byte_identical(self):
        _db, obj, data = _graded_object()
        region = MInterval.parse("[0:19,0:19]")
        pred = CellPredicate(">", 250)
        pruned, t_pruned = obj.read(region, predicate=pred)
        full, t_full = obj.read(region, predicate=pred, prune=False)
        assert pruned.tobytes() == full.tobytes()
        assert t_pruned.tiles_pruned > 0
        assert t_full.tiles_pruned == 0
        assert t_pruned.tiles_read < t_full.tiles_read
        expected = np.where(data > 250, data, 0)
        np.testing.assert_array_equal(pruned, expected)

    def test_unpredicated_read_never_prunes(self):
        _db, obj, data = _graded_object()
        out, timing = obj.read(MInterval.parse("[0:19,0:19]"))
        assert timing.tiles_pruned == 0
        np.testing.assert_array_equal(out, data)

    def test_aggregate_short_circuits_with_zero_decode(self):
        _db, obj, data = _graded_object()
        region = MInterval.parse("[0:19,0:19]")
        for op in AGG_FUNCS:
            value, timing = obj.aggregate(region, op)
            decoded, _ = obj.aggregate(region, op, prune=False)
            assert value == decoded == AGG_FUNCS[op](data), op
            assert timing.tiles_read == 0, op
            assert timing.tiles_synopsis_answered == obj.tile_count, op

    def test_partial_region_aggregate_is_exact(self):
        _db, obj, data = _graded_object()
        region = MInterval.parse("[2:13,0:19]")
        clip = data[2:14, :]
        for op in AGG_FUNCS:
            value, timing = obj.aggregate(region, op)
            assert value == AGG_FUNCS[op](clip), op
            # the fully-covered middle band answers from its synopsis;
            # the two clipped bands decode
            assert timing.tiles_synopsis_answered == 1, op
            assert timing.tiles_read == 2, op
