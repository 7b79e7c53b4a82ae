"""Sharded multi-store: placement, scatter-gather identity, replication,
failover, and rebalancing — every distributed claim tested directly."""

from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

from repro import obs
from repro.bench.obsbench import noop_instruments
from repro.core.errors import (
    DomainError,
    GeometryError,
    QueryError,
    StorageError,
)
from repro.core.geometry import MInterval
from repro.core.mdd import Tile
from repro.core.mddtype import mdd_type
from repro.index.zonemap import AGG_FUNCS, CellPredicate
from repro.query.engine import QueryEngine
from repro.shard import (
    KeyRange,
    RangeMap,
    Rebalancer,
    ShardedDatabase,
    ShardedFollower,
    ShardFollower,
    replication_lag,
)
from repro.storage.catalog import WAL_NAME
from repro.storage.fsck import fsck_database
from repro.storage.tilestore import Database
from repro.storage.wal import scan_wal
from repro.tiling.base import grid_partition

DOMAIN = MInterval.parse("[0:63,0:63]")


def _data(seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 100, size=(64, 64)).astype(np.int32)


def _tiles(data: np.ndarray, shape=(16, 16)):
    return [
        Tile(box, data[box.to_slices((0, 0))].copy())
        for box in grid_partition(DOMAIN, shape)
    ]


def _cube_type(name: str = "cube"):
    return mdd_type(name, "long", str(DOMAIN))


def _single(data: np.ndarray) -> tuple:
    db = Database(io_workers=2)
    obj = db.create_object("c", _cube_type(), "cube")
    obj.write_tiles(_tiles(data))
    db.reset_clock()
    return db, obj


def _sharded(data: np.ndarray, n_shards: int) -> tuple:
    sdb = ShardedDatabase(n_shards, io_workers=2)
    obj = sdb.create_object("c", _cube_type(), "cube")
    obj.write_tiles(_tiles(data))
    sdb.reset_clock()
    return sdb, obj


# ----------------------------------------------------------------------
# Key-range ownership
# ----------------------------------------------------------------------

class TestKeyRange:
    def test_contains_half_open(self):
        rng = KeyRange(10, 20, 0)
        assert 10 in rng and 19 in rng
        assert 20 not in rng and 9 not in rng

    def test_invalid_bounds_rejected(self):
        with pytest.raises(GeometryError):
            KeyRange(5, 5, 0)
        with pytest.raises(GeometryError):
            KeyRange(-1, 5, 0)
        with pytest.raises(GeometryError):
            KeyRange(0, 5, -1)


class TestRangeMap:
    def test_even_covers_space(self):
        rmap = RangeMap.even(4, 100)
        assert [str(r) for r in rmap.ranges] == [
            "[0:25)->shard0", "[25:50)->shard1",
            "[50:75)->shard2", "[75:100)->shard3",
        ]
        assert rmap.owner(0) == 0 and rmap.owner(99) == 3

    def test_gaps_and_overlaps_rejected(self):
        with pytest.raises(GeometryError):
            RangeMap(10, [KeyRange(0, 4, 0), KeyRange(5, 10, 1)])
        with pytest.raises(GeometryError):
            RangeMap(10, [KeyRange(0, 6, 0), KeyRange(5, 10, 1)])
        with pytest.raises(GeometryError):
            RangeMap(10, [KeyRange(0, 9, 0)])

    def test_owner_outside_space_rejected(self):
        rmap = RangeMap.even(2, 10)
        with pytest.raises(GeometryError):
            rmap.owner(10)
        with pytest.raises(GeometryError):
            rmap.owner(-1)

    def test_split_and_reassign_coalesce(self):
        rmap = RangeMap.even(2, 100)
        rmap.split(30)
        assert len(rmap.ranges) == 3
        rmap.reassign(30, 50, 1)
        # [0:30)->0, [30:100)->1 after coalescing with shard 1's span
        assert [str(r) for r in rmap.ranges] == [
            "[0:30)->shard0", "[30:100)->shard1",
        ]

    def test_split_at_existing_bound_is_noop(self):
        rmap = RangeMap.even(2, 100)
        rmap.split(50)
        assert len(rmap.ranges) == 2

    def test_from_sample_spreads_clustered_keys(self):
        # keys cluster near zero — an even split would starve shard 1+
        keys = list(range(48))
        rmap = RangeMap.from_sample(4, 1 << 30, keys)
        spread = [0, 0, 0, 0]
        for key in keys:
            spread[rmap.owner(key)] += 1
        assert spread == [12, 12, 12, 12]

    def test_from_sample_degenerate_falls_back_to_even(self):
        rmap = RangeMap.from_sample(4, 100, [5, 5, 5])
        assert len(rmap.ranges) == 4  # even fallback still covers all

    def test_round_trip_dict(self):
        rmap = RangeMap.even(3, 99)
        rmap.split(10)
        rmap.reassign(10, 33, 2)
        again = RangeMap.from_dict(rmap.to_dict())
        assert [str(r) for r in again.ranges] == [
            str(r) for r in rmap.ranges
        ]

    def test_shard_spans(self):
        rmap = RangeMap.even(2, 100)
        rmap.split(10)
        rmap.reassign(10, 50, 1)
        assert [str(r) for r in rmap.shard_spans(1)] == [
            "[10:100)->shard1"
        ]


# ----------------------------------------------------------------------
# Scatter-gather byte identity
# ----------------------------------------------------------------------

class TestScatterGatherIdentity:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_reads_bitwise_identical(self, n_shards):
        data = _data()
        _db, single = _single(data)
        _sdb, obj = _sharded(data, n_shards)
        for box in ("[0:63,0:63]", "[5:40,10:55]", "[16:31,16:31]",
                    "[0:0,0:0]", "[60:63,0:63]"):
            region = MInterval.parse(box)
            want, _ = single.read(region)
            got, timing = obj.read(region)
            assert got.tobytes() == want.tobytes(), box
            assert timing.cells_result == region.cell_count

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_predicated_reads_identical(self, n_shards):
        data = _data()
        _db, single = _single(data)
        _sdb, obj = _sharded(data, n_shards)
        predicate = CellPredicate(">", 50)
        region = MInterval.parse("[5:40,10:55]")
        want, _ = single.read(region, predicate=predicate)
        got, _ = obj.read(region, predicate=predicate)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_all_condensers_identical(self, n_shards):
        data = _data()
        _db, single = _single(data)
        _sdb, obj = _sharded(data, n_shards)
        for region in (DOMAIN, MInterval.parse("[5:40,10:55]")):
            for op in sorted(AGG_FUNCS):
                want, _ = single.aggregate(region, op)
                got, _ = obj.aggregate(region, op)
                assert repr(want) == repr(got), (op, region)

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_pushdown_identical_and_engages(self, n_shards):
        data = _data()
        _db, single = _single(data)
        _sdb, obj = _sharded(data, n_shards)
        for region in (DOMAIN, MInterval.parse("[5:40,10:55]")):
            for op in sorted(AGG_FUNCS):
                want, _, want_pushed = single.aggregate_push(region, op)
                got, _, got_pushed = obj.aggregate_push(region, op)
                assert repr(want) == repr(got), (op, region)
                assert want_pushed == got_pushed, (op, region)

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_predicated_pushdown_identical(self, n_shards):
        data = _data()
        _db, single = _single(data)
        _sdb, obj = _sharded(data, n_shards)
        predicate = CellPredicate(">", 90)
        for op in ("count_cells", "add_cells"):
            want, _, wp = single.aggregate_push(
                DOMAIN, op, predicate=predicate
            )
            got, _, gp = obj.aggregate_push(DOMAIN, op, predicate=predicate)
            assert repr(want) == repr(got), op
            assert wp == gp

    def test_float_pushdown_falls_back_like_single(self):
        # float add is inexact under reordering: both paths must refuse
        # to push and still agree bitwise on the materialized result
        data = _data().astype(np.float64)
        mt = mdd_type("fcube", "double", str(DOMAIN))
        db = Database(io_workers=2)
        single = db.create_object("c", mt, "fcube")
        single.write_tiles(_tiles(data))
        sdb = ShardedDatabase(2, io_workers=2)
        obj = sdb.create_object("c", mt, "fcube")
        obj.write_tiles(_tiles(data))
        want, _, wp = single.aggregate_push(DOMAIN, "add_cells")
        got, _, gp = obj.aggregate_push(DOMAIN, "add_cells")
        assert wp is False and gp is False
        assert repr(want) == repr(got)

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_group_by_identical(self, n_shards):
        data = _data()
        db, single = _single(data)
        sdb, obj = _sharded(data, n_shards)
        spec = {
            0: ((0, 31), (32, 63)),
            1: ((0, 15), (16, 47), (48, 63)),
        }
        want = QueryEngine(db).group_by_query(
            single, DOMAIN, "add_cells", spec
        )
        got = QueryEngine(sdb).group_by_query(
            obj, DOMAIN, "add_cells", spec
        )
        assert want.value.tobytes() == got.value.tobytes()

    def test_read_section_matches_single(self):
        data = _data()
        _db, single = _single(data)
        _sdb, obj = _sharded(data, 2)
        want, _ = single.read_section(0, 20)
        got, _ = obj.read_section(0, 20)
        assert got.tobytes() == want.tobytes()

    def test_scatter_stats_track_shards_hit(self):
        data = _data()
        _sdb, obj = _sharded(data, 4)
        obj.read(DOMAIN)
        stats = obj.last_scatter
        assert stats is not None
        assert stats.shards_hit >= 2
        assert stats.max_ms <= stats.total_ms
        assert sum(stats.per_shard_tiles) == 16

    def test_explicit_version_read_rejected(self):
        _sdb, obj = _sharded(_data(), 2)
        with pytest.raises(QueryError):
            obj.read(DOMAIN, version=1)


# ----------------------------------------------------------------------
# Pinned cuts: the seqlock validates pins, the query runs on them once
# ----------------------------------------------------------------------

def _racing(part, commit):
    """Make ``commit`` run inside ``part``'s first view pin, before the
    view is taken."""
    original = part._reader_view
    pending = [commit]

    @contextmanager
    def view(version):
        if pending:
            pending.pop()()
        with original(version) as pinned:
            yield pinned

    part._reader_view = view


class TestPinnedCut:
    def test_open_bounds_resolve_against_the_pinned_views(self):
        """A single-shard commit between resolving ``[0:*,0:*]`` and
        pinning is no fan-out, so only resolving against the pinned
        views keeps the result one committed state."""
        data = _data()
        sdb = ShardedDatabase(2, io_workers=2)
        obj = sdb.create_object("c", mdd_type("open", "long", "[0:*,0:*]"), "open")
        obj.write_tiles(_tiles(data))
        doomed = MInterval.parse("[48:63,0:63]")
        victims = [t.domain for t in _tiles(data) if doomed.contains(t.domain)]
        assert {obj.shard_of(box.lowest) for box in victims} == {1}
        _racing(obj._parts[0], lambda: obj.delete_region(doomed))
        got, _timing = obj.read(MInterval.parse("[0:*,0:*]"))
        assert obj.current_domain == MInterval.parse("[0:47,0:63]")
        assert got.shape == (48, 64)
        assert got.tobytes() == data[:48].tobytes()
        assert all(db.epoch.active_pins == 0 for db in sdb.shards)

    def test_lost_seqlock_race_repins_without_requerying(self):
        data = _data()
        holes = [
            Tile(box, data[box.to_slices((0, 0))].copy())
            for box in (MInterval.parse("[0:15,0:15]"), MInterval.parse("[48:63,48:63]"))
        ]
        sdb = ShardedDatabase(2, io_workers=2)
        obj = sdb.create_object("c", _cube_type(), "cube")
        obj.write_tiles([t for t in _tiles(data) if t.domain not in [h.domain for h in holes]])
        assert len({obj.shard_of(t.domain.lowest) for t in holes}) == 2  # a fan-out
        _racing(obj._parts[0], lambda: obj.write_tiles(holes))
        before = obs.snapshot()["counters"]
        got, timing = obj.read(DOMAIN)
        after = obs.snapshot()["counters"]
        assert after["shard.read_retries"] - before.get("shard.read_retries", 0) >= 1
        loaded = after["tilestore.tiles_loaded"] - before["tilestore.tiles_loaded"]
        assert loaded == timing.tiles_read == 16
        assert got.tobytes() == data.tobytes()
        assert all(db.epoch.active_pins == 0 for db in sdb.shards)


# ----------------------------------------------------------------------
# Placement and writes
# ----------------------------------------------------------------------

class TestPlacement:
    def test_first_batch_presplits_evenly(self):
        _sdb, obj = _sharded(_data(), 4)
        spread = obj.tiles_per_shard()
        assert sum(spread) == 16
        assert max(spread) - min(spread) <= 1

    def test_single_shard_holds_everything(self):
        _sdb, obj = _sharded(_data(), 1)
        assert obj.tiles_per_shard() == (16,)

    def test_owner_is_stable_after_map_creation(self):
        sdb, obj = _sharded(_data(), 2)
        owners = [
            obj.shard_of(entry.domain.lowest)
            for entry in obj.tile_entries()
        ]
        # every stored tile is owned by the shard that actually holds it
        for shard, part in enumerate(obj._parts):
            for entry in part.tile_entries():
                assert obj.shard_of(entry.domain.lowest) == shard
        assert set(owners) == {0, 1}

    def test_overlapping_insert_rejected_and_state_unchanged(self):
        data = _data()
        _sdb, obj = _sharded(data, 2)
        with pytest.raises(DomainError):
            obj.insert_tile(
                Tile(
                    MInterval.parse("[8:23,8:23]"),
                    np.ones((16, 16), dtype=np.int32),
                )
            )
        got, _ = obj.read(DOMAIN)
        assert got.tobytes() == data.tobytes()

    def test_same_batch_cross_owner_overlap_rejected(self):
        sdb = ShardedDatabase(2, io_workers=1)
        obj = sdb.create_object("c", _cube_type(), "cube")
        a = Tile(
            MInterval.parse("[0:15,0:15]"), np.ones((16, 16), np.int32)
        )
        b = Tile(
            MInterval.parse("[8:23,8:23]"), np.ones((16, 16), np.int32)
        )
        with pytest.raises(DomainError):
            obj.write_tiles([a, b])

    def test_update_crosses_shard_boundary(self):
        data = _data()
        _sdb, obj = _sharded(data, 4)
        patch = np.full((32, 32), -5, dtype=np.int32)
        region = MInterval.parse("[16:47,16:47]")
        covered = obj.update(region, patch)
        assert covered == 32 * 32
        expected = data.copy()
        expected[16:48, 16:48] = -5
        got, _ = obj.read(DOMAIN)
        assert got.tobytes() == expected.tobytes()

    def test_update_shape_mismatch_rejected(self):
        _sdb, obj = _sharded(_data(), 2)
        with pytest.raises(DomainError):
            obj.update(
                MInterval.parse("[0:7,0:7]"),
                np.zeros((4, 4), dtype=np.int32),
            )

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_update_region_is_valid_as_on_a_single_store(self, n_shards):
        # The region may overhang the current domain (only covered cells
        # count, values stay indexed by the caller's region) and may not
        # be open-bounded: clipping routes, it never validates.
        inner = MInterval.parse("[0:49,0:49]")
        data = _data()[:50, :50]
        db, sdb = Database(), ShardedDatabase(n_shards)
        objects = [
            store.create_object("c", _cube_type(), "cube")
            for store in (db, sdb)
        ]
        for obj in objects:
            obj.write_tiles(
                [
                    Tile(box, data[box.to_slices((0, 0))].copy())
                    for box in grid_partition(inner, (10, 10))
                ]
            )
            assert obj.current_domain == inner
        overhang = MInterval.parse("[40:59,40:59]")
        patch = np.arange(400, dtype=np.int32).reshape(20, 20)
        assert [obj.update(overhang, patch) for obj in objects] == [100, 100]
        for obj in objects:
            with pytest.raises(DomainError):
                obj.update(
                    MInterval.parse("[*:*,0:9]"), np.zeros((50, 10), np.int32)
                )
        expected = data.copy()
        expected[40:50, 40:50] = patch[:10, :10]
        for obj in objects:
            assert obj.read(inner)[0].tobytes() == expected.tobytes()

    def test_delete_region_recomputes_domain(self):
        _sdb, obj = _sharded(_data(), 2)
        dropped = obj.delete_region(MInterval.parse("[48:63,0:63]"))
        assert dropped == 4
        assert obj.tile_count == 12
        assert obj.current_domain == MInterval.parse("[0:47,0:63]")

    def test_queries_before_first_tile_fail_cleanly(self):
        sdb = ShardedDatabase(2)
        obj = sdb.create_object("c", _cube_type(), "cube")
        with pytest.raises(QueryError):
            obj.read(DOMAIN)
        with pytest.raises(QueryError):
            obj.resolve_region(DOMAIN)

    def test_dim_mismatch_and_outside_domain_fail(self):
        _sdb, obj = _sharded(_data(), 2)
        with pytest.raises(QueryError):
            obj.read(MInterval.parse("[0:5]"))
        with pytest.raises(QueryError):
            obj.read(MInterval.parse("[100:120,100:120]"))

    def test_duplicate_catalog_entries_rejected(self):
        sdb = ShardedDatabase(2)
        sdb.create_collection("c")
        with pytest.raises(StorageError):
            sdb.create_collection("c")
        sdb.create_object("c", _cube_type(), "cube")
        with pytest.raises(StorageError):
            sdb.create_object("c", _cube_type(), "cube")
        with pytest.raises(StorageError):
            sdb.collection("nope")

    def test_bad_construction_rejected(self):
        with pytest.raises(StorageError):
            ShardedDatabase(0)
        with pytest.raises(StorageError):
            ShardedDatabase(2, order="row_major")


class TestWalRouting:
    def test_one_wal_transaction_per_owner_shard(self, tmp_path):
        data = _data()
        sdb = ShardedDatabase.create(tmp_path / "d", 2, durability="wal")
        obj = sdb.create_object("c", _cube_type(), "cube")
        before = [
            len(scan_wal(shard_dir / WAL_NAME).batches)
            for shard_dir in sdb.shard_dirs
        ]
        obj.write_tiles(_tiles(data))  # spans both shards
        after = [
            len(scan_wal(shard_dir / WAL_NAME).batches)
            for shard_dir in sdb.shard_dirs
        ]
        # exactly one committed transaction landed on each owner shard
        assert [a - b for a, b in zip(after, before)] == [1, 1]
        sdb.close()

    def test_create_open_round_trip(self, tmp_path):
        data = _data()
        sdb = ShardedDatabase.create(tmp_path / "d", 2, durability="wal")
        obj = sdb.create_object("c", _cube_type(), "cube")
        obj.write_tiles(_tiles(data))
        spread = obj.tiles_per_shard()
        sdb.close()
        again = ShardedDatabase.open(tmp_path / "d")
        robj = again.collection("c")["cube"]
        assert robj.tiles_per_shard() == spread  # maps persisted
        got, _ = robj.read(DOMAIN)
        assert got.tobytes() == data.tobytes()
        again.close()


# ----------------------------------------------------------------------
# WAL-shipped replication and failover
# ----------------------------------------------------------------------

class TestReplication:
    def _deploy(self, tmp_path, data):
        primary = ShardedDatabase.create(
            tmp_path / "primary", 2, durability="wal"
        )
        obj = primary.create_object("c", _cube_type(), "cube")
        followers = ShardedFollower(primary, tmp_path / "replica")
        return primary, obj, followers

    def test_ship_is_incremental(self, tmp_path):
        data = _data()
        tiles = _tiles(data)
        primary, obj, followers = self._deploy(tmp_path, data)
        obj.write_tiles(tiles[:8])
        first = followers.ship()
        assert all(s.caught_up for s in first)
        shipped_first = sum(s.shipped_txns for s in first)
        again = followers.ship()
        assert sum(s.shipped_txns for s in again) == 0  # nothing new
        obj.write_tiles(tiles[8:])
        third = followers.ship()
        assert sum(s.shipped_txns for s in third) >= 1
        assert shipped_first >= 1
        primary.close()

    def test_a_ship_publishes_a_new_epoch(self, tmp_path):
        """A follower's readers (and the ETags served from it) see each
        applied ship as a new version, as a commit would publish it."""
        tiles = _tiles(_data())
        primary, obj, followers = self._deploy(tmp_path, _data())

        def epochs():
            return [f.db.collection("c")["cube"]._published.epoch for f in followers.followers]

        obj.write_tiles(tiles[:8])
        followers.ship()
        before = epochs()
        obj.write_tiles(tiles[8:])
        shipped = [status.shipped_txns for status in followers.ship()]
        assert any(shipped)
        assert [new > old for new, old in zip(epochs(), before)] == [n > 0 for n in shipped]
        primary.close()

    def test_lag_measures_without_applying(self, tmp_path):
        data = _data()
        tiles = _tiles(data)
        primary, obj, followers = self._deploy(tmp_path, data)
        obj.write_tiles(tiles[:8])
        followers.ship()
        obj.write_tiles(tiles[8:])
        lag = followers.lag()
        summary = replication_lag(lag)
        assert summary["caught_up"] is False
        assert summary["lag_txns"] >= 1
        # lag() did not move the watermark
        assert sum(s.shipped_txns for s in lag) == 0
        primary.close()

    def test_promote_equals_primary(self, tmp_path):
        data = _data()
        primary, obj, followers = self._deploy(tmp_path, data)
        obj.write_tiles(_tiles(data))
        promoted = followers.promote()
        want, _ = obj.read(DOMAIN)
        got, _ = promoted.collection("c")["cube"].read(DOMAIN)
        assert got.tobytes() == want.tobytes()
        primary.close()

    def test_promote_after_torn_tail_recovers_committed_prefix(
        self, tmp_path
    ):
        data = _data()
        tiles = _tiles(data)
        primary, obj, followers = self._deploy(tmp_path, data)
        obj.write_tiles(tiles[:8])
        followers.ship()
        committed_domain = obj.current_domain
        committed, _ = obj.read(committed_domain)
        obj.write_tiles(tiles[8:])
        primary.close()
        # crash: torn tails right after the shipped watermark
        for follower in followers.followers:
            wal_path = follower.primary_dir / WAL_NAME
            raw = wal_path.read_bytes()
            wal_path.write_bytes(raw[: follower.applied_bytes + 5])
        promoted = followers.promote()
        got, _ = promoted.collection("c")["cube"].read(committed_domain)
        assert got.tobytes() == committed.tobytes()
        for follower in followers.followers:
            assert fsck_database(follower.replica_dir).ok
        promoted.close()

    def test_ship_after_promote_rejected(self, tmp_path):
        data = _data()
        primary, obj, followers = self._deploy(tmp_path, data)
        obj.write_tiles(_tiles(data))
        followers.promote()
        with pytest.raises(StorageError):
            followers.followers[0].ship()
        primary.close()

    def test_primary_checkpoint_shrink_detected(self, tmp_path):
        from repro.storage.catalog import save_database

        data = _data()
        primary, obj, followers = self._deploy(tmp_path, data)
        obj.write_tiles(_tiles(data))
        followers.ship()
        # checkpoint truncates the primary WAL and resets txn numbering
        for shard, shard_dir in zip(primary.shards, primary.shard_dirs):
            save_database(shard, shard_dir)
            (shard_dir / WAL_NAME).write_bytes(b"")
        with pytest.raises(StorageError):
            followers.followers[0].ship()
        primary.close()

    def test_follower_needs_a_checkpoint_to_bootstrap(self, tmp_path):
        with pytest.raises(StorageError):
            ShardFollower(tmp_path / "nothing", tmp_path / "replica")

    def test_replication_needs_on_disk_primary(self):
        sdb = ShardedDatabase(2)
        with pytest.raises(StorageError):
            ShardedFollower(sdb, "/tmp/unused")


# ----------------------------------------------------------------------
# Load-driven rebalancing
# ----------------------------------------------------------------------

class TestRebalance:
    def _hot_workload(self, obj, box="[0:31,0:31]", repeats=20):
        region = MInterval.parse(box)
        for _ in range(repeats):
            obj.read(region)

    def test_balanced_load_is_a_noop(self):
        sdb, obj = _sharded(_data(), 2)
        assert Rebalancer(sdb).rebalance_once() is None

    def test_hot_range_moves_to_cold_shard(self):
        data = _data()
        sdb, obj = _sharded(data, 2)
        before = obj.tiles_per_shard()
        self._hot_workload(obj)
        loads = Rebalancer(sdb).shard_loads()
        hot = max(range(2), key=lambda i: loads[i])
        report = Rebalancer(sdb).rebalance_once()
        assert report is not None
        assert report.source == hot
        assert report.tiles_moved >= 1
        after = obj.tiles_per_shard()
        assert after[report.source] < before[report.source]
        assert after[report.dest] > before[report.dest]

    def test_migration_preserves_bytes_and_aggregates(self):
        data = _data()
        sdb, obj = _sharded(data, 2)
        self._hot_workload(obj)
        report = Rebalancer(sdb).rebalance_once()
        assert report is not None
        got, _ = obj.read(DOMAIN)
        assert got.tobytes() == data.tobytes()
        value, _, pushed = obj.aggregate_push(DOMAIN, "add_cells")
        assert value == int(data.astype(np.int64).sum())
        assert pushed is True

    def test_map_stays_contiguous_after_moves(self):
        sdb, obj = _sharded(_data(), 2)
        self._hot_workload(obj)
        Rebalancer(sdb).rebalance(ratio=1.2)
        ((dim, bits),) = sdb._maps.keys()
        rmap = sdb.range_map(dim, bits)
        # constructing a RangeMap re-validates contiguity; round-trip it
        RangeMap.from_dict(rmap.to_dict())
        # and every stored tile still lives on its mapped owner
        for shard, part in enumerate(obj._parts):
            for entry in part.tile_entries():
                assert obj.shard_of(entry.domain.lowest) == shard

    def test_new_writes_route_to_new_owner(self):
        data = _data()
        sdb, obj = _sharded(data, 2)
        self._hot_workload(obj)
        report = Rebalancer(sdb).rebalance_once()
        assert report is not None
        # delete a moved tile and re-insert it: it must land on dest
        moved_entry = next(
            entry
            for entry in obj._parts[report.dest].tile_entries()
        )
        domain = moved_entry.domain
        values, _ = obj.read(domain)
        obj.delete_region(domain)
        obj.insert_tile(Tile(domain, values.copy()))
        owners = [
            shard
            for shard, part in enumerate(obj._parts)
            for entry in part.tile_entries()
            if entry.domain == domain
        ]
        assert owners == [obj.shard_of(domain.lowest)]

    def test_loads_and_moves_ignore_the_obs_switch(self):
        """The access log is the rebalancer's input, not telemetry: the
        same reads give the same loads and the same move with every
        registry instrument patched to a no-op (``bench obs``'s floor)."""
        outcomes = []
        for floor in (nullcontext(), noop_instruments()):
            with floor:
                sdb, obj = _sharded(_data(), 2)
                self._hot_workload(obj)
                loads = Rebalancer(sdb).shard_loads()
                report = Rebalancer(sdb).rebalance_once()
                outcomes.append((loads, report, obj.tiles_per_shard()))
        (on_loads, on_report, on_tiles), off = outcomes
        assert on_report is not None and max(on_loads) > 0
        assert off == (on_loads, on_report, on_tiles)

    def test_single_shard_never_rebalances(self):
        sdb, obj = _sharded(_data(), 1)
        self._hot_workload(obj)
        assert Rebalancer(sdb).rebalance_once() is None
