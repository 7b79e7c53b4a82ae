"""Integration tests: whole-system scenarios across modules.

These walk the same paths the paper's system walks: load → tile → index →
query through RasQL → log → re-tile from statistics, plus persistence and
compression variants.
"""

import numpy as np
import pytest

from repro.core.geometry import MInterval
from repro.core.mddtype import mdd_type
from repro.query.engine import QueryEngine
from repro.query.rasql import execute
from repro.stats.advisor import advise
from repro.storage.backends import FileBlobStore
from repro.storage.tilestore import Database
from repro.tiling.aligned import AlignedTiling, RegularTiling
from repro.tiling.directional import DirectionalTiling
from repro.tiling.interest import AreasOfInterestTiling
from repro.tiling.validate import access_cost


class TestOlapScenario:
    """The paper's MOLAP story: category tiling makes subaggregation exact."""

    def setup_method(self):
        self.db = Database()
        self.cube_type = mdd_type("Sales", "ulong", "[1:60,1:100]")
        self.data = np.arange(6000, dtype=np.uint32).reshape(60, 100)
        self.partitions = {
            0: (1, 27, 42, 60),
            1: (1, 27, 35, 41, 59, 73, 89, 97, 100),
        }

    def test_subaggregation_per_category(self):
        obj = self.db.create_object("cubes", self.cube_type, "sales")
        obj.load_array(
            self.data,
            DirectionalTiling(self.partitions, 16 * 1024),
            origin=(1, 1),
        )
        engine = QueryEngine(self.db)
        # Sum over product class 2 x district 2 (exactly one tile) —
        # category tiling makes the tile's zone map answer it with zero
        # decode; no cell is fetched at all.
        result = execute(
            engine, "SELECT add_cells(c[28:42,28:35]) FROM cubes AS c"
        )[0]
        assert result.scalar == self.data[27:42, 27:35].sum()
        assert result.timing.tiles_read == 0
        assert result.timing.tiles_synopsis_answered == 1

    def test_directional_beats_regular_on_category_queries(self):
        reg = self.db.create_object("reg", self.cube_type, "r")
        reg.load_array(self.data, RegularTiling(4096), origin=(1, 1))
        tuned = self.db.create_object("dir", self.cube_type, "d")
        tuned.load_array(
            self.data, DirectionalTiling(self.partitions, 4096), origin=(1, 1)
        )
        query = MInterval.parse("[28:42,28:35]")
        _out_r, t_reg = reg.read(query)
        _out_d, t_dir = tuned.read(query)
        assert t_dir.cells_fetched < t_reg.cells_fetched
        assert t_dir.read_amplification == 1.0


class TestStatisticRetiling:
    """Close the loop: query -> log -> advise -> re-tile -> faster."""

    def test_full_cycle(self):
        domain_text = "[0:99,0:99]"
        img_type = mdd_type("Img", "char", domain_text)
        data = (np.indices((100, 100)).sum(axis=0) % 251).astype(np.uint8)
        hotspot = MInterval.parse("[20:39,60:79]")

        # Session one: default tiling, the database logs accesses.
        db1 = Database()
        obj1 = db1.create_object("imgs", img_type, "img")
        obj1.load_array(data, AlignedTiling(None, 1024))
        engine = QueryEngine(db1)
        for _ in range(5):
            result = engine.range_query(obj1, hotspot)
            assert (result.array == data[20:40, 60:80]).all()

        # Advice from the log must pick statistic tiling.
        advice = advise(db1.access_log.accesses("img"), max_tile_size=1024)
        assert "statistic tiling over the log" in advice.reason
        spec = advice.strategy.tile(MInterval.parse(domain_text), 1)

        # Session two: re-tiled object answers the hotspot exactly.
        db2 = Database()
        obj2 = db2.create_object("imgs", img_type, "img")
        for tile_domain in spec.tiles:
            from repro.core.mdd import Tile

            obj2.insert_tile(Tile(tile_domain, data[tile_domain.to_slices((0, 0))]))
        _out, timing = obj2.read(hotspot)
        assert timing.read_amplification == 1.0

        old_cost = access_cost([t.domain for t in obj1.tile_entries()], hotspot)
        assert old_cost.read_amplification > 1.0  # default tiling wasted bytes


class TestPersistence:
    def test_database_survives_restart(self, tmp_path):
        path = tmp_path / "cube.pages"
        img_type = mdd_type("Img", "char", "[0:49,0:49]")
        data = np.arange(2500, dtype=np.uint8).reshape(50, 50)

        store = FileBlobStore(path)
        db = Database(store=store)
        obj = db.create_object("imgs", img_type, "img")
        obj.load_array(data, RegularTiling(512))
        tile_meta = [
            (entry.domain, entry.blob_id, entry.codec)
            for entry in obj.tile_entries()
        ]
        store.close()

        # Restart: reopen the store, re-attach the blobs from the catalog.
        store2 = FileBlobStore.open(path)
        db2 = Database(store=store2)
        obj2 = db2.create_object("imgs", img_type, "img")
        for domain, blob_id, codec in tile_meta:
            obj2.attach_tile(domain, blob_id, codec)
        assert len(store2) == len(tile_meta)  # nothing was copied
        out, _ = obj2.read(MInterval.parse("[10:20,10:20]"))
        assert (out == data[10:21, 10:21]).all()


class TestSparseAndCompression:
    def test_sparse_object_with_selective_compression(self):
        db = Database(compression=True)
        cube_type = mdd_type("Sparse", "ulong", "[0:99,0:99]")
        obj = db.create_object("c", cube_type, "sparse")
        data = np.zeros((100, 100), dtype=np.uint32)
        data[10:20, 10:20] = 7  # one dense blob in a sea of defaults
        obj.load_array(data, RegularTiling(4096))
        assert obj.stored_bytes() < obj.logical_bytes() / 2
        out, _ = obj.read(MInterval.parse("[0:99,0:99]"))
        assert (out == data).all()

    def test_partial_coverage_with_default(self):
        from repro.core.mdd import Tile

        db = Database()
        cube_type = mdd_type("Sparse", "long", "[0:99,0:99]")
        obj = db.create_object("c", cube_type, "partial")
        obj.insert_tile(
            Tile.filled(MInterval.parse("[0:9,0:9]"), np.dtype(np.int32), 5)
        )
        obj.insert_tile(
            Tile.filled(MInterval.parse("[90:99,90:99]"), np.dtype(np.int32), 9)
        )
        out, timing = obj.read(MInterval.parse("[0:99,0:99]"))
        assert out[5, 5] == 5 and out[95, 95] == 9 and out[50, 50] == 0
        # Only the two materialised tiles were fetched.
        assert timing.tiles_read == 2


class TestAnimationScenario:
    def test_area_queries_exact_and_frame_scan_works(self):
        from repro.bench import animation

        db = Database()
        video = animation.generate_animation()
        obj = db.create_object("videos", animation.animation_mdd_type(), "clip")
        obj.load_array(
            video,
            AreasOfInterestTiling(animation.AREAS_OF_INTEREST, 256 * 1024),
        )
        _out, timing = obj.read(animation.AREA_HEAD)
        assert timing.read_amplification == 1.0
        frame, _t = obj.read_section(0, 60)
        assert frame.shape == (160, 120)
        assert (frame == video[60]).all()


class TestMixedDimensionalities:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_any_dimensionality(self, dim):
        extent = {1: 1000, 2: 60, 3: 16, 4: 8}[dim]
        shape = (extent,) * dim
        domain = MInterval.from_shape(shape)
        mdd = mdd_type(f"D{dim}", "short", str(domain))
        db = Database()
        obj = db.create_object("objs", mdd, f"obj{dim}")
        data = (np.arange(np.prod(shape)) % 32000).astype(np.int16).reshape(shape)
        obj.load_array(data, AlignedTiling(None, 2048))
        lo = tuple(1 for _ in range(dim))
        hi = tuple(extent // 2 for _ in range(dim))
        region = MInterval(list(lo), list(hi))
        out, _ = obj.read(region)
        assert (out == data[region.to_slices([0] * dim)]).all()
