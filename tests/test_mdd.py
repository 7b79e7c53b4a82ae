"""The logical MDD model (Sections 3-4) — tiles, the current domain as a
hull, partial coverage, reads, sections and updates — on the one engine
that holds MDD objects, :class:`StoredMDD`; plus the :class:`Tile` itself."""

import numpy as np
import pytest

from repro.core.errors import DomainError, QueryError
from repro.core.geometry import MInterval
from repro.core.mdd import Tile
from repro.core.mddtype import mdd_type
from repro.storage.tilestore import Database
from repro.tiling.aligned import AlignedTiling, SingleTileTiling


def image_type(domain="[0:99,0:99]"):
    return mdd_type("Img", "char", domain)


def checkerboard(shape):
    grid = np.indices(shape).sum(axis=0) % 2
    return (grid * 255).astype(np.uint8)


def new_object(mdd_type_=None, name="x"):
    return Database().create_object("c", mdd_type_ or image_type(), name)


def from_array(mdd_type_, data, strategy=None):
    obj = new_object(mdd_type_)
    obj.load_array(data, strategy or SingleTileTiling())
    return obj


def read(obj, region):
    return obj.read(MInterval.parse(region) if isinstance(region, str) else region)[0]


def filled(text, value=0, dtype=np.uint8):
    return Tile.filled(MInterval.parse(text), np.dtype(dtype), value)


class TestTile:
    def test_shape_must_match_domain(self):
        with pytest.raises(DomainError):
            Tile(MInterval.parse("[0:9]"), np.zeros(5, dtype=np.uint8))

    def test_open_domain_rejected(self):
        with pytest.raises(DomainError):
            Tile(MInterval.parse("[0:*]"), np.zeros(5, dtype=np.uint8))

    def test_byte_size(self):
        tile = Tile(MInterval.parse("[0:9,0:9]"), np.zeros((10, 10), np.uint32))
        assert tile.byte_size == 400

    def test_filled(self):
        tile = Tile.filled(MInterval.parse("[0:4]"), np.dtype(np.int16), 7)
        assert (tile.data == 7).all()

    def test_bytes_roundtrip(self):
        data = np.arange(24, dtype=np.uint32).reshape(2, 3, 4)
        tile = Tile(MInterval.parse("[0:1,0:2,0:3]"), data)
        again = np.frombuffer(tile.to_bytes(), dtype=np.uint32).reshape(2, 3, 4)
        assert (again == data).all()


class TestInsertion:
    def test_current_domain_grows_by_hull(self):
        obj = new_object()
        obj.insert_tile(filled("[0:9,0:9]"))
        assert obj.current_domain == MInterval.parse("[0:9,0:9]")
        obj.insert_tile(filled("[50:59,30:39]"))
        assert obj.current_domain == MInterval.parse("[0:59,0:39]")

    def test_overlap_rejected(self):
        obj = new_object()
        obj.insert_tile(filled("[0:9,0:9]"))
        with pytest.raises(DomainError):
            obj.insert_tile(filled("[5:14,5:14]"))

    def test_escape_of_definition_domain_rejected(self):
        with pytest.raises(DomainError):
            new_object().insert_tile(filled("[95:104,0:9]"))

    def test_wrong_dtype_rejected(self):
        obj = new_object()
        with pytest.raises(DomainError):
            obj.insert_tile(filled("[0:9,0:9]", dtype=np.uint32))
        assert obj.tile_count == 0

    def test_growth_with_open_definition_domain(self):
        obj = new_object(mdd_type("Series", "double", "[0:*,0:9]"))
        for start in (0, 10, 20):
            obj.insert_tile(filled(f"[{start}:{start + 9},0:9]", dtype=np.float64))
        assert obj.current_domain == MInterval.parse("[0:29,0:9]")


class TestFromArray:
    def test_single_tile(self):
        data = checkerboard((100, 100))
        obj = from_array(image_type(), data)
        assert obj.tile_count == 1
        assert (read(obj, obj.current_domain) == data).all()

    def test_with_tiling(self):
        data = checkerboard((100, 100))
        strategy = AlignedTiling("[1,1]", 1024)
        obj = from_array(image_type(), data, strategy)
        spec = strategy.tile(MInterval.parse("[0:99,0:99]"), 1)
        assert obj.tile_count == len(spec.tiles)
        assert (read(obj, obj.current_domain) == data).all()

    def test_origin_defaults_to_definition_lower(self):
        obj = from_array(mdd_type("Cube", "ulong", "[1:10,1:10]"), np.zeros((10, 10), np.uint32))
        assert obj.current_domain == MInterval.parse("[1:10,1:10]")

    def test_dtype_coercion(self):
        obj = from_array(image_type("[0:9,0:9]"), np.ones((10, 10), dtype=np.int64))
        assert read(obj, "[0:9,0:9]").dtype == np.uint8


class TestReads:
    def test_read_matches_numpy_slicing(self):
        data = checkerboard((100, 100))
        obj = from_array(image_type(), data, AlignedTiling(None, 2048))
        assert (read(obj, "[13:57,21:84]") == data[13:58, 21:85]).all()

    def test_read_open_bounds(self):
        data = checkerboard((100, 100))
        obj = from_array(image_type(), data)
        assert (read(obj, "[5:9,*:*]") == data[5:10, :]).all()

    def test_partial_coverage_reads_default(self):
        obj = new_object()
        obj.insert_tile(filled("[0:9,0:9]", 7))
        obj.insert_tile(filled("[90:99,90:99]", 9))
        out = read(obj, "[0:99,0:99]")
        assert out[0, 0] == 7
        assert out[99, 99] == 9
        assert out[50, 50] == 0  # uncovered -> default

    def test_coverage_fraction(self):
        obj = new_object()
        obj.insert_tile(filled("[0:9,0:9]"))
        obj.insert_tile(filled("[90:99,90:99]"))
        assert obj.logical_bytes() == 200  # one-byte cells
        assert obj.logical_bytes() / obj.current_domain.cell_count == pytest.approx(200 / 10000)

    def test_read_empty_object_raises(self):
        with pytest.raises(QueryError):
            read(new_object(), "[0:9,0:9]")

    def test_read_outside_current_domain_raises(self):
        obj = new_object()
        obj.insert_tile(filled("[0:9,0:9]"))
        with pytest.raises(QueryError):
            read(obj, "[50:60,50:60]")

    def test_read_dim_mismatch_raises(self):
        obj = new_object()
        obj.insert_tile(filled("[0:9,0:9]"))
        with pytest.raises(QueryError):
            read(obj, "[0:9]")

    def test_section(self):
        data = checkerboard((100, 100))
        obj = from_array(image_type(), data)
        row, _timing = obj.read_section(0, 42)
        assert row.shape == (100,)
        assert (row == data[42]).all()


class TestUpdate:
    def test_update_covered_region(self):
        data = checkerboard((100, 100))
        obj = from_array(image_type(), data, AlignedTiling(None, 2048))
        region = MInterval.parse("[10:19,10:19]")
        written = obj.update(region, np.full((10, 10), 123, dtype=np.uint8))
        assert written == 100
        assert (read(obj, region) == 123).all()

    def test_update_shape_mismatch(self):
        obj = from_array(image_type(), checkerboard((100, 100)))
        with pytest.raises(DomainError):
            obj.update(MInterval.parse("[0:9,0:9]"), np.zeros((5, 5), np.uint8))

    def test_update_skips_uncovered(self):
        obj = new_object()
        obj.insert_tile(filled("[0:9,0:9]"))
        written = obj.update(MInterval.parse("[0:19,0:9]"), np.ones((20, 10), np.uint8))
        assert written == 100  # only the covered half


class TestConsistency:
    def test_repr(self):
        assert "img1" in repr(new_object(name="img1"))
