"""Error-hierarchy guarantees and assorted small-path coverage."""

import numpy as np
import pytest

from repro.core.errors import (
    BlobNotFoundError,
    DimensionMismatchError,
    DomainError,
    GeometryError,
    IndexError_,
    OpenBoundError,
    PageError,
    QueryError,
    RasQLSyntaxError,
    ReproError,
    StorageError,
    TilingError,
    TypeSystemError,
)
from repro.core.geometry import MInterval, OPEN


class TestHierarchy:
    def test_everything_is_a_repro_error(self):
        for exc in (
            GeometryError,
            DimensionMismatchError,
            OpenBoundError,
            DomainError,
            TilingError,
            StorageError,
            BlobNotFoundError,
            PageError,
            IndexError_,
            QueryError,
            RasQLSyntaxError,
            TypeSystemError,
        ):
            assert issubclass(exc, ReproError), exc

    def test_specialisations(self):
        assert issubclass(DimensionMismatchError, GeometryError)
        assert issubclass(OpenBoundError, GeometryError)
        assert issubclass(BlobNotFoundError, StorageError)
        assert issubclass(PageError, StorageError)
        assert issubclass(RasQLSyntaxError, QueryError)

    def test_index_error_does_not_shadow_builtin(self):
        assert IndexError_ is not IndexError
        with pytest.raises(ReproError):
            raise IndexError_("boom")

    def test_single_catch_clause_suffices(self):
        """A caller can catch everything from the library at once."""
        try:
            MInterval([5], [1])
        except ReproError as caught:
            assert isinstance(caught, GeometryError)
        else:
            pytest.fail("expected an error")


class TestGeometryEdgeCases:
    def test_difference_requires_bounds(self):
        with pytest.raises(OpenBoundError):
            MInterval.parse("[0:*]").difference(MInterval.parse("[1:2]"))

    def test_points_requires_bounds(self):
        with pytest.raises(OpenBoundError):
            next(MInterval.parse("[0:*]").points())

    def test_cell_count_requires_bounds(self):
        with pytest.raises(OpenBoundError):
            MInterval.parse("[*:4]").cell_count

    def test_is_adjacent_requires_bounds(self):
        with pytest.raises(OpenBoundError):
            MInterval.parse("[0:*]").is_adjacent(MInterval.parse("[0:*]"), 0)

    def test_hull_of_open_intervals(self):
        hull = MInterval.hull_of(
            [MInterval.parse("[0:*]"), MInterval.parse("[5:9]")]
        )
        assert hull == MInterval.parse("[0:*]")

    def test_open_sentinel_is_none(self):
        assert OPEN is None
        assert MInterval.OPEN is None

    def test_translate_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            MInterval.parse("[0:9]").translate((1, 2))

    def test_to_slices_origin_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            MInterval.parse("[0:9]").to_slices((0, 0))

    def test_split_axis_out_of_range(self):
        with pytest.raises(GeometryError):
            MInterval.parse("[0:9]").split(3, 5)

    def test_section_axis_out_of_range(self):
        with pytest.raises(GeometryError):
            MInterval.parse("[0:9]").section(1, 5)

    def test_project_out_axis_out_of_range(self):
        with pytest.raises(GeometryError):
            MInterval.parse("[0:9,0:9]").project_out(5)


class TestReportHelpers:
    def test_speedup_rows(self):
        from repro.bench.report import speedup_rows

        text = speedup_rows(
            {"a": {"t_o": 2.0, "t_totalaccess": 1.5, "t_totalcpu": 1.2},
             "b": {"t_o": 3.0, "t_totalaccess": 2.5, "t_totalcpu": 2.2}}
        )
        assert "t_o" in text and "2.0" in text and "b" in text


class TestEngineEdgeCases:
    def test_whole_object_on_empty(self):
        from repro.core.mddtype import mdd_type
        from repro.query.engine import QueryEngine
        from repro.storage.tilestore import Database

        db = Database()
        obj = db.create_object("c", mdd_type("T", "char", "[0:9]"), "x")
        engine = QueryEngine(db)
        with pytest.raises(QueryError):
            engine.whole_object(obj)

    def test_section_query_logs_section_kind(self):
        from repro.core.mddtype import mdd_type
        from repro.query.access import AccessKind
        from repro.query.engine import QueryEngine
        from repro.storage.tilestore import Database
        from repro.tiling.aligned import RegularTiling

        db = Database()
        obj = db.create_object("c", mdd_type("T", "char", "[0:9,0:9]"), "x")
        obj.load_array(np.zeros((10, 10), np.uint8), RegularTiling(64))
        engine = QueryEngine(db)
        engine.section_query(obj, 0, 5)
        assert db.access_log.accesses("x")[0].kind == AccessKind.SECTION
