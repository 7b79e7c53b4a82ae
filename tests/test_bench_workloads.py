"""Tests pinning the benchmark workloads to the paper's specifications."""

import numpy as np
import pytest

from repro.bench import animation, salescube
from repro.bench.harness import geometric_mean
from repro.bench.report import format_table, timing_components_rows
from repro.bench.workloads import (
    frame_scan_queries,
    hotspot_queries,
    random_range_queries,
    sparse_cube,
)
from repro.core.geometry import MInterval
from repro.query.timing import QueryTiming
from repro.tiling.directional import category_intervals

KB = 1024


class TestSalesCubeSpec:
    """Table 1 of the paper."""

    def test_domain_and_size(self):
        assert salescube.SALES_DOMAIN.shape == (730, 60, 100)
        mdd = salescube.sales_mdd_type()
        total_mb = salescube.SALES_DOMAIN.cell_count * mdd.cell_size / 1e6
        assert total_mb == pytest.approx(17.5, abs=0.1)  # "16.7 MB" (MiB)

    def test_category_counts(self):
        months = category_intervals(salescube.month_boundaries(), 1, 730)
        classes = category_intervals(salescube.PRODUCT_CLASS_BOUNDARIES, 1, 60)
        districts = category_intervals(salescube.DISTRICT_BOUNDARIES, 1, 100)
        assert len(months) == 24
        assert len(classes) == 3
        assert len(districts) == 8

    def test_month_boundaries_align_with_calendar(self):
        boundaries = salescube.month_boundaries()
        assert boundaries[0] == 1
        assert boundaries[1] == 31    # end of January
        assert boundaries[2] == 59    # end of February
        assert boundaries[12] == 365  # end of year one
        assert boundaries[-1] == 730

    def test_partitions_2p_and_3p(self):
        two = salescube.partitions_2p()
        three = salescube.partitions_3p()
        assert set(two) == {0, 2}
        assert set(three) == {0, 1, 2}
        assert three[1] == salescube.PRODUCT_CLASS_BOUNDARIES

    def test_schemes_match_table2(self):
        schemes = salescube.build_schemes()
        expected = {
            "Reg32K", "Reg64K", "Reg128K", "Reg256K",
            "Dir32K2P", "Dir64K2P", "Dir128K2P", "Dir256K2P",
            "Dir32K3P", "Dir64K3P",
        }
        assert set(schemes) == expected  # no Dir128K3P / Dir256K3P (paper)

    def test_data_generator_deterministic(self):
        a = salescube.generate_sales_data()
        b = salescube.generate_sales_data()
        assert (a == b).all()
        assert a.dtype == np.uint32
        assert a.shape == (730, 60, 100)

    @pytest.mark.parametrize(
        "domain",
        [
            salescube.SALES_DOMAIN,
            # a partial last block, and whole blocks only
            MInterval.parse(f"[1:{2 * salescube._BLOCK_DAYS + 5},1:6,1:9]"),
            MInterval.parse(f"[1:{2 * salescube._BLOCK_DAYS},1:4,1:5]"),
        ],
    )
    def test_blocked_generator_matches_the_one_shot_draw(self, domain):
        # The formula drawn in one call, as the generator once did: the
        # blocked draw must reproduce it bit for bit.
        seed = 20260706
        rng = np.random.default_rng(seed)
        days, products, stores = domain.shape
        day_index = np.arange(days, dtype=np.float64)
        weekly = 1.0 + 0.4 * np.sin(2 * np.pi * day_index / 7.0)
        seasonal = 1.0 + 0.3 * np.sin(2 * np.pi * day_index / 365.0)
        day_factor = (weekly * seasonal)[:, None, None]
        product_pop = rng.gamma(2.0, 2.0, size=(1, products, 1))
        store_size = rng.gamma(3.0, 1.5, size=(1, 1, stores))
        lam = 2.0 * day_factor * product_pop * store_size
        expected = rng.poisson(lam).astype(np.uint32)
        out = salescube.generate_sales_data(domain, seed)
        assert out.dtype == np.uint32
        assert out.tobytes() == expected.tobytes()


class TestSalesCubeQueries:
    """Table 3 of the paper: the query regions and their data sizes."""

    @pytest.mark.parametrize(
        "query,expected_kb",
        [("a", 13), ("b", 52.5), ("c", 164), ("d", 342), ("e", 656),
         ("f", 1400), ("g", 4300), ("h", 4300), ("i", 8500), ("j", 164)],
    )
    def test_query_sizes_match_paper(self, query, expected_kb):
        region = salescube.QUERIES[query].resolve(salescube.SALES_DOMAIN)
        size_kb = region.cell_count * 4 / KB
        assert size_kb == pytest.approx(expected_kb, rel=0.07), query

    def test_queries_a_to_i_align_with_categories(self):
        """Queries a-i select whole categories under the paper's partition
        reading; only j (one week) deliberately straddles a boundary."""
        months = category_intervals(salescube.month_boundaries(), 1, 730)
        starts = {m[0] for m in months}
        ends = {m[1] for m in months}
        for name in "abcdefghi":
            region = salescube.QUERIES[name]
            lo, hi = region.lower[0], region.upper[0]
            if lo is not None:
                assert lo in starts, name
            if hi is not None:
                assert hi in ends, name
        j = salescube.QUERIES["j"]
        assert j.lower[0] not in starts and j.upper[0] not in ends

    def test_extended_domain_size(self):
        mdd = salescube.sales_mdd_type(salescube.EXTENDED_DOMAIN)
        size_mb = salescube.EXTENDED_DOMAIN.cell_count * mdd.cell_size / 2**20
        assert size_mb == pytest.approx(375, rel=0.01)

    def test_extended_partitions_repeat(self):
        parts = salescube.extended_partitions_3p()
        assert parts[1][0] == 1 and parts[1][-1] == 300
        assert parts[2][-1] == 300
        assert len(parts[0]) == 37  # 36 months + opening bound


class TestAnimationSpec:
    """Table 5 of the paper."""

    def test_domain_and_size(self):
        assert animation.ANIMATION_DOMAIN.shape == (121, 160, 120)
        size_mb = animation.ANIMATION_DOMAIN.cell_count * 3 / 2**20
        assert size_mb == pytest.approx(6.6, abs=0.1)  # paper: 6.8 MB

    def test_areas_overlap(self):
        assert animation.AREA_HEAD.intersects(animation.AREA_BODY)
        assert animation.ANIMATION_DOMAIN.contains(animation.AREA_HEAD)

    @pytest.mark.parametrize(
        "query,expected_kb",
        [("a", 523), ("b", 2662), ("c", 3686), ("d", 6972)],
    )
    def test_query_sizes(self, query, expected_kb):
        region = animation.QUERIES[query].resolve(animation.ANIMATION_DOMAIN)
        size_kb = region.cell_count * 3 / 1000
        assert size_kb == pytest.approx(expected_kb, rel=0.1), query

    def test_schemes(self):
        schemes = animation.build_schemes()
        assert set(schemes) == {
            f"{kind}{size}K" for kind in ("Reg", "AI") for size in (32, 64, 128, 256)
        }

    def test_animation_content_in_areas(self):
        video = animation.generate_animation()
        assert video.shape == (121, 160, 120)
        head_region = animation.AREA_HEAD
        head = video[head_region.to_slices((0, 0, 0))]
        outside = video[:, 0:40, 0:20]
        # The character is brighter than the background corner.
        assert head["r"].mean() > outside["r"].mean()


class TestAuxWorkloads:
    def test_sparse_cube_density(self):
        cube = sparse_cube((50, 50, 50), density=0.05, seed=3)
        density = np.count_nonzero(cube) / cube.size
        assert 0 < density < 0.3

    def test_random_queries_inside_domain(self):
        domain = MInterval.parse("[0:99,0:99]")
        for query in random_range_queries(domain, 20, seed=1):
            assert domain.contains(query)

    def test_hotspot_queries_cluster(self):
        hotspot = MInterval.parse("[40:60,40:60]")
        domain = MInterval.parse("[0:99,0:99]")
        queries = hotspot_queries(hotspot, 10, jitter=2, domain=domain)
        for query in queries:
            assert domain.contains(query)
            assert query.intersects(hotspot)

    def test_frame_scan(self):
        domain = MInterval.parse("[0:9,0:4]")
        frames = frame_scan_queries(domain, axis=0)
        assert len(frames) == 10
        assert frames[3] == MInterval.parse("[3:3,0:4]")


class TestReporting:
    def test_format_table(self):
        text = format_table(["x", "yy"], [[1, 2], [30, 40]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "30" in lines[-1]

    def test_timing_components_rows(self):
        text = timing_components_rows({"q": QueryTiming(t_ix=1, t_o=2, t_cpu=3)})
        assert "t_totalcpu" in text
        assert "6.0" in text

    def test_geometric_mean(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geometric_mean([0.0, 1.0])
