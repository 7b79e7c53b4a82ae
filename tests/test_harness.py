"""Unit tests for the benchmark harness on a small synthetic workload."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench.harness import geometric_mean, run_benchmark
from repro.bench.report import pool_summary_rows
from repro.core.geometry import MInterval
from repro.core.mddtype import mdd_type
from repro.storage.tilestore import Database
from repro.tiling.aligned import AlignedTiling, RegularTiling
from repro.tiling.interest import AreasOfInterestTiling

DOMAIN = MInterval.parse("[0:63,0:63]")
IMG = mdd_type("Img", "char", str(DOMAIN))
HOTSPOT = MInterval.parse("[10:29,40:59]")
QUERIES = {
    "hot": HOTSPOT,
    "row": MInterval.parse("[5:5,*:*]"),
    "all": MInterval.parse("[*:*,*:*]"),
}


@pytest.fixture(scope="module")
def results():
    data = (np.indices((64, 64)).sum(axis=0) % 200).astype(np.uint8)
    schemes = {
        "Reg": RegularTiling(256),
        "AI": AreasOfInterestTiling([HOTSPOT], 512),
        "Square": AlignedTiling("[1,1]", 256),
    }
    return run_benchmark(schemes, IMG, data, QUERIES, runs=2)


class TestRunBenchmark:
    def test_all_cells_measured(self, results):
        assert set(results.runs) == {"Reg", "AI", "Square"}
        for run in results.runs.values():
            assert set(run.timings) == set(QUERIES)
            assert run.load.tile_count == run.mdd.tile_count

    def test_each_scheme_gets_its_own_database(self, results):
        dbs = {id(run.database) for run in results.runs.values()}
        assert len(dbs) == 3

    def test_interest_scheme_wins_hotspot(self, results):
        assert results.runs["AI"].timings["hot"].read_amplification == 1.0
        assert results.runs["Reg"].timings["hot"].read_amplification > 1.0

    def test_average(self, results):
        run = results.runs["Reg"]
        manual = np.mean([run.timings[q].t_totalcpu for q in ("hot", "row")])
        assert run.average("t_totalcpu", ("hot", "row")) == pytest.approx(manual)

    def test_best_scheme_subsets(self, results):
        best_hot = results.best_scheme("t_totalcpu", subset=("hot",))
        assert best_hot == "AI"
        best_of_two = results.best_scheme(
            "t_totalcpu", subset=("hot",), names=("Reg", "Square")
        )
        assert best_of_two in ("Reg", "Square")

    def test_speedups_structure(self, results):
        table = results.speedups("AI", "Reg")
        assert set(table) == set(QUERIES)
        assert table["hot"]["t_o"] > 0
        assert set(table["hot"]) == {"t_o", "t_totalaccess", "t_totalcpu"}

    def test_virtual_benchmark_needs_domain(self):
        with pytest.raises(ValueError):
            run_benchmark({"Reg": RegularTiling(256)}, IMG, None, QUERIES)

    def test_virtual_benchmark(self):
        results = run_benchmark(
            {"Reg": RegularTiling(256)},
            IMG,
            data=None,
            queries=QUERIES,
            domain=DOMAIN,
            runs=1,
        )
        timing = results.runs["Reg"].timings["hot"]
        assert timing.t_o > 0
        assert timing.bytes_read > 0


class TestPoolSummary:
    """The "Buffer pool activity" table and the artifact's ``pool`` block
    cover the whole query set: they are summed from the scheme's records,
    which a cold boundary between runs cannot zero."""

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_pool_totals_sum_the_records(self, tmp_path, warm):
        data = (np.indices((64, 64)).sum(axis=0) % 200).astype(np.uint8)
        results = run_benchmark(
            {"Reg": RegularTiling(256)}, IMG, data, QUERIES, runs=3, warm=warm,
            database_factory=lambda: Database(buffer_bytes=2048),
            label="pool", artifact_dir=tmp_path,
        )
        timings = list(results.runs["Reg"].timings.values())
        hits = sum(timing.pool_hits for timing in timings)
        misses = sum(timing.pool_misses for timing in timings)
        evictions = sum(timing.pool_evictions for timing in timings)
        assert misses > max(timing.pool_misses for timing in timings) > 0
        assert (hits > 0) == warm

        block = json.loads(Path(results.artifact_path).read_text())["schemes"]["Reg"]["pool"]
        assert (block["hits"], block["misses"], block["evictions"]) == (hits, misses, evictions)
        assert block["hit_rate"] == pytest.approx(hits / (hits + misses))
        *_, row = pool_summary_rows(results.runs).splitlines()
        assert row.split() == [
            "Reg", "2", str(hits), str(misses), str(evictions),
            f"{hits / (hits + misses) * 100:.0f}",
        ]


class TestGeometricMean:
    def test_matches_numpy(self):
        values = [1.5, 2.0, 4.0]
        assert geometric_mean(values) == pytest.approx(
            float(np.prod(values) ** (1 / 3))
        )
