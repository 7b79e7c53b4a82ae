"""Benchmark harness: build schemes, run query sets, compute speedups.

Reproduces the measurement protocol of Section 6: each tiling scheme gets
its own database; every query runs cold (disk clock reset, pool
cleared) and is repeated ``runs`` times with time components averaged —
the paper used five runs per query.  With ``warm=True`` only the first
run of each query is cold, so a buffer pool (``database_factory`` with
``buffer_bytes > 0``) shows its hit behaviour in the averaged counters.

Every benchmark can emit a machine-readable ``BENCH_<label>.json``
artifact — per-scheme load stats, per-query timing components, pool
activity summed from those records, and a snapshot of the
:mod:`repro.obs` metrics registry — by passing ``artifact_dir`` (the CLI
does) or setting the ``REPRO_BENCH_ARTIFACTS`` environment variable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.bench.report import artifact_directory, write_json
from repro.core.geometry import MInterval
from repro.core.mddtype import MDDType
from repro.query.timing import LoadStats, QueryTiming, speedup
from repro.storage.tilestore import Database, StoredMDD
from repro.tiling.base import TilingStrategy

DatabaseFactory = Callable[[], Database]


@dataclass
class SchemeRun:
    """One tiling scheme's cube and measurements."""

    name: str
    strategy: TilingStrategy
    database: Database
    mdd: StoredMDD
    load: LoadStats
    timings: Dict[str, QueryTiming] = field(default_factory=dict)

    def total(self) -> QueryTiming:
        """The query set's records summed: one per-run average of each
        query, so pool counts are those of one pass over the set."""
        total = QueryTiming()
        for timing in self.timings.values():
            total.add(timing)
        return total

    def average(self, component: str, queries: Sequence[str]) -> float:
        """Mean of one time component over a query subset."""
        return float(
            np.mean([getattr(self.timings[q], component) for q in queries])
        )


@dataclass
class BenchmarkResults:
    """All scheme runs of one benchmark, keyed by scheme name."""

    runs: Dict[str, SchemeRun]
    queries: Dict[str, MInterval]
    label: str = "bench"
    artifact_path: Optional[str] = None

    def scheme(self, name: str) -> SchemeRun:
        return self.runs[name]

    def best_scheme(
        self,
        component: str = "t_totalcpu",
        subset: Optional[Sequence[str]] = None,
        names: Optional[Sequence[str]] = None,
    ) -> str:
        """Scheme with the lowest average component over the query set."""
        queries = list(subset) if subset is not None else list(self.queries)
        candidates = list(names) if names is not None else list(self.runs)
        return min(
            candidates, key=lambda n: self.runs[n].average(component, queries)
        )

    def speedups(
        self, tuned: str, baseline: str
    ) -> Dict[str, Dict[str, float]]:
        """Per-query baseline-over-tuned ratios (the paper's Tables 4/6)."""
        table: Dict[str, Dict[str, float]] = {}
        for query in self.queries:
            table[query] = speedup(
                self.runs[baseline].timings[query],
                self.runs[tuned].timings[query],
            )
        return table


def run_benchmark(
    schemes: Mapping[str, TilingStrategy],
    mdd_type: MDDType,
    data: Optional[np.ndarray],
    queries: Mapping[str, MInterval],
    origin: Optional[Sequence[int]] = None,
    runs: int = 3,
    database_factory: Optional[DatabaseFactory] = None,
    domain: Optional[MInterval] = None,
    warm: bool = False,
    label: str = "bench",
    artifact_dir: Optional[Union[str, Path]] = None,
) -> BenchmarkResults:
    """Load one cube per scheme and measure every query cold.

    ``data`` may be None for virtual (synthesized) payloads, in which case
    ``domain`` gives the object's extent.  Every query region is resolved
    by the object itself, so ``*`` bounds are legal.

    ``warm`` keeps the buffer pool and disk state across the repeat runs
    of each query (the first run stays cold), exposing cache behaviour in
    the averaged pool counters.  With ``artifact_dir`` (or the
    ``REPRO_BENCH_ARTIFACTS`` environment variable) set, the results are
    also written to ``<artifact_dir>/BENCH_<label>.json``.
    """
    results: Dict[str, SchemeRun] = {}
    for name, strategy in schemes.items():
        database = database_factory() if database_factory else Database()
        mdd = database.create_object("bench", mdd_type, name)
        if data is not None:
            load = mdd.load_array(data, strategy, origin=origin)
        else:
            if domain is None:
                raise ValueError(
                    "virtual benchmarks need an explicit domain"
                )
            load = mdd.load_virtual(domain, strategy)
        run = SchemeRun(name, strategy, database, mdd, load)
        for query_name, region in queries.items():
            run.timings[query_name] = _measure(
                database, mdd, region, runs, warm=warm
            )
        results[name] = run
    benchmark = BenchmarkResults(
        runs=results, queries=dict(queries), label=label
    )
    directory = artifact_directory(artifact_dir)
    if directory is not None:
        benchmark.artifact_path = str(
            write_artifact(benchmark, directory, runs=runs, warm=warm)
        )
    return benchmark


def _measure(
    database: Database,
    mdd: StoredMDD,
    region: MInterval,
    runs: int,
    warm: bool = False,
) -> QueryTiming:
    """Run a query ``runs`` times and average times *and* counters.

    Cold protocol: every run starts from a reset disk clock and an empty
    pool.  Warm protocol: only the first run is cold, so later runs hit
    the pool and the averaged counters show the cache effect.
    """
    accumulated = QueryTiming()
    for index in range(max(1, runs)):
        if index == 0 or not warm:
            database.reset_clock()
        _data, timing = mdd.read(region)
        accumulated.add(timing)
    return accumulated.scaled(1.0 / max(1, runs))


def write_artifact(
    results: BenchmarkResults,
    directory: Union[str, Path],
    runs: int = 0,
    warm: bool = False,
) -> Path:
    """Write ``BENCH_<label>.json``: timings, pool stats, registry snapshot."""
    schemes = {}
    for name, run in results.runs.items():
        pool, total = run.database.pool, run.total()
        schemes[name] = {
            "load": run.load.as_dict(),
            "tile_count": run.mdd.tile_count,
            "stored_bytes": run.mdd.stored_bytes(),
            "queries": {
                query: timing.as_dict()
                for query, timing in run.timings.items()
            },
            "pool": (
                {
                    "capacity_bytes": pool.capacity_bytes,
                    "hits": total.pool_hits,
                    "misses": total.pool_misses,
                    "evictions": total.pool_evictions,
                    "hit_rate": total.pool_hit_rate,
                }
                if pool is not None
                else None
            ),
        }
    artifact = {
        "label": results.label,
        "created_unix": time.time(),
        "runs": runs,
        "warm": warm,
        "queries": {q: str(r) for q, r in results.queries.items()},
        "schemes": schemes,
        "registry": obs.snapshot(),
    }
    return write_json(artifact, directory)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean, the fair average for ratios."""
    array = np.asarray(values, dtype=np.float64)
    if np.any(array <= 0):
        raise ValueError("geometric mean needs positive values")
    return float(np.exp(np.mean(np.log(array))))
