"""Read-pipeline benchmark: serial vs parallel vs decoded-cache warm.

Unlike the paper-table benchmarks (which reproduce published numbers from
the *modelled* disk), this bench measures the implementation itself.  It
loads one compressed cube three times and reads the same query set under
three configurations:

* ``serial`` — the baseline single-threaded read path, cold caches;
* ``parallel`` — the same reads of a cube loaded with ``io_workers > 1``,
  so its tiles were encoded by that many workers (reads decode where
  they fetch, on the calling thread).  Results must stay **bit-for-bit
  identical** to serial and the modelled charges (``t_o``, index pages
  behind ``t_ix``) must match exactly: the encode pool changes neither
  the stored bytes nor their placement;
* ``decoded`` — a decoded-tile cache sized to hold the cube, measured on
  warm repeats.  Repeat reads must decode **zero** tiles (every tile is a
  decoded-cache hit, ``t_o == 0``) and run measurably faster than the
  cold serial path.

The verdicts — byte identity, modelled-charge equality, repeat-decode
elimination — are embedded in the ``BENCH_pipeline.json`` artifact so CI
can track them alongside the wall-clock numbers.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro import obs
from repro.bench.report import digest, format_table, write_report
from repro.core.geometry import MInterval
from repro.core.mddtype import mdd_type
from repro.storage.tilestore import Database, StoredMDD
from repro.tiling.aligned import RegularTiling

#: Cube geometry: compressible int32 payload, many tiles per query.
SIDE = 512
TILE_BYTES = 64 * 1024

#: Query set: full scan, an interior box, a thin slab.
QUERIES: Dict[str, str] = {
    "full": f"[0:{SIDE - 1},0:{SIDE - 1}]",
    "box": f"[{SIDE // 4}:{3 * SIDE // 4},{SIDE // 4}:{3 * SIDE // 4}]",
    "slab": f"[0:{SIDE - 1},{SIDE // 2}:{SIDE // 2 + 15}]",
}


def _cube_data() -> np.ndarray:
    """Smooth, zlib-friendly payload so decompression is real work."""
    grid = np.indices((SIDE, SIDE)).sum(axis=0)
    return ((grid % 251) * 3).astype(np.int32)


def _load_cube(**database_kwargs) -> tuple[Database, StoredMDD]:
    database = Database(compression=True, **database_kwargs)
    cube_type = mdd_type("PipeCube", "long", f"[0:{SIDE - 1},0:{SIDE - 1}]")
    mdd = database.create_object("pipebench", cube_type, "cube")
    mdd.load_array(_cube_data(), RegularTiling(TILE_BYTES))
    return database, mdd


def _measure_mode(
    mdd: StoredMDD,
    database: Database,
    runs: int,
    warm: bool,
) -> Dict[str, dict]:
    """Per-query wall/modelled measurements averaged over ``runs``.

    Cold protocol resets the disk clock and every cache before each run;
    warm protocol resets once and lets the repeats hit the caches (the
    first, cold run is excluded from the averages).
    """
    results: Dict[str, dict] = {}
    for name, spec in QUERIES.items():
        region = MInterval.parse(spec)
        if warm:
            database.reset_clock()
            mdd.read(region)  # cold priming run, not measured
        wall: List[float] = []
        timings = []
        for _ in range(max(1, runs)):
            if not warm:
                database.reset_clock()
            started = time.perf_counter()
            array, timing = mdd.read(region)
            wall.append((time.perf_counter() - started) * 1000.0)
            timings.append(timing)
        results[name] = {
            "wall_ms": float(np.mean(wall)),
            "wall_ms_min": float(np.min(wall)),
            "tiles_decoded_per_run": [timing.tiles_decoded for timing in timings],
            "digest": digest(array),
            "timing": timings[-1].as_dict(),
        }
    return results


def run_pipeline_bench(
    runs: int = 3,
    io_workers: int = 4,
    decoded_mb: int = 16,
    artifact_dir: Optional[Union[str, Path]] = None,
) -> dict:
    """Run the three configurations and return the comparison dict."""
    serial_db, serial_mdd = _load_cube(io_workers=1)
    serial = _measure_mode(serial_mdd, serial_db, runs, warm=False)

    parallel_db, parallel_mdd = _load_cube(io_workers=io_workers)
    parallel = _measure_mode(parallel_mdd, parallel_db, runs, warm=False)
    parallel_db.close()

    decoded_db, decoded_mdd = _load_cube(
        io_workers=1, decoded_cache_bytes=decoded_mb * 1024 * 1024
    )
    decoded = _measure_mode(decoded_mdd, decoded_db, runs, warm=True)

    identity = _verdicts(serial, parallel, decoded)
    report = {
        "label": "pipeline",
        "created_unix": time.time(),
        "config": {
            "side": SIDE,
            "tile_bytes": TILE_BYTES,
            "runs": runs,
            "io_workers": io_workers,
            "decoded_cache_bytes": decoded_mb * 1024 * 1024,
        },
        "queries": dict(QUERIES),
        "modes": {
            "serial": serial,
            "parallel": parallel,
            "decoded": decoded,
        },
        "identity": identity,
        "registry": obs.snapshot(),
    }
    return write_report(report, artifact_dir)


def _verdicts(serial: dict, parallel: dict, decoded: dict) -> dict:
    """The acceptance checks, embedded in the artifact."""
    byte_identical = all(
        serial[q]["digest"] == parallel[q]["digest"] for q in QUERIES
    )
    t_o_equal = all(
        serial[q]["timing"]["t_o"] == parallel[q]["timing"]["t_o"]
        for q in QUERIES
    )
    index_pages_equal = all(
        serial[q]["timing"]["index_nodes"]
        == parallel[q]["timing"]["index_nodes"]
        for q in QUERIES
    )
    warm_decodes = sum(
        count
        for q in QUERIES
        for count in decoded[q]["tiles_decoded_per_run"]
    )
    warm_t_o_zero = all(
        decoded[q]["timing"]["t_o"] == 0.0 for q in QUERIES
    )
    warm_faster = all(
        decoded[q]["wall_ms_min"] < serial[q]["wall_ms_min"] for q in QUERIES
    )
    decoded_identical = all(
        serial[q]["digest"] == decoded[q]["digest"] for q in QUERIES
    )
    return {
        "parallel_byte_identical": byte_identical,
        "parallel_t_o_equal": t_o_equal,
        "parallel_index_pages_equal": index_pages_equal,
        "decoded_byte_identical": decoded_identical,
        "warm_repeat_decodes": warm_decodes,
        "warm_t_o_zero": warm_t_o_zero,
        "warm_faster_than_serial_cold": warm_faster,
    }


def comparison_table(report: dict) -> str:
    """Fixed-width mode comparison for the CLI."""
    headers = [
        "query", "mode", "wall ms", "t_o", "t_ix", "decoded h/m", "decodes"
    ]
    rows = []
    for query in report["queries"]:
        for mode in ("serial", "parallel", "decoded"):
            entry = report["modes"][mode][query]
            timing = entry["timing"]
            rows.append([
                query if mode == "serial" else "",
                mode,
                f"{entry['wall_ms']:.2f}",
                f"{timing['t_o']:.2f}",
                f"{timing['t_ix']:.2f}",
                f"{timing['decoded_hits']}/{timing['decoded_misses']}",
                str(sum(entry["tiles_decoded_per_run"])),
            ])
    return format_table(headers, rows, title="read pipeline (means over runs)")
