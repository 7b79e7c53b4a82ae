"""Write-pipeline benchmark: serial vs batched vs parallel ingest.

The write-side sibling of :mod:`repro.bench.pipeline`.  It ingests the
Section 6.1 sales cube into a fresh ``wal+fsync`` file-backed database
three ways and compares wall clock, WAL traffic, and on-disk outcome:

* ``serial`` — one :meth:`StoredMDD.insert_tile` per tile: the
  pre-batching write path, one WAL commit **and one fsync per tile**;
* ``batched`` — one :meth:`StoredMDD.load_array` call: the whole cube is
  one group-committed transaction (single fsync), encoded through the
  ingest pipeline and flushed as coalesced page runs;
* ``parallel`` — the same, with ``io_workers > 1`` so tile encoding fans
  out over the worker pool.

All three modes cluster tiles in Z-order of their lower corners
(:func:`~repro.core.order.z_order_key` shifted to the cube's origin), so
neighbouring tiles land on neighbouring pages and the batched flush
coalesces maximally.  The acceptance verdicts — byte-identical page
files, equal stored bytes, identical read-back digests, clean fsck, and
a >= 10x fsync reduction — are deterministic and live in the
``identity`` section of the ``BENCH_ingest.json`` artifact; wall-clock
speedups live in ``performance`` and are reported but never gated on in
CI (they vary with the host).
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro import obs
from repro.bench.report import digest, format_table, write_report
from repro.bench.salescube import (
    SALES_DOMAIN,
    generate_sales_data,
    sales_mdd_type,
)
from repro.core.mdd import Tile
from repro.core.order import shifted_key, z_order_key
from repro.storage.catalog import PAGES_NAME, create_database, save_database
from repro.storage.fsck import fsck_database
from repro.tiling.aligned import RegularTiling
from repro.tiling.base import KB

TILE_BYTES = 32 * KB  # Reg32K, the paper's reference scheme

#: mode name -> worker count ("serial" uses insert_tile per tile).
MODES: Dict[str, int] = {"serial": 1, "batched": 1, "parallel": 4}


def _tile_key():
    return shifted_key(z_order_key, SALES_DOMAIN.lowest)


def _sorted_tiles(database, data: np.ndarray) -> List[Tile]:
    spec = RegularTiling(TILE_BYTES).tile(
        SALES_DOMAIN, sales_mdd_type().cell_size
    )
    ordered = sorted(spec.tiles, key=lambda d: database.tile_key(d.lowest))
    origin = SALES_DOMAIN.lowest
    return [Tile(d, data[d.to_slices(origin)]) for d in ordered]


def _wal_counts() -> tuple[int, ...]:
    """The registry's WAL fsync, commit and byte counters, now."""
    return tuple(
        int(obs.registry.value(name))
        for name in ("wal.fsyncs", "wal.commits", "wal.bytes_written")
    )


def _ingest_once(
    directory: Path, mode: str, io_workers: int, data: np.ndarray
) -> dict:
    """One ingest run: build, measure the store phase, audit the result."""
    database = create_database(
        directory,
        durability="wal+fsync",
        compression=True,
        io_workers=io_workers,
        tile_key=_tile_key(),
    )
    mdd = database.create_object("bench", sales_mdd_type(), "sales")
    tiles = _sorted_tiles(database, data)
    before = _wal_counts()  # measure the ingest, not the setup
    started = time.perf_counter()
    if mode == "serial":
        for tile in tiles:
            mdd.insert_tile(tile)
    else:
        mdd.write_tiles(tiles)
    wall_ms = (time.perf_counter() - started) * 1000.0
    fsyncs, commits, wal_bytes = (
        after - start for after, start in zip(_wal_counts(), before)
    )
    database.reset_clock()
    array, _timing = mdd.read(SALES_DOMAIN)
    result = {
        "wall_ms": wall_ms,
        "fsyncs": fsyncs,
        "wal_commits": commits,
        "wal_bytes": wal_bytes,
        "tile_count": len(mdd.tile_entries()),
        "logical_bytes": int(data.nbytes),
        "stored_bytes": mdd.stored_bytes(),
        "result_digest": digest(array),
    }
    save_database(database, directory)
    database.close()
    result["pages_sha256"] = hashlib.sha256(
        (directory / PAGES_NAME).read_bytes()
    ).hexdigest()
    fsck = fsck_database(directory)
    result["fsck_ok"] = fsck.ok
    result["fsck_issues"] = [str(issue) for issue in fsck.issues]
    return result


def _measure_mode(
    workspace: Path, mode: str, io_workers: int, runs: int, data: np.ndarray
) -> dict:
    walls: List[float] = []
    last: dict = {}
    for run in range(max(1, runs)):
        directory = workspace / f"{mode}_{run}"
        last = _ingest_once(directory, mode, io_workers, data)
        walls.append(last["wall_ms"])
        shutil.rmtree(directory, ignore_errors=True)
    last["wall_ms"] = float(np.mean(walls))
    last["wall_ms_min"] = float(np.min(walls))
    return last


def run_ingest_bench(
    runs: int = 3,
    io_workers: int = 4,
    artifact_dir: Optional[Union[str, Path]] = None,
) -> dict:
    """Run the three ingest modes and return the comparison dict."""
    data = generate_sales_data()
    modes: Dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="bench_ingest_") as tmp:
        workspace = Path(tmp)
        for mode, workers in MODES.items():
            workers = io_workers if mode == "parallel" else workers
            modes[mode] = _measure_mode(
                workspace, mode, workers, runs, data
            )
    report = {
        "label": "ingest",
        "created_unix": time.time(),
        "config": {
            "domain": str(SALES_DOMAIN),
            "tile_bytes": TILE_BYTES,
            "runs": runs,
            "io_workers": io_workers,
            "durability": "wal+fsync",
            "clustering": "z-order (shifted to the cube origin)",
        },
        "modes": modes,
        "identity": _verdicts(modes),
        "performance": _performance(modes),
        "registry": obs.snapshot(),
    }
    return write_report(report, artifact_dir)


def _verdicts(modes: Dict[str, dict]) -> dict:
    """Deterministic acceptance checks (gated on in CI)."""
    serial = modes["serial"]
    others = [modes[m] for m in modes if m != "serial"]
    batched = modes["batched"]
    return {
        "pages_byte_identical": all(
            m["pages_sha256"] == serial["pages_sha256"] for m in others
        ),
        "stored_bytes_equal": all(
            m["stored_bytes"] == serial["stored_bytes"] for m in others
        ),
        "read_back_identical": all(
            m["result_digest"] == serial["result_digest"] for m in others
        ),
        "tile_count_equal": all(
            m["tile_count"] == serial["tile_count"] for m in others
        ),
        "fsck_clean": all(m["fsck_ok"] for m in modes.values()),
        "fsync_amortized_10x": (
            serial["fsyncs"] >= 10 * max(1, batched["fsyncs"])
        ),
    }


def _performance(modes: Dict[str, dict]) -> dict:
    """Wall-clock comparison (reported, never gated on in CI)."""
    serial = modes["serial"]["wall_ms_min"]
    batched = modes["batched"]["wall_ms_min"]
    parallel = modes["parallel"]["wall_ms_min"]
    return {
        "speedup_batched": serial / batched if batched else float("inf"),
        "speedup_parallel": serial / parallel if parallel else float("inf"),
        "speedup_2x": parallel > 0 and serial / parallel >= 2.0,
    }


def comparison_table(report: dict) -> str:
    """Fixed-width mode comparison for the CLI."""
    headers = [
        "mode", "wall ms", "fsyncs", "commits", "wal MB", "stored MB",
        "tiles", "speedup",
    ]
    serial_wall = report["modes"]["serial"]["wall_ms_min"]
    rows = []
    for mode, entry in report["modes"].items():
        speedup = serial_wall / entry["wall_ms_min"] if entry["wall_ms_min"] else 0.0
        rows.append([
            mode,
            f"{entry['wall_ms']:.1f}",
            str(entry["fsyncs"]),
            str(entry["wal_commits"]),
            f"{entry['wal_bytes'] / (1024 * 1024):.2f}",
            f"{entry['stored_bytes'] / (1024 * 1024):.2f}",
            str(entry["tile_count"]),
            f"{speedup:.2f}x",
        ])
    return format_table(
        headers, rows, title="ingest pipeline (sales cube, wal+fsync)"
    )
