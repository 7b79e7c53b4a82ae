"""Service-layer benchmark: parallel HTTP clients against the tile server.

The network sibling of :mod:`repro.bench.concurrent` (DESIGN §14).  A
fresh database is served over HTTP and 1, 2 and 4 closed-loop clients
each perform a fixed quota of range reads through
:class:`repro.client.Client` — first pass cold, later passes
revalidating through the ETag cache — so the curve measures the whole
wire path: negotiation, tile framing, parallel fetch, reassembly.

Two result sections, the same CI contract as the other benches:

* ``identity`` — deterministic verdicts, **gated** by
  ``benchmarks/check_regression.py``: every response reassembles
  byte-identical to a direct :meth:`Database.read` (checked for every
  read via digests), repeat reads at an unchanged epoch answer **304**
  exactly (not one revalidation lost), a write bumps the ETag and the
  next read returns fresh bytes, no request errors, and every client
  finishes its quota;
* ``performance`` — requests/s and p50/p99 per-read latency,
  **reported but never gated** (CI boxes vary wildly).
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro import obs
from repro.bench.report import digest, format_table, write_report
from repro.client import Client
from repro.core.cells import base_type
from repro.core.geometry import MInterval
from repro.core.mddtype import MDDType
from repro.serve import TileServer
from repro.storage.tilestore import Database
from repro.tiling.aligned import RegularTiling

DOMAIN = MInterval.parse("[0:255,0:255]")
TILE_BYTES = 16384
CLIENT_COUNTS = (1, 2, 4)
READS_PER_CLIENT = 24
#: the read mix: tile-aligned, straddling, full-object, and corner
#: boxes — every cache-refresh pass walks the same cycle, so reads
#: beyond the first ``len(BOXES)`` per client must all revalidate 304
BOXES = (
    "[0:127,0:127]",
    "[64:191,32:159]",
    "[0:255,0:255]",
    "[200:255,200:255]",
    "[30:40,0:255]",
    "[128:255,0:127]",
)
#: workers per client connection pool (the parallel fan-out width)
CLIENT_WORKERS = 4


def _digest(array: np.ndarray) -> str:
    return digest(array)[:16]


def _build_database() -> Database:
    """Fresh in-memory database: one four-by-four-tile object, zlib."""
    db = Database(compression=True)
    mdd_type = MDDType("cube", base_type("char"), DOMAIN)
    obj = db.create_object("bench", mdd_type, "a")
    rng = np.random.default_rng(1999)
    payload = rng.integers(0, 16, size=DOMAIN.shape).astype(np.uint8)
    obj.load_array(payload, RegularTiling(TILE_BYTES))
    return db


def _expected_digests(db: Database) -> Dict[str, str]:
    """Direct-read digests per box — the byte-identity ground truth."""
    obj = db.collection("bench")["a"]
    out = {}
    for box in BOXES:
        array, _ = obj.read(MInterval.parse(box))
        out[box] = _digest(array)
    return out


def _client_loop(
    url: str,
    expected: Dict[str, str],
    latencies: List[float],
    tally: dict,
    latch: threading.Lock,
) -> None:
    """One closed-loop client: its read quota over the box cycle.

    Alternates the parallel (tile-plan fan-out) and serial (one raw
    request) strategies so both wire paths are exercised and both share
    the ETag cache.
    """
    mismatches = 0
    errors = 0
    completed = 0
    own_latencies = []
    with Client(url, workers=CLIENT_WORKERS) as client:
        for i in range(READS_PER_CLIENT):
            box = BOXES[i % len(BOXES)]
            started = time.perf_counter()
            try:
                array = client.read(
                    "bench", "a", box, parallel=(i % 2 == 0)
                )
            except Exception:
                errors += 1
                continue
            own_latencies.append((time.perf_counter() - started) * 1000.0)
            completed += 1
            if _digest(array) != expected[box]:
                mismatches += 1
        stats = client.stats
        with latch:
            latencies.extend(own_latencies)
            tally["mismatches"] = tally.get("mismatches", 0) + mismatches
            tally["errors"] = tally.get("errors", 0) + errors
            tally["completed"] = tally.get("completed", 0) + completed
            tally["not_modified"] = (
                tally.get("not_modified", 0) + stats.not_modified
            )
            tally["requests"] = tally.get("requests", 0) + stats.requests


def _check_invalidation(db: Database, url: str) -> bool:
    """A write must bump the ETag: the next read is fresh, not 304."""
    with Client(url, workers=2) as client:
        box = "[0:31,0:31]"
        before = client.read("bench", "a", box)
        revalidations = client.stats.not_modified
        again = client.read("bench", "a", box)
        if client.stats.not_modified != revalidations + 1:
            return False  # the repeat read should have been a 304
        patch = (before[:32, :32] + 1).astype(before.dtype)
        client.write("bench", "a", box, patch)
        after = client.read("bench", "a", box)
        if client.stats.not_modified != revalidations + 1:
            return False  # the post-write read must NOT be a 304
        expected, _ = db.collection("bench")["a"].read(MInterval.parse(box))
        return (
            after.tobytes() == expected.tobytes()
            and again.tobytes() == before.tobytes()
        )


def _run_mode(clients: int, runs: int) -> dict:
    """One scaling point: ``clients`` concurrent closed-loop clients."""
    walls = []
    all_latencies: List[float] = []
    last_tally: dict = {}
    invalidated = True
    for _ in range(max(1, runs)):
        db = _build_database()
        expected = _expected_digests(db)
        with TileServer(db, port=0) as server:
            latencies: List[float] = []
            tally: dict = {}
            latch = threading.Lock()
            pool = [
                threading.Thread(
                    target=_client_loop,
                    args=(server.url, expected, latencies, tally, latch),
                    name=f"bench-client-{k}",
                )
                for k in range(clients)
            ]
            started = time.perf_counter()
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()
            wall = time.perf_counter() - started
            invalidated = _check_invalidation(db, server.url) and invalidated
        walls.append(wall * 1000.0)
        all_latencies = latencies
        last_tally = tally
    wall_ms = float(np.min(walls))
    total_reads = clients * READS_PER_CLIENT
    # Cold reads per client: the first pass over the cycle.  Everything
    # after it revalidates at an unchanged epoch, so the 304 count is
    # exact, not a lower bound.
    expected_304 = clients * (READS_PER_CLIENT - len(BOXES))
    return {
        "clients": clients,
        "requests": total_reads,
        "wall_ms": float(np.mean(walls)),
        "wall_ms_min": wall_ms,
        "throughput_rps": total_reads / (wall_ms / 1000.0) if wall_ms else 0.0,
        "p50_ms": float(np.percentile(all_latencies, 50))
        if all_latencies
        else 0.0,
        "p99_ms": float(np.percentile(all_latencies, 99))
        if all_latencies
        else 0.0,
        "mismatches": last_tally.get("mismatches", 0),
        "errors": last_tally.get("errors", 0),
        "completed": last_tally.get("completed", 0),
        "not_modified": last_tally.get("not_modified", 0),
        "expected_304": expected_304,
        "http_requests": last_tally.get("requests", 0),
        "write_invalidated": invalidated,
    }


def run_serve_bench(
    runs: int = 3,
    artifact_dir: Optional[Union[str, Path]] = None,
) -> dict:
    """Run the client-scaling curve and return the comparison dict."""
    modes: Dict[str, dict] = {}
    for clients in CLIENT_COUNTS:
        modes[f"c{clients}"] = _run_mode(clients, runs)
    report = {
        "label": "serve",
        "created_unix": time.time(),
        "config": {
            "domain": str(DOMAIN),
            "tile_bytes": TILE_BYTES,
            "boxes": list(BOXES),
            "reads_per_client": READS_PER_CLIENT,
            "client_counts": list(CLIENT_COUNTS),
            "client_workers": CLIENT_WORKERS,
            "runs": runs,
            "compression": "selective zlib+planes",
        },
        "modes": modes,
        "identity": _verdicts(modes),
        "performance": _performance(modes),
        "registry": obs.snapshot(),
    }
    return write_report(report, artifact_dir)


def _verdicts(modes: Dict[str, dict]) -> dict:
    """Deterministic invariant checks (gated on in CI)."""
    return {
        "byte_identical": all(
            m["mismatches"] == 0 for m in modes.values()
        ),
        "responses_ok": all(m["errors"] == 0 for m in modes.values()),
        "etag_304_correct": all(
            m["not_modified"] == m["expected_304"] for m in modes.values()
        ),
        "etag_invalidation_correct": all(
            m["write_invalidated"] for m in modes.values()
        ),
        "read_quota_completed": all(
            m["completed"] == m["requests"] for m in modes.values()
        ),
    }


def _performance(modes: Dict[str, dict]) -> dict:
    """Throughput/latency curve (reported, never gated on in CI)."""
    out = {}
    for m in modes.values():
        out[f"throughput_c{m['clients']}"] = m["throughput_rps"]
        out[f"p50_ms_c{m['clients']}"] = m["p50_ms"]
        out[f"p99_ms_c{m['clients']}"] = m["p99_ms"]
    t1 = modes["c1"]["throughput_rps"]
    out["throughput_scaling_4c"] = (
        modes["c4"]["throughput_rps"] / t1 if t1 else 0.0
    )
    return out


def comparison_table(report: dict) -> str:
    """Fixed-width mode comparison for the CLI."""
    headers = [
        "clients", "reads", "wall ms", "req/s", "p50 ms", "p99 ms",
        "304s", "mism",
    ]
    rows = []
    for entry in report["modes"].values():
        rows.append([
            str(entry["clients"]),
            str(entry["requests"]),
            f"{entry['wall_ms']:.1f}",
            f"{entry['throughput_rps']:.0f}",
            f"{entry['p50_ms']:.2f}",
            f"{entry['p99_ms']:.2f}",
            str(entry["not_modified"]),
            str(entry["mismatches"]),
        ])
    return format_table(
        headers, rows,
        title="HTTP clients against the tile server (closed loop)",
    )
