"""Concurrent-access benchmark: snapshot readers scaling under a writer.

The concurrency sibling of :mod:`repro.bench.pipeline` /
:mod:`repro.bench.ingest` (DESIGN §11).  One writer thread commits
update transactions in a loop while 1, 2 and 4 reader threads each
perform a fixed number of snapshot reads of the contended region; the
mode's wall clock is the time for all readers to finish their quota, so
read throughput (reads/s) across the three modes is the scaling curve.

Two result sections, with the same CI contract as the other benches:

* ``identity`` — deterministic invariant verdicts, **gated** by
  ``benchmarks/check_regression.py``: every read's bytes digest-match a
  committed state (no torn reads — checked for every read, not
  sampled), snapshots are cross-object consistent (both objects always
  at the same committed epoch), and epoch reclamation converges to an
  empty limbo once the pins close;
* ``performance`` — throughput scaling, **reported but never gated**
  (CI machines often have 2 vCPUs): ``read_scaling_4r`` is the median,
  over runs, of each run's measured 4-reader vs 1-reader throughput
  ratio (the modes run interleaved, run by run).

Reads decompress zlib tiles (the codec releases the GIL), so scaling
measures the storage layer's actual read concurrency, not a Python
bytecode artifact.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro import obs
from repro.bench.report import digest, format_table, write_report
from repro.core.cells import base_type
from repro.core.geometry import MInterval
from repro.core.mddtype import MDDType
from repro.storage.tilestore import Database
from repro.tiling.aligned import RegularTiling

DOMAIN = MInterval.parse("[0:511,0:511]")
#: every read and every commit covers all four 256x256 tiles, so a torn
#: commit leaves a cross-tile mix that digests to no committed state
REGION = DOMAIN
TILE_BYTES = 65536
OBJECTS = ("a", "b")
READER_COUNTS = (1, 2, 4)
READS_PER_READER = 24
MAX_COMMITS = 10_000
#: distinct committed states the writer cycles through; 4-bit-entropy
#: cells compress ~2x, so reads spend their time in zlib decompress
#: (which releases the GIL) rather than on degenerate constant tiles
PAYLOAD_VARIANTS = 8


def _digest(array: np.ndarray) -> str:
    return digest(array)[:16]


def _payloads() -> List[np.ndarray]:
    """The committed-state cycle, deterministic across runs."""
    rng = np.random.default_rng(1999)
    return [
        rng.integers(0, 16, size=REGION.shape).astype(np.uint8)
        for _ in range(PAYLOAD_VARIANTS)
    ]


def _build_database(payloads: List[np.ndarray]) -> Database:
    """Fresh in-memory database: two four-tile objects, zlib-compressed.

    Both objects load inside one transaction so they publish at the same
    epoch — the cross-object consistency verdict then holds from the
    very first snapshot.
    """
    db = Database(compression=True)
    mdd_type = MDDType("cube", base_type("char"), DOMAIN)
    with db.transaction():
        for name in OBJECTS:
            db.create_object("bench", mdd_type, name)
            db.collection("bench")[name].load_array(
                payloads[-1], RegularTiling(TILE_BYTES)
            )
    return db


def _writer(db: Database, payloads: List[np.ndarray],
            history: Dict[int, Dict[str, str]],
            stop: threading.Event, tally: dict):
    """Commits update transactions until the readers finish their quota.

    Each transaction rewrites the whole contended region of *both*
    objects from the payload cycle and records the post-commit digests
    under the publication epoch — the committed history every read is
    validated against.  The digests are precomputed: a full-region
    overwrite makes the committed state exactly the payload.
    """
    objs = [db.collection("bench")[name] for name in OBJECTS]
    digests = [_digest(payload) for payload in payloads]
    commits = 0
    while not stop.is_set() and commits < MAX_COMMITS:
        commits += 1
        committed = {}
        with db.transaction():
            for offset, (name, obj) in enumerate(zip(OBJECTS, objs)):
                variant = (commits + 3 * offset) % len(payloads)
                obj.update(REGION, payloads[variant])
                committed[name] = digests[variant]
        epoch = db.last_commit_epoch()
        assert epoch is not None
        history[epoch] = committed
    tally["commits"] = commits


def _reader(db: Database, out: List[tuple], reads: int):
    """Fixed quota of cross-object snapshot reads of the hot region."""
    for _ in range(reads):
        with db.snapshot() as snap:
            entry = []
            for name in OBJECTS:
                epoch = snap.version("bench", name).epoch
                array, _ = snap.read("bench", name, REGION)
                entry.append((name, epoch, _digest(array)))
            out.append(tuple(entry))


def _validate(history: Dict[int, Dict[str, str]],
              observations: List[tuple]) -> dict:
    """Every-read validation; returns the identity verdict inputs."""
    torn = 0
    inconsistent = 0
    for entry in observations:
        epochs = {epoch for _name, epoch, _digest in entry}
        if len(epochs) != 1:
            # setup commits both objects in one transaction and every
            # update rewrites both, so a consistent snapshot always has
            # one epoch across objects
            inconsistent += 1
        for name, epoch, content in entry:
            commit = history.get(epoch)
            if commit is None or commit.get(name) != content:
                torn += 1
    return {"torn_reads": torn, "inconsistent_snapshots": inconsistent}


def _run_once(readers: int, payloads: List[np.ndarray]) -> dict:
    """One run of one scaling point: ``readers`` concurrent readers under
    a writer, on a fresh database."""
    db = _build_database(payloads)
    history: Dict[int, Dict[str, str]] = {}
    # the setup transaction published both objects under one epoch
    with db.snapshot() as snap:
        epoch = snap.version("bench", OBJECTS[0]).epoch
        history[epoch] = {
            name: _digest(snap.read("bench", name, REGION)[0])
            for name in OBJECTS
        }
    stop = threading.Event()
    tally: dict = {}
    observations: List[tuple] = []
    writer = threading.Thread(
        target=_writer,
        args=(db, payloads, history, stop, tally),
        name="writer",
    )
    pool = [
        threading.Thread(
            target=_reader, args=(db, observations, READS_PER_READER),
            name=f"reader-{k}",
        )
        for k in range(readers)
    ]
    writer.start()
    started = time.perf_counter()
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    wall_ms = (time.perf_counter() - started) * 1000.0
    stop.set()
    writer.join()
    return {
        "wall_ms": wall_ms,
        "writer_commits": tally.get("commits", 0),
        **_validate(history, observations),
        "reads": len(observations),
        "converged": db.epoch.active_pins == 0 and db.epoch.limbo_size == 0,
    }


def _mode(readers: int, runs: List[dict]) -> dict:
    """One scaling point over its runs (the last run's checks)."""
    walls = [run["wall_ms"] for run in runs]
    wall_ms = float(np.min(walls))
    total_reads = readers * READS_PER_READER
    return {
        "readers": readers,
        "reads": total_reads,
        "wall_ms": float(np.mean(walls)),
        "wall_ms_min": wall_ms,
        "throughput_rps": total_reads / (wall_ms / 1000.0) if wall_ms else 0.0,
        **{key: value for key, value in runs[-1].items() if key != "wall_ms"},
    }


def run_concurrent_bench(
    runs: int = 3,
    artifact_dir: Optional[Union[str, Path]] = None,
) -> dict:
    """Run the reader-scaling curve and return the comparison dict.  The
    modes run interleaved, run by run (r1, r2, r4, r1, ...), so a change
    in the box's load between runs moves a run's modes alike."""
    payloads = _payloads()
    per_run: Dict[int, List[dict]] = {readers: [] for readers in READER_COUNTS}
    for _ in range(max(1, runs)):
        for readers in READER_COUNTS:
            per_run[readers].append(_run_once(readers, payloads))
    modes = {f"r{readers}": _mode(readers, done) for readers, done in per_run.items()}
    # each run's r4 / r1 throughput ratio: the same quota per reader
    ratios = [4 * one["wall_ms"] / four["wall_ms"] for one, four in zip(per_run[1], per_run[4])]
    report = {
        "label": "concurrent",
        "created_unix": time.time(),
        "config": {
            "domain": str(DOMAIN),
            "region": str(REGION),
            "tile_bytes": TILE_BYTES,
            "objects": list(OBJECTS),
            "reads_per_reader": READS_PER_READER,
            "reader_counts": list(READER_COUNTS),
            "payload_variants": PAYLOAD_VARIANTS,
            "runs": runs,
            "compression": "selective zlib+planes",
        },
        "modes": modes,
        "identity": _verdicts(modes),
        "performance": _performance(modes, ratios),
        "registry": obs.snapshot(),
    }
    return write_report(report, artifact_dir)


def _verdicts(modes: Dict[str, dict]) -> dict:
    """Deterministic invariant checks (gated on in CI)."""
    return {
        "reads_match_committed": all(
            m["torn_reads"] == 0 for m in modes.values()
        ),
        "snapshots_cross_object_consistent": all(
            m["inconsistent_snapshots"] == 0 for m in modes.values()
        ),
        "reclamation_converged": all(
            m["converged"] for m in modes.values()
        ),
        "read_quota_completed": all(
            m["reads"] == m["readers"] * READS_PER_READER
            for m in modes.values()
        ),
        "writer_ran_during_reads": all(
            m["writer_commits"] >= 1 for m in modes.values()
        ),
    }


def _performance(modes: Dict[str, dict], ratios: List[float]) -> dict:
    """Scaling curve (reported, never gated on in CI): ``read_scaling_4r``
    is the median of the runs' 4-reader / 1-reader throughput ratios."""
    out = {
        f"throughput_r{m['readers']}": m["throughput_rps"]
        for m in modes.values()
    }
    out["read_scaling_4r"] = float(np.median(ratios))
    return out


def comparison_table(report: dict) -> str:
    """Fixed-width mode comparison for the CLI."""
    headers = [
        "readers", "reads", "wall ms", "reads/s", "commits", "torn",
        "scaling",
    ]
    t1 = report["modes"]["r1"]["throughput_rps"]
    rows = []
    for entry in report["modes"].values():
        scaling = entry["throughput_rps"] / t1 if t1 else 0.0
        rows.append([
            str(entry["readers"]),
            str(entry["reads"]),
            f"{entry['wall_ms']:.1f}",
            f"{entry['throughput_rps']:.0f}",
            str(entry["writer_commits"]),
            str(entry["torn_reads"]),
            f"{scaling:.2f}x",
        ])
    return format_table(
        headers, rows,
        title="concurrent reads under one writer (snapshot isolation)",
    )
