"""A GROUP BY is a snapshot: its whole cube comes from one committed epoch.

A roll-up reads every group cell under one pin (one stable set of shard
views when sharded), so a commit landing mid-statement can never tear
the cube into groups from before and groups from after it.  These tests
race GROUP BY readers against a writer flipping the *whole* object to a
new constant in single ``update`` transactions — on one store, and on
two shards while a rebalancer migrates tiles underneath — through the
seeded :class:`~tests.concurrency.vsched.VirtualScheduler`, and validate
every cube with the committed-history checker: a cube mixing two
commits' values matches no committed state and fails the seed.

``SCHED_SEED_BASE`` / ``SCHED_SEED_COUNT`` select the seed matrix;
``SCHED_LOG_DIR`` collects decision traces of failing seeds.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.cells import base_type
from repro.core.geometry import MInterval
from repro.core.mdd import Tile
from repro.core.mddtype import MDDType
from repro.query.engine import QueryEngine
from repro.shard import Rebalancer, ShardedDatabase
from repro.storage.tilestore import Database
from repro.tiling.base import grid_partition
from tests.concurrency.checker import History, Observation, check, digest
from tests.concurrency.vsched import VirtualScheduler, format_trace

SEED_BASE = int(os.environ.get("SCHED_SEED_BASE", "100"))
SEED_COUNT = int(os.environ.get("SCHED_SEED_COUNT", "8"))
SEEDS = list(range(SEED_BASE, SEED_BASE + SEED_COUNT))

DOMAIN = MInterval.parse("[0:63,0:63]")
#: Eight groups along dim0, each half of a 16x16 tile row: every tile
#: straddles two groups.
GROUPS = {0: [(lo, lo + 7) for lo in range(0, 64, 8)]}
HOT_REGION = MInterval.parse("[48:63,48:63]")
WRITER_ROUNDS = 4
READER_ROUNDS = 3
MOVER_CYCLES = 2


def _cube(value: int) -> np.ndarray:
    """The roll-up of the object filled with ``value``."""
    return np.full((8, 1), 8 * 64 * value, dtype=np.float64)


def _build(sharded: bool):
    root = ShardedDatabase(2, io_workers=1) if sharded else Database(io_workers=1)
    obj = root.create_object("c", MDDType("cube", base_type("long"), DOMAIN), "o")
    obj.write_tiles(
        [
            Tile(box, np.ones(box.shape, np.int32))
            for box in grid_partition(DOMAIN, (16, 16))
        ]
    )
    return root, obj


def _writer(obj, history: History, clock: list):
    """Round ``i`` overwrites every cell with ``i + 1`` in one update."""

    def run():
        for i in range(1, WRITER_ROUNDS + 1):
            obj.update(DOMAIN, np.full((64, 64), i + 1, np.int32))
            history.record_commit(i, {"o": digest(_cube(i + 1))})
            clock[0] = i

    return run


def _reader(name, engine, obj, clock: list, out: list):
    def run():
        for _ in range(READER_ROUNDS):
            lo = clock[0]
            result = engine.group_by_query(obj, DOMAIN, "add_cells", GROUPS)
            hi = clock[0]
            out.append((name, lo, hi, digest(result.value)))

    return run


def _mover(sdb, obj, moves: list):
    """Heat the shard owning the probe tile, then migrate its upper key
    span to the other shard — tiles move under the readers."""

    def run():
        rebalancer = Rebalancer(sdb)
        for _ in range(MOVER_CYCLES):
            for _ in range(3):
                obj.read(HOT_REGION)
            report = rebalancer.rebalance_once(ratio=1.01)
            if report is not None:
                moves.append(report)

    return run


def _resolve(raw: list) -> list:
    """Map each cube back to the commit that produced it; a cube mixing
    two commits' groups matches none — the torn statement."""
    by_digest = {digest(_cube(i + 1)): i for i in range(WRITER_ROUNDS + 1)}
    observations = []
    for name, lo, hi, content in raw:
        assert content in by_digest, (
            f"{name}: GROUP BY cube {content} matches no committed state — "
            f"the statement read groups from different epochs"
        )
        observations.append(
            Observation(
                name,
                lo_epoch=lo,
                hi_epoch=hi + 1,  # the clock trails the publish by one
                versions={"o": by_digest[content]},
                digests={"o": content},
                snapshot=False,
            )
        )
    return observations


def _run_schedule(seed: int, sharded: bool):
    root, obj = _build(sharded)
    engine = QueryEngine(root)
    history = History()
    history.record_initial({"o": digest(_cube(1))})
    clock = [0]
    raw: list = []
    moves: list = []
    sched = VirtualScheduler(seed)
    sched.add("writer", _writer(obj, history, clock))
    sched.add("reader-1", _reader("reader-1", engine, obj, clock, raw))
    sched.add("reader-2", _reader("reader-2", engine, obj, clock, raw))
    if sharded:
        sched.add("mover", _mover(root, obj, moves))
    try:
        sched.run()
        observations = _resolve(raw)
        check(history, observations)
    except Exception:
        log_dir = os.environ.get("SCHED_LOG_DIR")
        if log_dir:
            Path(log_dir).mkdir(parents=True, exist_ok=True)
            path = Path(log_dir) / f"group_by_snapshot_seed{seed}.trace"
            path.write_text(format_trace(sched.trace) + "\n", encoding="utf-8")
        raise
    return root, obj, moves, observations


class TestGroupBySnapshot:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_single_store_cube_is_one_epoch(self, seed):
        root, obj, _moves, observations = _run_schedule(seed, sharded=False)
        assert len(observations) == 2 * READER_ROUNDS
        assert root.epoch.active_pins == 0
        final = QueryEngine(root).group_by_query(obj, DOMAIN, "add_cells", GROUPS)
        assert final.value.tobytes() == _cube(WRITER_ROUNDS + 1).tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sharded_cube_is_one_epoch_during_rebalance(self, seed):
        root, obj, moves, observations = _run_schedule(seed, sharded=True)
        assert moves, f"seed {seed}: no migration happened"
        assert len(observations) == 2 * READER_ROUNDS
        assert sum(obj.tiles_per_shard()) == 16
        assert all(db.epoch.active_pins == 0 for db in root.shards)
        final = QueryEngine(root).group_by_query(obj, DOMAIN, "add_cells", GROUPS)
        assert final.value.tobytes() == _cube(WRITER_ROUNDS + 1).tobytes()
