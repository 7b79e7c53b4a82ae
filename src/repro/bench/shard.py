"""Sharding benchmark: scatter-gather vs the single store, plus failover.

Loads the Section 6.1 sales cube with a coarse grid (48 tiles) into one
single-store database and into ``ShardedDatabase`` deployments of 1, 2,
and 4 shards, then runs the same query sweep everywhere: full-cube and
boxed range reads, predicated (masked) reads, all five condensers
through aggregation pushdown, predicated pushdown at 1% selectivity,
and the paper's 2P GROUP BY roll-up through the planned query engine.

The acceptance verdicts are deterministic and live in ``identity``
(gated in CI):

* every read and aggregate must be **bitwise-identical** across the
  single store and every shard count — scatter-gather reassembly and
  distributed partial-aggregate combination may not change one byte;
* pushdown must engage on the sharded path exactly where it engages on
  the single store;
* a failover drill — replicate a 2-shard deployment by WAL shipping,
  crash the primary mid-ingest (torn WAL tail), promote the followers —
  must recover exactly the shipped committed prefix, fsck-clean on both
  sides, and byte-equal to the recovered primary;
* the modelled read scaling at 4 shards (single-store total cost over
  the slowest shard's scatter cost) must be **>= 2x**.

Wall times and modelled speedups live in ``performance`` (reported, not
gated).
"""

from __future__ import annotations

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
    partitions_2p,
    sales_mdd_type,
)
from repro.core.geometry import MInterval
from repro.core.mdd import Tile
from repro.index.zonemap import AGG_FUNCS, CellPredicate
from repro.query.engine import QueryEngine
from repro.shard import ShardedDatabase, ShardedFollower
from repro.storage.fsck import fsck_database
from repro.storage.tilestore import Database
from repro.tiling.base import grid_partition
from repro.tiling.directional import category_intervals

#: Coarse grid over the sales cube: 4 x 3 x 4 = 48 tiles, enough to
#: spread meaningfully over 4 shards while keeping the bench fast.
TILE_SHAPE = (183, 20, 25)

#: Pipeline width per store (each shard gets its own pool).
IO_WORKERS = 4

#: Shard counts compared against the single store.
SHARD_COUNTS = (1, 2, 4)

#: The boxed range read (roughly one quadrant, crossing tile borders).
BOX = "[100:500,10:50,20:80]"

#: Predicate selectivity for the masked read / predicated pushdown.
SELECTIVITY = 0.01

#: The scaling verdict threshold at 4 shards.
SCALING_TARGET = 2.0


def _tiles(data: np.ndarray) -> List[Tile]:
    origin = SALES_DOMAIN.lowest
    return [
        Tile(box, data[box.to_slices(origin)].copy())
        for box in grid_partition(SALES_DOMAIN, TILE_SHAPE)
    ]


def _load_single(data: np.ndarray) -> tuple:
    database = Database(io_workers=IO_WORKERS)
    mdd = database.create_object("bench", sales_mdd_type(), "sales")
    mdd.write_tiles(_tiles(data))
    database.reset_clock()
    return database, mdd


def _load_sharded(data: np.ndarray, n_shards: int) -> tuple:
    sdb = ShardedDatabase(n_shards, io_workers=IO_WORKERS)
    sdb.create_collection("bench")
    mdd = sdb.create_object("bench", sales_mdd_type(), "sales")
    mdd.write_tiles(_tiles(data))
    sdb.reset_clock()
    return sdb, mdd


def _rollup_spec() -> Dict[int, tuple]:
    low, high = SALES_DOMAIN.lowest, SALES_DOMAIN.highest
    parts = partitions_2p()
    return {
        axis: category_intervals(bounds, low[axis], high[axis])
        for axis, bounds in parts.items()
    }


def _configs(threshold: int) -> Dict[str, dict]:
    predicate = CellPredicate(">", threshold)
    configs: Dict[str, dict] = {
        "read_full": {"kind": "read", "region": SALES_DOMAIN},
        "read_box": {"kind": "read", "region": MInterval.parse(BOX)},
        "read_pred": {
            "kind": "read",
            "region": MInterval.parse(BOX),
            "predicate": predicate,
        },
    }
    for op in sorted(AGG_FUNCS):
        configs[f"agg_{op}"] = {"kind": "aggregate", "op": op}
    for op in ("count_cells", "add_cells"):
        configs[f"pred_{op}"] = {
            "kind": "aggregate",
            "op": op,
            "predicate": predicate,
        }
    configs["rollup_2p"] = {
        "kind": "group_by",
        "op": "add_cells",
        "spec": _rollup_spec(),
    }
    return configs


def _run_config(database, mdd, config: dict, runs: int) -> dict:
    """One query on one deployment, wall-averaged over runs."""
    walls: List[float] = []
    value = timing = None
    pushed = False
    for _ in range(max(1, runs)):
        started = time.perf_counter()
        if config["kind"] == "read":
            value, timing = mdd.read(
                config["region"], predicate=config.get("predicate")
            )
            pushed = False
        elif config["kind"] == "aggregate":
            value, timing, pushed = mdd.aggregate_push(
                SALES_DOMAIN, config["op"],
                predicate=config.get("predicate"),
            )
        else:
            engine = QueryEngine(database)
            result = engine.group_by_query(
                mdd, SALES_DOMAIN, config["op"], config["spec"]
            )
            value, timing = result.value, result.timing
            pushed = bool(result.plan.pushed) if result.plan else False
        walls.append((time.perf_counter() - started) * 1000.0)
    return {
        "digest": digest(value),
        "value": (
            None if isinstance(value, np.ndarray) else value
        ),
        "pushed": pushed,
        "wall_ms": float(np.mean(walls)),
        "wall_ms_min": float(np.min(walls)),
        "modelled_ms": timing.t_o + timing.t_ix_pages,
        "scatter_max_ms": mdd.last_scatter.max_ms,
        "tiles_read": timing.tiles_read,
        "tiles_pruned": timing.tiles_pruned,
        "tiles_synopsis_answered": timing.tiles_synopsis_answered,
        "tiles_partial_agg": timing.tiles_partial_agg,
        "timing": timing.as_dict(),
    }


def _failover_drill(data: np.ndarray) -> dict:
    """Replicate a 2-shard ingest, crash mid-batch, promote, compare.

    Deterministic: the "crash" truncates the primary WAL to the shipped
    watermark plus a torn fragment of the next batch, exactly the state
    a mid-append kill leaves behind.  The promoted follower and the
    recovered primary must both hold the shipped committed prefix.
    """
    from repro.storage.catalog import WAL_NAME

    tiles = _tiles(data)
    split = len(tiles) // 2
    workdir = Path(tempfile.mkdtemp(prefix="bench_shard_failover_"))
    try:
        primary = ShardedDatabase.create(
            workdir / "primary", 2, durability="wal"
        )
        mdd = primary.create_object("bench", sales_mdd_type(), "sales")
        followers = ShardedFollower(primary, workdir / "replica")
        mdd.write_tiles(tiles[:split])
        statuses = followers.ship()
        committed, _ = mdd.read(mdd.current_domain)
        committed_domain = mdd.current_domain

        # Ingest the doomed batch, then crash: torn tails past the
        # shipped watermark on every shard log.
        mdd.write_tiles(tiles[split:])
        primary.close()
        for follower in followers.followers:
            wal_path = follower.primary_dir / WAL_NAME
            raw = wal_path.read_bytes()
            keep = min(follower.applied_bytes + 7, len(raw))
            wal_path.write_bytes(raw[:keep])

        promoted = followers.promote()
        promoted_mdd = promoted.collection("bench")["sales"]
        promoted_data, _ = promoted_mdd.read(committed_domain)

        recovered = ShardedDatabase.open(workdir / "primary")
        recovered_mdd = recovered.collection("bench")["sales"]
        recovered_data, _ = recovered_mdd.read(committed_domain)

        fsck_ok = all(
            fsck_database(shard_dir).ok
            for sdb in (promoted, recovered)
            for shard_dir in (sdb.shard_dirs or [])
        )
        promoted.close()
        recovered.close()
        return {
            "shipped_txns": sum(s.applied_txns for s in statuses),
            "committed_tiles": split,
            "prefix_recovered": (
                promoted_data.tobytes() == committed.tobytes()
                and recovered_data.tobytes() == committed.tobytes()
            ),
            "promoted_equals_recovered_primary": (
                promoted_data.tobytes() == recovered_data.tobytes()
            ),
            "fsck_clean_both_sides": fsck_ok,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_shard_bench(
    runs: int = 3,
    artifact_dir: Optional[Union[str, Path]] = None,
) -> dict:
    """Run the shard sweep + failover drill, return the comparison dict."""
    data = generate_sales_data()
    threshold = int(np.quantile(data, 1.0 - SELECTIVITY))
    configs = _configs(threshold)
    modes: Dict[str, Dict[str, dict]] = {}
    database, mdd = _load_single(data)
    modes["single"] = {
        name: _run_config(database, mdd, config, runs)
        for name, config in configs.items()
    }
    tile_count = len(mdd.tile_entries())
    database.close()
    spreads: Dict[str, List[int]] = {}
    for n_shards in SHARD_COUNTS:
        sdb, smdd = _load_sharded(data, n_shards)
        modes[f"shard{n_shards}"] = {
            name: _run_config(sdb, smdd, config, runs)
            for name, config in configs.items()
        }
        spreads[f"shard{n_shards}"] = list(smdd.tiles_per_shard())
        sdb.close()
    failover = _failover_drill(data)
    report = {
        "label": "shard",
        "created_unix": time.time(),
        "config": {
            "domain": str(SALES_DOMAIN),
            "tile_shape": list(TILE_SHAPE),
            "tile_count": tile_count,
            "io_workers": IO_WORKERS,
            "shard_counts": list(SHARD_COUNTS),
            "runs": runs,
            "selectivity": SELECTIVITY,
            "threshold": threshold,
            "tiles_per_shard": spreads,
        },
        "modes": modes,
        "failover": failover,
        "identity": _verdicts(modes, failover),
        "performance": _performance(modes),
        "registry": obs.snapshot(),
    }
    return write_report(report, artifact_dir)


def _query_names(modes: Dict[str, Dict[str, dict]]) -> List[str]:
    return [
        name for name in modes["single"] if not name.startswith("_")
    ]


def _verdicts(modes: Dict[str, Dict[str, dict]], failover: dict) -> dict:
    """Deterministic acceptance checks (gated on in CI)."""
    names = _query_names(modes)
    sharded = [f"shard{n}" for n in SHARD_COUNTS]
    reads = [n for n in names if n.startswith("read_")]
    aggs = [n for n in names if n.startswith(("agg_", "pred_", "rollup_"))]
    return {
        "read_identical_all_shards": all(
            modes[mode][name]["digest"] == modes["single"][name]["digest"]
            for mode in sharded
            for name in reads
            if name != "read_pred"
        ),
        "predicated_read_identical": all(
            modes[mode]["read_pred"]["digest"]
            == modes["single"]["read_pred"]["digest"]
            for mode in sharded
        ),
        "aggregates_identical": all(
            modes[mode][name]["digest"] == modes["single"][name]["digest"]
            for mode in sharded
            for name in aggs
        ),
        "pushdown_engaged_as_single": all(
            modes[mode][name]["pushed"] == modes["single"][name]["pushed"]
            for mode in sharded
            for name in aggs
        ),
        "group_by_identical": all(
            modes[mode]["rollup_2p"]["digest"]
            == modes["single"]["rollup_2p"]["digest"]
            for mode in sharded
        ),
        "failover_recovers_committed_prefix": bool(
            failover["prefix_recovered"]
            and failover["promoted_equals_recovered_primary"]
        ),
        "failover_fsck_clean": bool(failover["fsck_clean_both_sides"]),
        "read_scaling_2x_at_4_shards": _scaling(modes) >= SCALING_TARGET,
    }


def _scaling(modes: Dict[str, Dict[str, dict]]) -> float:
    """Modelled full-cube read scaling: single total vs slowest shard."""
    single = modes["single"]["read_full"]["modelled_ms"]
    worst = modes["shard4"]["read_full"]["scatter_max_ms"]
    return single / worst if worst else float("inf")


def _performance(modes: Dict[str, Dict[str, dict]]) -> dict:
    """Modelled ratios (deterministic, reported but not CI-gated)."""
    out: dict = {"modelled_read_scaling_4_shards": _scaling(modes)}
    for n_shards in SHARD_COUNTS:
        mode = f"shard{n_shards}"
        for name in _query_names(modes):
            single = modes["single"][name]
            entry = modes[mode][name]
            scatter = entry.get("scatter_max_ms")
            if scatter:
                out[f"modelled_speedup_{mode}_{name}"] = (
                    single["modelled_ms"] / scatter
                )
            out[f"wall_ratio_{mode}_{name}"] = (
                single["wall_ms_min"] / entry["wall_ms_min"]
                if entry["wall_ms_min"]
                else float("inf")
            )
    return out


def comparison_table(report: dict) -> str:
    """Fixed-width deployment comparison for the CLI."""
    headers = ["query", "single ms"]
    for n_shards in SHARD_COUNTS:
        headers += [f"s{n_shards} max ms", f"s{n_shards} ident"]
    rows = []
    modes = report["modes"]
    for name in _query_names(modes):
        single = modes["single"][name]
        row = [name, f"{single['modelled_ms']:.2f}"]
        for n_shards in SHARD_COUNTS:
            entry = modes[f"shard{n_shards}"][name]
            scatter = entry.get("scatter_max_ms")
            row.append(f"{scatter:.2f}" if scatter else "-")
            row.append(
                "yes" if entry["digest"] == single["digest"] else "NO"
            )
        rows.append(row)
    lines = [format_table(
        headers, rows,
        title="sharded scatter-gather vs single store (modelled ms)",
    )]
    lines.append("")
    failover = report["failover"]
    lines.append(
        f"failover drill: {failover['shipped_txns']} shipped txns, "
        f"prefix recovered: {failover['prefix_recovered']}, "
        f"fsck clean: {failover['fsck_clean_both_sides']}"
    )
    scaling = report["performance"]["modelled_read_scaling_4_shards"]
    lines.append(
        f"modelled full-cube read scaling at 4 shards: {scaling:.2f}x "
        f"(target >= {SCALING_TARGET:g}x)"
    )
    return "\n".join(lines)
