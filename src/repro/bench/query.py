"""Query-engine benchmark: planned aggregate pushdown vs materialize.

Loads the Section 6.1 sales cube with the value-friendly tiling of the
prune bench (tiles elongated along time, 3000 tiles) and runs the same
query set through both engine strategies:

* ``v1``       — materialize-then-reduce (:func:`materialize_reference`,
  the one copy of it): the query box is composed in memory by an
  unpruned read and reduced by the coordinator, the pre-PR-9 cost;
* ``pushdown`` — the engine's only aggregate path: zone maps prune,
  stored synopses answer fully-covered tiles with zero decode, the rest
  are reduced to partials one tile at a time as they are fetched, and
  the partials are combined in tile-id order without ever materializing
  the box.

The sweep covers all five condensers over the whole cube, threshold
predicates at low/medium selectivity, and OLAP GROUP BY roll-ups over
the paper's category partitions (2P and 3P).

The acceptance verdicts are deterministic and live in ``identity``
(gated in CI): every configuration must produce a **bitwise-identical**
result under both strategies, every pushdown run must report peak
working memory of at most one tile (the box is never materialized:
``peak_bounded_by_one_tile``), and the full-cube condensers must be
answered from synopses with zero decode.  Modelled-time speedups (``t_o +
t_ix_pages``, deterministic) live in ``performance`` and are reported
but never gated on; the headline figure is the speedup at <= 1%
selectivity, where pruning plus pushdown drop nearly all fetch work.
"""

from __future__ import annotations

import itertools
import time
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.bench.report import digest, format_table, write_report
from repro.bench.salescube import (
    DISTRICT_BOUNDARIES,
    PRODUCT_CLASS_BOUNDARIES,
    SALES_DOMAIN,
    generate_sales_data,
    month_boundaries,
    sales_mdd_type,
)
from repro.core.geometry import MInterval
from repro.index.zonemap import AGG_FUNCS, CellPredicate, check_aggregate
from repro.query.engine import QueryEngine
from repro.query.timing import QueryTiming
from repro.storage.tilestore import Database
from repro.tiling.directional import category_intervals

#: Same tiling as the prune bench: full time axis, one product x two
#: stores per tile -> 3000 tiles with strongly distinct value ranges.
TILE_SHAPE = (730, 1, 2)

#: Encode pool width for the load; reads reduce one tile at a time.
IO_WORKERS = 4

#: Target match fractions for the predicated-aggregate sweep.
SELECTIVITIES = (0.001, 0.01, 0.25)

#: Condensers applied at every selectivity point.
PREDICATED_OPS = ("count_cells", "add_cells")


def _load_cube(data: np.ndarray) -> tuple[Database, object]:
    from repro.core.mdd import Tile
    from repro.tiling.base import grid_partition

    database = Database(io_workers=IO_WORKERS)
    mdd = database.create_object("bench", sales_mdd_type(), "sales")
    origin = SALES_DOMAIN.lowest
    tiles = [
        Tile(box, data[box.to_slices(origin)])
        for box in grid_partition(SALES_DOMAIN, TILE_SHAPE)
    ]
    mdd.write_tiles(tiles)
    database.reset_clock()
    return database, mdd


def _group_specs() -> Dict[str, dict]:
    """The GROUP BY roll-ups: paper category partitions (Table 1)."""
    low, high = SALES_DOMAIN.lowest, SALES_DOMAIN.highest
    months = category_intervals(month_boundaries(), low[0], high[0])
    classes = category_intervals(PRODUCT_CLASS_BOUNDARIES, low[1], high[1])
    districts = category_intervals(DISTRICT_BOUNDARIES, low[2], high[2])
    return {
        "rollup_2p": {
            "op": "add_cells",
            "spec": {1: classes, 2: districts},
            "groups": len(classes) * len(districts),
        },
        "rollup_3p": {
            "op": "add_cells",
            "spec": {0: months, 1: classes, 2: districts},
            "groups": len(months) * len(classes) * len(districts),
        },
    }


def _thresholds(data: np.ndarray) -> Dict[str, dict]:
    """One ``> t`` predicate per target selectivity (quantile-derived)."""
    points: Dict[str, dict] = {}
    for target in SELECTIVITIES:
        threshold = int(np.quantile(data, 1.0 - target))
        points[f"{target:g}"] = {
            "target_selectivity": target,
            "threshold": threshold,
            "actual_selectivity": float((data > threshold).mean()),
        }
    return points


def materialize_reference(
    obj,
    boxes: Iterable[MInterval],
    op: str,
    predicate: Optional[CellPredicate] = None,
) -> tuple[list, QueryTiming]:
    """Materialize-then-reduce, the identity reference: one scalar per
    box plus the summed charges.

    Each box is composed by an unpruned (masked) ``read`` and reduced on
    the coordinator (charged to ``t_cpu``) — what every pushed aggregate
    must equal bitwise, and the cost the bench's ``v1`` mode reports.
    """
    check_aggregate(op, obj)
    values: list = []
    timing = QueryTiming()
    for box in boxes:
        data, box_timing = obj.read(box, predicate=predicate, prune=False)
        started = time.perf_counter()
        # contiguous: numpy's float summation order follows the layout
        values.append(AGG_FUNCS[op](np.ascontiguousarray(data)))
        box_timing.t_cpu += (time.perf_counter() - started) * 1000.0
        timing.add(box_timing)
    return values, timing


def reference_group_by(
    obj,
    region: MInterval,
    op: str,
    group_spec: Mapping[int, Sequence[tuple[int, int]]],
    predicate: Optional[CellPredicate] = None,
) -> tuple[np.ndarray, QueryTiming]:
    """:func:`materialize_reference` over a GROUP BY's boxes (arguments
    as :meth:`QueryEngine.group_by_query` takes them, ``region``
    resolved): the float64 group cube plus the summed charges."""
    spans = [
        group_spec.get(axis, [(region.lowest[axis], region.highest[axis])])
        for axis in range(region.dim)
    ]
    values, timing = materialize_reference(
        obj,
        (MInterval(*zip(*combo)) for combo in itertools.product(*spans)),
        op,
        predicate,
    )
    cube = np.array(values, dtype=np.float64)
    return cube.reshape([len(axis_spans) for axis_spans in spans]), timing


def _engine_run(engine, mdd, config: dict) -> tuple:
    """One configuration through the engine: ``(value, timing, pushed)``."""
    if config["kind"] == "group_by":
        result = engine.group_by_query(
            mdd, SALES_DOMAIN, config["op"], config["spec"]
        )
    else:
        result = engine.aggregate_query(
            mdd, SALES_DOMAIN, config["op"], predicate=config.get("predicate")
        )
    return result.value, result.timing, bool(result.plan.pushed)


def _reference_run(mdd, config: dict) -> tuple:
    """The same configuration materialized: ``(value, timing, False)``."""
    if config["kind"] == "group_by":
        value, timing = reference_group_by(
            mdd, SALES_DOMAIN, config["op"], config["spec"]
        )
    else:
        (value,), timing = materialize_reference(
            mdd, [SALES_DOMAIN], config["op"], config.get("predicate")
        )
    return value, timing, False


def _measure(run, runs: int) -> dict:
    """One configuration under one strategy, wall-averaged over runs."""
    walls: List[float] = []
    for _ in range(max(1, runs)):
        started = time.perf_counter()
        value, timing, pushed = run()
        walls.append((time.perf_counter() - started) * 1000.0)
    return {
        "digest": digest(value),
        "value": (
            value.tolist() if isinstance(value, np.ndarray) else value
        ),
        "pushed": pushed,
        "wall_ms": float(np.mean(walls)),
        "wall_ms_min": float(np.min(walls)),
        "modelled_ms": timing.t_o + timing.t_ix_pages,
        "tiles_read": timing.tiles_read,
        "tiles_pruned": timing.tiles_pruned,
        "tiles_synopsis_answered": timing.tiles_synopsis_answered,
        "tiles_partial_agg": timing.tiles_partial_agg,
        "peak_partial_bytes": timing.peak_partial_bytes,
        "bytes_read": timing.bytes_read,
        "timing": timing.as_dict(),
    }


def _configs(points: Dict[str, dict]) -> Dict[str, dict]:
    configs: Dict[str, dict] = {}
    for op in sorted(AGG_FUNCS):
        configs[f"agg_{op}"] = {"kind": "aggregate", "op": op}
    for point, meta in points.items():
        predicate = CellPredicate(">", meta["threshold"])
        for op in PREDICATED_OPS:
            configs[f"sel_{point}_{op}"] = {
                "kind": "aggregate",
                "op": op,
                "predicate": predicate,
                "selectivity": meta["target_selectivity"],
            }
    for name, rollup in _group_specs().items():
        configs[name] = {
            "kind": "group_by",
            "op": rollup["op"],
            "spec": rollup["spec"],
            "groups": rollup["groups"],
        }
    return configs


def run_query_bench(
    runs: int = 3,
    artifact_dir: Optional[Union[str, Path]] = None,
) -> dict:
    """Run the aggregate/GROUP BY sweep and return the comparison dict."""
    data = generate_sales_data()
    database, mdd = _load_cube(data)
    engine = QueryEngine(database)
    points = _thresholds(data)
    configs = _configs(points)
    modes: Dict[str, Dict[str, dict]] = {"v1": {}, "pushdown": {}}
    for name, config in configs.items():
        modes["v1"][name] = _measure(
            lambda: _reference_run(mdd, config), runs
        )
        modes["pushdown"][name] = _measure(
            lambda: _engine_run(engine, mdd, config), runs
        )
    tile_count = len(mdd.tile_entries())
    tile_bytes = max(
        entry.domain.cell_count for entry in mdd.tile_entries()
    ) * mdd.mdd_type.base.dtype.itemsize
    database.close()
    report = {
        "label": "query",
        "created_unix": time.time(),
        "config": {
            "domain": str(SALES_DOMAIN),
            "tile_shape": list(TILE_SHAPE),
            "tile_count": tile_count,
            "io_workers": IO_WORKERS,
            "max_tile_bytes": tile_bytes,
            "runs": runs,
            "selectivities": list(SELECTIVITIES),
            "points": points,
            "rollups": {
                name: {"op": r["op"], "groups": r["groups"]}
                for name, r in _group_specs().items()
            },
        },
        "modes": modes,
        "identity": _verdicts(modes, tile_bytes),
        "performance": _performance(modes),
        "registry": obs.snapshot(),
    }
    return write_report(report, artifact_dir)


def _verdicts(modes: Dict[str, Dict[str, dict]], tile_bytes: int) -> dict:
    """Deterministic acceptance checks (gated on in CI)."""
    push = modes["pushdown"]
    return {
        "byte_identical_all": all(
            push[name]["digest"] == entry["digest"]
            for name, entry in modes["v1"].items()
        ),
        "pushdown_used_everywhere": all(
            entry["pushed"] for entry in push.values()
        ),
        "v1_never_pushes": all(
            not entry["pushed"] for entry in modes["v1"].values()
        ),
        "peak_bounded_by_one_tile": all(
            entry["peak_partial_bytes"] <= tile_bytes
            for entry in push.values()
        ),
        "full_cube_condensers_zero_decode": all(
            push[f"agg_{op}"]["tiles_read"] == 0 for op in sorted(AGG_FUNCS)
        ),
    }


def _performance(modes: Dict[str, Dict[str, dict]]) -> dict:
    """Modelled-time ratios (deterministic, reported but not CI-gated)."""
    out: dict = {}
    low_speedups = []
    for name, v1 in modes["v1"].items():
        push = modes["pushdown"][name]
        speedup = (
            v1["modelled_ms"] / push["modelled_ms"]
            if push["modelled_ms"]
            else float("inf")
        )
        out[f"modelled_speedup_{name}"] = speedup
        out[f"wall_speedup_{name}"] = (
            v1["wall_ms_min"] / push["wall_ms_min"]
            if push["wall_ms_min"]
            else float("inf")
        )
        if name.startswith("sel_") and _point_of(name) <= 0.01:
            low_speedups.append(speedup)
    out["modelled_speedup_3x_low_selectivity"] = bool(
        low_speedups and min(low_speedups) >= 3.0
    )
    return out


def _point_of(name: str) -> float:
    """Selectivity of a ``sel_<point>_<op>`` configuration name."""
    return float(name.split("_")[1])


def comparison_table(report: dict) -> str:
    """Fixed-width strategy comparison for the CLI."""
    headers = [
        "config", "v1 ms", "push ms", "speedup", "pruned", "synopsis",
        "partials", "peak KB", "identical",
    ]
    rows = []
    for name, v1 in report["modes"]["v1"].items():
        push = report["modes"]["pushdown"][name]
        speedup = (
            v1["modelled_ms"] / push["modelled_ms"]
            if push["modelled_ms"]
            else float("inf")
        )
        rows.append([
            name,
            f"{v1['modelled_ms']:.2f}",
            f"{push['modelled_ms']:.2f}",
            f"{speedup:.1f}x",
            str(push["tiles_pruned"]),
            str(push["tiles_synopsis_answered"]),
            str(push["tiles_partial_agg"]),
            f"{push['peak_partial_bytes'] / 1024:.1f}",
            "yes" if push["digest"] == v1["digest"] else "NO",
        ])
    lines = [format_table(
        headers, rows,
        title="query engine v2: pushdown vs materialize (modelled ms)",
    )]
    lines.append("")
    box_bytes = (
        report["modes"]["v1"]["agg_add_cells"]["timing"]["cells_result"] * 4
    )
    lines.append(
        f"peak working-set bound: one tile = {report['config']['max_tile_bytes']} B"
        f" (materialized box would be {box_bytes} B)"
    )
    return "\n".join(lines)
