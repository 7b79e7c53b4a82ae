"""Zone-map pruning benchmark: selectivity sweep vs full scan.

Loads the Section 6.1 sales cube with a value-friendly tiling — tiles
elongated along time so each covers few product x store combinations,
giving tiles genuinely distinct value ranges — then sweeps threshold
predicates from ~0.1% to 100% selectivity and reads the cube twice per
point:

* ``full``   — the masked read with pruning disabled (``prune=False``):
  every intersected tile is fetched and decoded, the pre-zone-map cost;
* ``pruned`` — the same read with the zone map consulted between
  ``index.search()`` and the fetch: one columnar
  :class:`~repro.index.zonemap.TilePruner` mask over the selection's
  synopsis columns.

The acceptance verdicts are deterministic and live in ``identity``
(gated in CI): the pruned result must be **byte-identical** to the full
scan at every selectivity point, and all five condensers over the whole
cube must be answered from synopses with **zero tiles decoded** while
matching brute-force numpy reductions exactly.  Modelled-time speedups
(``t_o + t_ix_pages``, deterministic) live in ``performance`` and are
reported but never gated on; the headline figure is the speedup at <= 1%
selectivity, where pruning drops nearly every tile.
"""

from __future__ import annotations

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
from repro.index.zonemap import AGG_FUNCS, CellPredicate
from repro.storage.tilestore import Database

#: Tile shape: full time axis, one product x two stores per tile ->
#: 3000 tiles of ~5.7 KB whose value ranges differ strongly (the gamma
#: popularity factors live on the product and store axes, so few
#: combinations per tile keep per-tile maxima far apart).
TILE_SHAPE = (730, 1, 2)

#: Target match fractions for the threshold sweep (1.0 = full scan).
SELECTIVITIES = (0.001, 0.01, 0.05, 0.25, 1.0)


def _load_cube(data: np.ndarray) -> tuple[Database, object]:
    from repro.tiling.base import grid_partition

    database = Database()
    mdd = database.create_object("bench", sales_mdd_type(), "sales")
    boxes = grid_partition(SALES_DOMAIN, TILE_SHAPE)
    from repro.core.mdd import Tile

    origin = SALES_DOMAIN.lowest
    tiles = [Tile(box, data[box.to_slices(origin)]) for box in boxes]
    mdd.write_tiles(tiles)
    database.reset_clock()
    return database, mdd


def _thresholds(data: np.ndarray) -> Dict[str, dict]:
    """One ``> t`` predicate per target selectivity (quantile-derived)."""
    points: Dict[str, dict] = {}
    for target in SELECTIVITIES:
        if target >= 1.0:
            threshold = int(data.min()) - 1  # everything matches
        else:
            threshold = int(np.quantile(data, 1.0 - target))
        points[f"{target:g}"] = {
            "target_selectivity": target,
            "threshold": threshold,
            "actual_selectivity": float((data > threshold).mean()),
        }
    return points


def _read_point(mdd, predicate: CellPredicate, prune: bool, runs: int) -> dict:
    walls: List[float] = []
    array = timing = None
    for _ in range(max(1, runs)):
        started = time.perf_counter()
        array, timing = mdd.read(
            SALES_DOMAIN, predicate=predicate, prune=prune
        )
        walls.append((time.perf_counter() - started) * 1000.0)
    return {
        "digest": digest(array),
        "wall_ms": float(np.mean(walls)),
        "wall_ms_min": float(np.min(walls)),
        "modelled_ms": timing.t_o + timing.t_ix_pages,
        "tiles_read": timing.tiles_read,
        "tiles_pruned": timing.tiles_pruned,
        "bytes_read": timing.bytes_read,
        "timing": timing.as_dict(),
    }


def _condensers(mdd, data: np.ndarray, runs: int) -> Dict[str, dict]:
    """All five condensers over the whole cube, synopsis vs decode."""
    out: Dict[str, dict] = {}
    for op in sorted(AGG_FUNCS):
        walls: List[float] = []
        value = timing = None
        for _ in range(max(1, runs)):
            started = time.perf_counter()
            value, timing = mdd.aggregate(SALES_DOMAIN, op)
            walls.append((time.perf_counter() - started) * 1000.0)
        decoded_value, decoded_timing = mdd.aggregate(
            SALES_DOMAIN, op, prune=False
        )
        expected = AGG_FUNCS[op](data)
        out[op] = {
            "value": value,
            "decoded_value": decoded_value,
            "expected": expected,
            "exact": bool(value == expected == decoded_value),
            "tiles_read": timing.tiles_read,
            "tiles_synopsis_answered": timing.tiles_synopsis_answered,
            "wall_ms": float(np.mean(walls)),
            "modelled_ms": timing.t_o + timing.t_ix_pages,
            "decoded_modelled_ms": (
                decoded_timing.t_o + decoded_timing.t_ix_pages
            ),
        }
    return out


def run_prune_bench(
    runs: int = 3,
    artifact_dir: Optional[Union[str, Path]] = None,
) -> dict:
    """Run the selectivity sweep and return the comparison dict."""
    data = generate_sales_data()
    database, mdd = _load_cube(data)
    points = _thresholds(data)
    modes: Dict[str, Dict[str, dict]] = {"full": {}, "pruned": {}}
    for point, meta in points.items():
        predicate = CellPredicate(">", meta["threshold"])
        modes["full"][point] = _read_point(
            mdd, predicate, prune=False, runs=runs
        )
        modes["pruned"][point] = _read_point(
            mdd, predicate, prune=True, runs=runs
        )
    condensers = _condensers(mdd, data, runs)
    tile_count = len(mdd.tile_entries())
    database.close()
    report = {
        "label": "prune",
        "created_unix": time.time(),
        "config": {
            "domain": str(SALES_DOMAIN),
            "tile_shape": list(TILE_SHAPE),
            "tile_count": tile_count,
            "runs": runs,
            "selectivities": list(SELECTIVITIES),
            "points": points,
        },
        "modes": modes,
        "condensers": condensers,
        "identity": _verdicts(modes, condensers, tile_count),
        "performance": _performance(modes, points),
        "registry": obs.snapshot(),
    }
    return write_report(report, artifact_dir)


def _verdicts(
    modes: Dict[str, Dict[str, dict]],
    condensers: Dict[str, dict],
    tile_count: int,
) -> dict:
    """Deterministic acceptance checks (gated on in CI)."""
    return {
        "byte_identical_all": all(
            modes["pruned"][p]["digest"] == modes["full"][p]["digest"]
            for p in modes["full"]
        ),
        "tiles_pruned_at_low_selectivity": (
            min(
                entry["tiles_pruned"]
                for point, entry in modes["pruned"].items()
                if float(point) <= 0.01
            )
            > 0
        ),
        "full_scan_never_prunes": all(
            entry["tiles_pruned"] == 0 for entry in modes["full"].values()
        ),
        "condensers_zero_decode": all(
            c["tiles_read"] == 0
            and c["tiles_synopsis_answered"] == tile_count
            for c in condensers.values()
        ),
        "condensers_exact": all(c["exact"] for c in condensers.values()),
    }


def _performance(
    modes: Dict[str, Dict[str, dict]], points: Dict[str, dict]
) -> dict:
    """Modelled-time ratios (deterministic, reported but not CI-gated)."""
    out: dict = {}
    low_speedups = []
    for point in points:
        full = modes["full"][point]["modelled_ms"]
        pruned = modes["pruned"][point]["modelled_ms"]
        speedup = full / pruned if pruned else float("inf")
        out[f"modelled_speedup_{point}"] = speedup
        if float(point) <= 0.01:
            low_speedups.append(speedup)
    out["modelled_speedup_5x_at_1pct"] = bool(
        low_speedups and min(low_speedups) >= 5.0
    )
    return out


def comparison_table(report: dict) -> str:
    """Fixed-width selectivity sweep for the CLI."""
    headers = [
        "selectivity", "threshold", "matched", "pruned", "full ms",
        "pruned ms", "speedup",
    ]
    rows = []
    tile_count = report["config"]["tile_count"]
    for point, meta in report["config"]["points"].items():
        full = report["modes"]["full"][point]
        pruned = report["modes"]["pruned"][point]
        speedup = (
            full["modelled_ms"] / pruned["modelled_ms"]
            if pruned["modelled_ms"]
            else float("inf")
        )
        rows.append([
            point,
            f"> {meta['threshold']}",
            f"{meta['actual_selectivity'] * 100:.2f}%",
            f"{pruned['tiles_pruned']}/{tile_count}",
            f"{full['modelled_ms']:.2f}",
            f"{pruned['modelled_ms']:.2f}",
            f"{speedup:.1f}x",
        ])
    lines = [format_table(
        headers, rows, title="zone-map pruning (sales cube, modelled ms)"
    )]
    lines.append("")
    lines.append("condensers over the whole cube (synopsis short-circuit):")
    for op, entry in report["condensers"].items():
        lines.append(
            f"  {op}: value={entry['value']} tiles_read={entry['tiles_read']}"
            f" synopsis_answered={entry['tiles_synopsis_answered']}"
            f" exact={entry['exact']}"
        )
    return "\n".join(lines)
