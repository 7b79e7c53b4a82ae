"""MaxTileSize tuning for *total* access time — the paper's future work.

Section 8 closes with: "Current work focus on extending the current
tiling techniques to optimize for total access time, i.e., including
index time."  This module implements that optimisation with the static
cost model:

* smaller tiles fit queries better (fewer foreign bytes in ``t_o``) but
  multiply the tile count, deepening the index and widening leaf fan-out
  (``t_ix``), and paying more per-BLOB overheads;
* larger tiles amortise positioning but drag in border data.

``choose_max_tile_size`` sweeps candidate MaxTileSize values for a
strategy family against a query workload, scoring each candidate with
:func:`estimate_workload_cost`, and returns the winner with the full
sweep table for inspection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.errors import TilingError
from repro.core.geometry import MInterval
from repro.index.base import entry_bytes
from repro.storage.disk import DiskParameters
from repro.storage.pages import pages_needed
from repro.tiling.base import TilingStrategy
from repro.tiling.validate import access_cost

#: Factory turning a MaxTileSize into a concrete strategy.
StrategyFactory = Callable[[int], TilingStrategy]


def estimate_index_nodes(
    tile_count: int, tiles_touched: int, dim: int, page_size: int
) -> int:
    """Estimated index pages visited by one lookup.

    A paged tree over ``tile_count`` entries with fan-out derived from
    the page size: one node per level down, plus enough leaves to hold
    the touched entries.
    """
    if tile_count < 1:
        raise TilingError("tile_count must be >= 1")
    fan_out = max(2, page_size // entry_bytes(dim))
    height = max(1, math.ceil(math.log(max(tile_count, 2), fan_out)))
    leaves = max(1, math.ceil(tiles_touched / fan_out))
    return height + leaves - 1


@dataclass(frozen=True)
class CostEstimate:
    """Static estimate of one query's cost on one tiling."""

    t_o_ms: float
    t_ix_ms: float

    @property
    def total_ms(self) -> float:
        return self.t_o_ms + self.t_ix_ms


def estimate_query_cost(
    tiles: Sequence[MInterval],
    query: MInterval,
    cell_size: int,
    dim: int,
    disk: DiskParameters,
) -> CostEstimate:
    """Estimate ``t_o + t_ix`` for one query without executing it.

    ``t_o`` assumes each touched tile costs its transfer plus the
    per-BLOB overhead, with one full positioning per run of roughly
    touched tiles (tile clustering makes most follow-ups short skips).
    """
    cost = access_cost(tiles, query)
    bytes_read = cost.cells_read * cell_size
    pages = pages_needed(bytes_read, disk.page_size)
    t_o = (
        disk.random_access_ms()
        + (cost.tiles_touched - 1) * disk.short_skip_ms()
        + pages * disk.transfer_ms_per_page()
        + cost.tiles_touched * disk.blob_overhead_ms
    )
    nodes = estimate_index_nodes(
        len(tiles), cost.tiles_touched, dim, disk.page_size
    )
    t_ix = nodes * (disk.random_access_ms() + disk.transfer_ms_per_page())
    return CostEstimate(t_o_ms=t_o, t_ix_ms=t_ix)


def estimate_workload_cost(
    tiles: Sequence[MInterval],
    workload: Sequence[MInterval],
    cell_size: int,
    dim: int,
    disk: DiskParameters,
) -> float:
    """Mean estimated total access time over a workload (ms/query)."""
    if not workload:
        raise TilingError("empty workload")
    total = 0.0
    for query in workload:
        total += estimate_query_cost(tiles, query, cell_size, dim, disk).total_ms
    return total / len(workload)


@dataclass(frozen=True)
class TuningResult:
    """Outcome of a MaxTileSize sweep."""

    best_size: int
    costs: dict[int, float]          # candidate -> ms/query (total access)
    t_o_only_best: int               # winner when index time is ignored


def choose_max_tile_size(
    strategy_factory: StrategyFactory,
    domain: MInterval,
    cell_size: int,
    workload: Sequence[MInterval],
    candidates: Sequence[int],
    disk: DiskParameters | None = None,
) -> TuningResult:
    """Sweep MaxTileSize candidates and pick the total-access-time winner."""
    if not candidates:
        raise TilingError("no MaxTileSize candidates")
    disk = disk or DiskParameters()
    resolved = [q.resolve(domain) for q in workload]
    totals: dict[int, float] = {}
    t_o_only: dict[int, float] = {}
    for size in candidates:
        strategy = strategy_factory(size)
        tiles = strategy.tile(domain, cell_size).tiles
        total = 0.0
        data_only = 0.0
        for query in resolved:
            estimate = estimate_query_cost(
                tiles, query, cell_size, domain.dim, disk
            )
            total += estimate.total_ms
            data_only += estimate.t_o_ms
        totals[size] = total / len(resolved)
        t_o_only[size] = data_only / len(resolved)
    best = min(totals, key=totals.get)
    best_data = min(t_o_only, key=t_o_only.get)
    return TuningResult(best_size=best, costs=totals, t_o_only_best=best_data)
