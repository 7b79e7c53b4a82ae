"""EXPLAIN ANALYZE for tile-store reads: per-stage wall and model time.

:func:`profile_read` runs one query — a range read, or with ``op`` a
planned aggregate — and renders its
:class:`~repro.query.timing.QueryTiming` as a :class:`QueryProfile`.
The record carries both clocks of every stage: the executor's measured
walls (``select_ms`` / ``fetch_ms`` / ``sink_ms``, plus the summed
per-tile ``decode_ms``) beside the modelled components (``t_ix`` /
``t_o`` / ``t_cpu``).  Two checks reconcile it with the clocks around
the call:

* **Modelled time** is exact: the simulated disk's clock advanced by
  precisely the charges this query reported (``t_o`` for tile retrieval
  plus ``t_ix_pages`` for index-node page reads), so
  ``disk_ms_delta == t_o + t_ix_pages`` up to float re-association
  (checked to :data:`MODELLED_TOLERANCE_MS`, a nanosecond).
* **Wall time** is approximate: the wall clock measured around the
  whole call, less the three coordinator stages, must stay within
  :data:`WALL_TOLERANCE_MS` — the remainder is Python bookkeeping
  between the stages (view pin, metrics, access log).  Decode runs
  inside the fetch stage, so it is not part of the sum.

The stage walls are the query's own record, measured whether
observability is on or off, so queries on other threads never leak into
them.  The modelled-disk reconciliation, by contrast, diffs a
process-wide clock: run profiles on a quiescent database (the intended
use) or the delta includes other readers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.query.plan import QueryPlan
from repro.query.timing import QueryTiming

#: Modelled reconciliation slack: the disk accumulates charges into one
#: running float while the query sums ``t_o`` and ``t_ix_pages``
#: separately, so the two totals may differ by re-association noise —
#: never by a real charge (the smallest modelled charge is ~1e-3 ms).
MODELLED_TOLERANCE_MS = 1e-6

#: Default wall-clock slack (ms) between the wall time measured around
#: the call and the sum of the executor's coordinator stages.
WALL_TOLERANCE_MS = 5.0


@dataclass
class StageProfile:
    """One pipeline stage: measured wall time next to the model's claim."""

    name: str
    #: Measured wall ms; ``None`` for ``prune``, whose synopsis
    #: arithmetic is timed inside the index stage's select wall.
    wall_ms: Optional[float]
    #: The stage's share of :class:`QueryTiming`; ``None`` when the
    #: timing model has no component for this stage.
    modelled_ms: Optional[float]
    detail: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "wall_ms": self.wall_ms,
            "modelled_ms": self.modelled_ms,
            "detail": dict(self.detail),
        }


@dataclass
class QueryProfile:
    """Per-query execution profile (the ``repro explain`` payload)."""

    collection: str
    object_name: str
    region: str
    timing: QueryTiming
    stages: List[StageProfile]
    #: Wall ms measured around the whole call.
    wall_ms: float
    #: Advance of the simulated disk's modelled clock during the call.
    disk_ms_delta: float
    #: The executed plan, for aggregate profiles.
    plan: Optional[QueryPlan] = None

    # -- reconciliation ----------------------------------------------------

    @property
    def modelled_ms(self) -> float:
        """The query's total modelled disk charge: ``t_o + t_ix_pages``."""
        return self.timing.t_o + self.timing.t_ix_pages

    @property
    def modelled_reconciles(self) -> bool:
        """Disk clock advanced by exactly this query's modelled charges."""
        return math.isclose(
            self.disk_ms_delta,
            self.modelled_ms,
            rel_tol=0.0,
            abs_tol=MODELLED_TOLERANCE_MS,
        )

    @property
    def stage_wall_ms(self) -> float:
        """Wall ms of the coordinator stages: select + fetch + sink."""
        timing = self.timing
        return timing.select_ms + timing.fetch_ms + timing.sink_ms

    def wall_reconciles(self, tolerance_ms: float = WALL_TOLERANCE_MS) -> bool:
        """The coordinator stages account for the call's wall clock to
        within ``tolerance_ms``."""
        return abs(self.wall_ms - self.stage_wall_ms) <= tolerance_ms

    # -- presentation ------------------------------------------------------

    def as_dict(self) -> dict:
        payload = {
            "collection": self.collection,
            "object": self.object_name,
            "region": self.region,
            "wall_ms": self.wall_ms,
            "disk_ms_delta": self.disk_ms_delta,
            "modelled_ms": self.modelled_ms,
            "modelled_reconciles": self.modelled_reconciles,
            "wall_reconciles": self.wall_reconciles(),
            "timing": self.timing.as_dict(),
            "stages": [stage.as_dict() for stage in self.stages],
        }
        if self.plan is not None:
            payload["plan"] = self.plan.as_dict()
        return payload

    def format(self) -> str:
        """EXPLAIN ANALYZE-style text report."""
        timing = self.timing
        lines = [
            f"EXPLAIN ANALYZE  {self.collection}.{self.object_name}{self.region}",
        ]
        if self.plan is not None:
            lines += ["", self.plan.format()]
        width = max(10, *(len(stage.name) for stage in self.stages))
        lines += [
            "",
            f"{'stage':<{width}} {'wall ms':>10} {'model ms':>10}  detail",
        ]
        for stage in self.stages:
            wall = f"{stage.wall_ms:.3f}" if stage.wall_ms is not None else "-"
            model = (
                f"{stage.modelled_ms:.3f}"
                if stage.modelled_ms is not None
                else "-"
            )
            detail = " ".join(f"{k}={v}" for k, v in stage.detail.items())
            lines.append(
                f"{stage.name:<{width}} {wall:>10} {model:>10}  {detail}"
            )
        lines += [
            f"{'total':<{width}} {self.stage_wall_ms:>10.3f} "
            f"{timing.t_totalcpu:>10.3f}",
            "",
            f"tiles      : {timing.tiles_read} read "
            f"({timing.decoded_hits} decoded-cache hits, "
            f"{timing.tiles_decoded} decoded), "
            f"{timing.tiles_pruned} pruned, "
            f"{timing.tiles_synopsis_answered} synopsis-answered, "
            f"{timing.tiles_partial_agg} partial-aggregated, "
            f"{timing.index_nodes} index nodes visited",
            f"bytes      : {timing.bytes_read} moved, "
            f"{timing.pages_read} pages, "
            f"{timing.cells_fetched} cells fetched for "
            f"{timing.cells_result} result cells "
            f"(amplification {timing.read_amplification:.2f})",
            f"pool       : {timing.pool_hits} hits / "
            f"{timing.pool_misses} misses",
            f"model check: disk clock advanced {self.disk_ms_delta:.6f} ms, "
            f"query charged {self.modelled_ms:.6f} ms "
            f"(t_o + t_ix_pages) -> "
            f"{'exact' if self.modelled_reconciles else 'MISMATCH'}",
            f"wall check : call {self.wall_ms:.3f} ms vs stages "
            f"{self.stage_wall_ms:.3f} ms -> "
            f"{'within tolerance' if self.wall_reconciles() else 'MISMATCH'}",
        ]
        return "\n".join(lines)


def _stages(
    timing: QueryTiming, predicate, op: Optional[str], pushed: bool
) -> List[StageProfile]:
    """``index`` → ``prune`` (predicated only) → ``fetch`` → ``decode``
    or ``partial-aggregate`` (when tiles were decoded) → ``compose`` or
    ``combine``, every figure read off the query's record."""
    stages = [
        StageProfile(
            "index",
            timing.select_ms,
            timing.t_ix,
            {
                "nodes": timing.index_nodes,
                "model_pages_ms": round(timing.t_ix_pages, 6),
                "measured_cpu_ms": round(timing.t_ix - timing.t_ix_pages, 6),
            },
        ),
    ]
    if predicate is not None:
        stages.append(
            StageProfile(
                "prune",
                None,
                None,
                {
                    "predicate": str(predicate),
                    "tiles_pruned": timing.tiles_pruned,
                },
            )
        )
    stages.append(
        StageProfile(
            "fetch",
            timing.fetch_ms,
            timing.t_o,
            {
                "tiles": timing.tiles_read,
                "bytes": timing.bytes_read,
                "pages": timing.pages_read,
                "decoded_hits": timing.decoded_hits,
                "pool_hits": timing.pool_hits,
            },
        )
    )
    # Decode CPU runs inside the fetch, whose model is t_o: no modelled share.
    if pushed and timing.tiles_partial_agg:
        stages.append(
            StageProfile(
                "partial-aggregate",
                timing.decode_ms,
                None,
                {
                    "tiles": timing.tiles_partial_agg,
                    "peak_partial_bytes": timing.peak_partial_bytes,
                },
            )
        )
    elif not pushed and timing.tiles_decoded:
        stages.append(
            StageProfile(
                "decode", timing.decode_ms, None, {"tiles": timing.tiles_decoded}
            )
        )
    if op is None:
        sink, detail = "compose", {"cells": timing.cells_result}
    else:
        sink = "combine" if pushed else "compose"
        detail = {
            "synopsis_answered": timing.tiles_synopsis_answered,
            "order": "tile-id",
        }
    stages.append(StageProfile(sink, timing.sink_ms, timing.t_cpu, detail))
    return stages


def profile_read(
    database,
    collection: str,
    name: str,
    region,
    predicate=None,
    op: Optional[str] = None,
) -> QueryProfile:
    """Run one query with per-stage profiling (see module docstring).

    ``region`` is an :class:`~repro.core.geometry.MInterval` (or
    anything ``StoredMDD.read`` accepts).  ``predicate`` (a
    :class:`~repro.index.zonemap.CellPredicate`) profiles a masked read:
    a ``prune`` stage reports the tiles the zone maps dropped before
    fetch.  ``op`` (a condenser name) runs the query through
    :meth:`StoredMDD.aggregate_push` instead; the profile then carries
    the executed :class:`~repro.query.plan.QueryPlan`, whose rendering
    leads the ``format()`` output.
    """
    obj = database.collection(collection)[name]
    disk_before = database.disk.counters.time_ms
    started = time.perf_counter()
    if op is None:
        timing, pushed = obj.read(region, predicate=predicate)[1], False
    else:
        _value, timing, pushed = obj.aggregate_push(region, op, predicate=predicate)
    wall_ms = (time.perf_counter() - started) * 1000.0
    disk_delta = database.disk.counters.time_ms - disk_before
    plan = None
    if op is not None:
        plan = QueryPlan(
            op, name, obj.resolve_region(region), predicate, timing, pushed
        )
    return QueryProfile(
        collection=collection,
        object_name=name,
        region=str(region),
        timing=timing,
        stages=_stages(timing, predicate, op, pushed),
        wall_ms=wall_ms,
        disk_ms_delta=disk_delta,
        plan=plan,
    )
