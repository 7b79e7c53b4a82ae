"""EXPLAIN ANALYZE for tile-store reads: per-stage wall and model time.

:func:`profile_read` runs one range query and assembles a
:class:`QueryProfile` from three sources that already exist — the
query's :class:`~repro.query.timing.QueryTiming`, the span tree the
tracer recorded while the read ran, and the simulated disk's modelled
clock — then reconciles them:

* **Modelled time** is exact: the disk clock advanced by precisely the
  charges this query reported (``t_o`` for tile retrieval plus
  ``t_ix_pages`` for index-node page reads), so
  ``disk_ms_delta == t_o + t_ix_pages`` up to float re-association
  (checked to :data:`MODELLED_TOLERANCE_MS`, a nanosecond).
* **Wall time** is approximate: the ``tilestore.read`` span's duration
  must cover its child stages and sit within a tolerance of the wall
  clock measured around the whole call — Python-level bookkeeping
  between spans keeps this from ever being exact.

The profiler reads the tracer ring *by span id* (snapshot before,
diff after), so concurrent queries on other threads don't leak into
the profile — only the tree rooted at this read's own
``tilestore.read`` span is kept.  The modelled-disk reconciliation,
by contrast, diffs a process-wide clock: run profiles on a quiescent
database (the intended use) or the delta includes other readers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.query.plan import QueryPlan, aggregate_plan
from repro.query.timing import QueryTiming

#: Modelled reconciliation slack: the disk accumulates charges into one
#: running float while the query sums ``t_o`` and ``t_ix_pages``
#: separately, so the two totals may differ by re-association noise —
#: never by a real charge (the smallest modelled charge is ~1e-3 ms).
MODELLED_TOLERANCE_MS = 1e-6

#: Default wall-clock slack (ms) between the root span and the wall
#: time measured around the call, and for child-stage coverage.
WALL_TOLERANCE_MS = 5.0


@dataclass
class StageProfile:
    """One pipeline stage: measured wall time next to the model's claim."""

    name: str
    #: Span duration in ms; ``None`` when tracing was disabled.
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
    #: Wall ms measured around the whole ``read`` call.
    wall_ms: float
    #: Advance of the simulated disk's modelled clock during the read.
    disk_ms_delta: float
    #: Span dicts of this query's tree (root first), empty if tracing
    #: was disabled.
    spans: Tuple[dict, ...] = ()
    #: The annotated logical plan, for planned (aggregate) profiles.
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
    def root_wall_ms(self) -> Optional[float]:
        """Duration of the query's root span, if traced."""
        if not self.spans:
            return None
        return self.spans[0]["duration_ms"]

    def wall_reconciles(self, tolerance_ms: float = WALL_TOLERANCE_MS) -> Optional[bool]:
        """Span walls are consistent with the measured wall clock.

        The root span must sit within ``tolerance_ms`` of the wall time
        measured around the call, and the direct child stages must fit
        inside the root (children are disjoint phases of the read;
        worker-side decode / partial-aggregate spans overlap the fetch
        stage, so they are excluded from the sum).
        Returns ``None`` when tracing was disabled (nothing to check).
        """
        root = self.root_wall_ms
        if root is None:
            return None
        if abs(self.wall_ms - root) > tolerance_ms:
            return False
        child_sum = sum(
            s.wall_ms for s in self.stages
            if s.wall_ms is not None
            and s.name not in ("decode", "partial-aggregate")
        )
        return child_sum <= root + tolerance_ms

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
            "spans": list(self.spans),
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
        root = self.root_wall_ms
        lines += [
            f"{'total':<{width}} "
            f"{(f'{root:.3f}' if root is not None else '-'):>10} "
            f"{timing.t_totalcpu:>10.3f}",
            "",
            f"tiles      : {timing.tiles_read} read "
            f"({timing.decoded_hits} decoded-cache hits, "
            f"{timing.decoded_misses} decoded), "
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
        ]
        wall_ok = self.wall_reconciles()
        if wall_ok is None:
            lines.append("wall check : n/a (tracing disabled)")
        else:
            lines.append(
                f"wall check : call {self.wall_ms:.3f} ms vs root span "
                f"{root:.3f} ms -> "
                f"{'within tolerance' if wall_ok else 'MISMATCH'}"
            )
        return "\n".join(lines)


def _query_tree(
    before_ids: set, tracer, root_name: str = "tilestore.read"
) -> Tuple[list, dict]:
    """This query's finished spans: the tree under its ``root_name`` span.

    Diffs the tracer ring against the pre-read snapshot, finds the new
    root, and keeps only spans reachable from it — spans from concurrent
    queries on other threads are left out.
    """
    new = [s for s in tracer.finished() if s.span_id not in before_ids]
    root = next((s for s in new if s.name == root_name), None)
    if root is None:
        return [], {}
    keep = {root.span_id}
    # Children finish before parents, so one reverse sweep by id order
    # is not enough; iterate until the reachable set stops growing.
    grew = True
    while grew:
        grew = False
        for span in new:
            if span.span_id in keep or span.parent_id not in keep:
                continue
            keep.add(span.span_id)
            grew = True
    tree = [s for s in new if s.span_id in keep]
    by_name: Dict[str, list] = {}
    for span in tree:
        by_name.setdefault(span.name, []).append(span)
    return [root] + [s for s in tree if s is not root], by_name


def _wall(by_name: Dict[str, list], span_name: str) -> Optional[float]:
    """Duration of the query's first span of that name, if traced."""
    spans = by_name.get(span_name)
    return spans[0].duration_ms if spans else None


def _head_stages(timing, predicate, by_name) -> List[StageProfile]:
    """``index`` → ``prune`` (predicated queries only) → ``fetch``: the
    stages every read query starts with."""
    stages = [
        StageProfile(
            "index",
            _wall(by_name, "index.search"),
            timing.t_ix,
            {
                "nodes": timing.index_nodes,
                "model_pages_ms": round(timing.t_ix_pages, 6),
                "measured_cpu_ms": round(timing.t_ix - timing.t_ix_pages, 6),
            },
        ),
    ]
    if predicate is not None:
        # The pruning decision is pure synopsis arithmetic folded into
        # the read span — no wall or model component of its own.
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
            _wall(by_name, "tilestore.fetch"),
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
    return stages


def _profiled(
    database, collection: str, name: str, region, predicate, call, root_name
) -> Tuple[tuple, QueryProfile, Dict[str, list]]:
    """Run ``call`` — a query returning ``(value, timing, ...)`` — and
    capture what a profile reconciles: the caller-side wall time, the
    simulated disk clock's advance and the span tree under the
    ``root_name`` span.  Returns the call's result, the profile with its
    stages filled in up to ``fetch``, and the tree's spans by name."""
    tracer = obs.tracer
    before_ids = {s.span_id for s in tracer.finished()}
    disk_before = database.disk.counters.time_ms
    started = time.perf_counter()
    result = call()
    wall_ms = (time.perf_counter() - started) * 1000.0
    disk_delta = database.disk.counters.time_ms - disk_before
    tree, by_name = _query_tree(before_ids, tracer, root_name)
    timing = result[1]
    profile = QueryProfile(
        collection=collection,
        object_name=name,
        region=str(region),
        timing=timing,
        stages=_head_stages(timing, predicate, by_name),
        wall_ms=wall_ms,
        disk_ms_delta=disk_delta,
        spans=tuple(s.as_dict() for s in tree),
    )
    return result, profile, by_name


def profile_read(
    database, collection: str, name: str, region, predicate=None
) -> QueryProfile:
    """Run one read with per-stage profiling (see module docstring).

    ``region`` is an :class:`~repro.core.geometry.MInterval` (or
    anything ``StoredMDD.read`` accepts).  ``predicate`` (a
    :class:`~repro.index.zonemap.CellPredicate`) profiles a masked read:
    a ``prune`` stage reports the tiles the zone maps dropped before
    fetch.  Uses the live tracer when enabled; with observability off
    the profile still carries the timing breakdown and the
    modelled-disk reconciliation, just no per-stage walls.
    """
    obj = database.collection(collection)[name]
    (_out, timing), profile, by_name = _profiled(
        database, collection, name, region, predicate,
        lambda: obj.read(region, predicate=predicate),
        "tilestore.read",
    )
    decode_spans = by_name.get("pipeline.decode", [])
    if decode_spans:
        profile.stages.append(
            StageProfile(
                "decode",
                sum(s.duration_ms for s in decode_spans),
                None,  # decode CPU is folded into the fetch model's t_o
                {"workers": len(decode_spans)},
            )
        )
    profile.stages.append(
        StageProfile(
            "compose",
            _wall(by_name, "tilestore.compose"),
            timing.t_cpu,
            {"cells": timing.cells_result},
        )
    )
    return profile


def profile_aggregate(
    database,
    collection: str,
    name: str,
    region,
    op: str,
    predicate=None,
) -> QueryProfile:
    """Profile one planned aggregate query (EXPLAIN for the v2 engine).

    Runs ``op`` over ``region`` through
    :meth:`StoredMDD.aggregate_push`, reconciling the same three sources
    as :func:`profile_read` — the :class:`QueryTiming`, the span tree under
    the ``tilestore.aggregate`` root, and the simulated disk clock.
    The returned profile carries the annotated
    :class:`~repro.query.plan.QueryPlan`, whose rendering leads the
    ``format()`` output (scan → prune → partial-aggregate → combine →
    project, with tiles pruned / synopsis-answered / decoded).
    """
    obj = database.collection(collection)[name]
    plan = aggregate_plan(
        name, obj.resolve_region(region), op, predicate=predicate
    )
    (_value, timing, pushed), profile, by_name = _profiled(
        database, collection, name, region, predicate,
        lambda: obj.aggregate_push(region, op, predicate=predicate),
        "tilestore.aggregate",
    )
    plan.annotate(timing, pushed)
    profile.plan = plan
    partial_spans = by_name.get("pipeline.partial_agg", [])
    if partial_spans or timing.tiles_partial_agg:
        profile.stages.append(
            StageProfile(
                "partial-aggregate",
                sum(s.duration_ms for s in partial_spans) or None,
                None,  # worker CPU overlaps the fetch model's t_o
                {
                    "tiles": timing.tiles_partial_agg,
                    "peak_partial_bytes": timing.peak_partial_bytes,
                },
            )
        )
    # An untraced or materialized run has no combine span: report compose.
    sink = "combine" if "tilestore.combine" in by_name else "compose"
    profile.stages.append(
        StageProfile(
            sink,
            _wall(by_name, f"tilestore.{sink}"),
            timing.t_cpu,
            {
                "synopsis_answered": timing.tiles_synopsis_answered,
                "order": "tile-id",
            },
        )
    )
    return profile
