"""Logical query plans: scan → prune → partial-aggregate → combine → project.

The planned engine (query engine v2) separates *what* an aggregate query
does from *how* the storage layer runs it.  A :class:`QueryPlan` is built
from the parsed RaSQL statement before execution — the planned strategy
is always aggregation pushdown — and is annotated afterwards with what
actually happened: whether the exactness guards forced the
materialize-then-reduce fallback, tiles pruned by zone
maps, tiles answered straight from stored synopses, tiles decoded into
worker-side partials, and the peak of concurrently-live decoded bytes.

``EXPLAIN`` renders the annotated plan; the per-stage times still come
from the span-tree profiler (:mod:`repro.query.profile`), which
reconciles them against the simulated disk's clock.

Determinism rules the plan encodes (see DESIGN §15):

* partials are combined in **tile-id order**, never completion order, so
  repeated runs and the materialized path agree bitwise;
* pushdown of ``add_cells``/``avg_cells`` is taken only when
  :func:`~repro.index.zonemap.partial_aggregate_eligible` proves the
  exact Python-int combination reproduces the numpy accumulator — float
  sums re-associate, so they always run the materialize fallback;
* pruned tiles and uncovered space contribute default-valued cells,
  exactly as the masked materialized box would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.query.timing import QueryTiming

__all__ = ["PlanStage", "QueryPlan", "aggregate_plan", "group_by_plan"]


@dataclass
class PlanStage:
    """One operator of the logical plan, with its human-readable detail."""

    name: str
    detail: str

    def as_dict(self) -> dict:
        return {"name": self.name, "detail": self.detail}


@dataclass
class QueryPlan:
    """A logical aggregate/GROUP BY plan plus post-execution annotations.

    The *planned* strategy is always pushdown; :meth:`annotate` records
    the executed one in ``pushed`` (the storage layer falls back to the
    materialized reduction when the exactness guards reject pushdown for
    the object's actual value range).
    """

    kind: str  # "aggregate" | "group-by"
    op: str
    object_name: str
    region: str
    predicate: Optional[str] = None
    group_spec: Optional[dict[int, Sequence[tuple[int, int]]]] = None
    group_count: int = 0
    stages: list[PlanStage] = field(default_factory=list)
    # --- filled by annotate() after execution ---
    executed: bool = False
    pushed: Optional[bool] = None
    tiles_pruned: int = 0
    tiles_synopsis_answered: int = 0
    tiles_decoded: int = 0
    tiles_partial_agg: int = 0
    peak_partial_bytes: int = 0

    def annotate(self, timing: QueryTiming, pushed: bool) -> "QueryPlan":
        """Record what execution actually did (in place) and return self."""
        self.executed = True
        self.pushed = pushed
        self.tiles_pruned = timing.tiles_pruned
        self.tiles_synopsis_answered = timing.tiles_synopsis_answered
        self.tiles_decoded = timing.tiles_read
        self.tiles_partial_agg = timing.tiles_partial_agg
        self.peak_partial_bytes = timing.peak_partial_bytes
        self._rebuild_stages()
        return self

    def _rebuild_stages(self) -> None:
        self.stages = _stages_for(self)

    def format(self) -> str:
        """The EXPLAIN rendering: one line per stage, annotated."""
        strategy = "pushdown"
        if self.pushed is False:
            strategy += " -> materialize (exactness fallback)"
        header = f"QUERY PLAN ({self.kind} {self.op}, {strategy})"
        width = max(len(stage.name) for stage in self.stages)
        lines = [header]
        lines.extend(
            f"  {stage.name.ljust(width)}  {stage.detail}"
            for stage in self.stages
        )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        payload = {
            "kind": self.kind,
            "op": self.op,
            "object": self.object_name,
            "region": self.region,
            "stages": [stage.as_dict() for stage in self.stages],
        }
        if self.predicate is not None:
            payload["predicate"] = self.predicate
        if self.group_spec is not None:
            payload["group_by"] = {
                str(axis): [list(span) for span in spans]
                for axis, spans in self.group_spec.items()
            }
            payload["groups"] = self.group_count
        if self.executed:
            payload.update(
                pushed=self.pushed,
                tiles_pruned=self.tiles_pruned,
                tiles_synopsis_answered=self.tiles_synopsis_answered,
                tiles_decoded=self.tiles_decoded,
                tiles_partial_agg=self.tiles_partial_agg,
                peak_partial_bytes=self.peak_partial_bytes,
            )
        return payload


def _stages_for(plan: QueryPlan) -> list[PlanStage]:
    executed = plan.executed
    pushed = plan.pushed is not False  # planned: pushdown
    stages: list[PlanStage] = []

    scan = f"{plan.object_name}{plan.region}"
    if plan.kind == "group-by" and plan.group_spec is not None:
        axes = ", ".join(
            f"dim{axis}({', '.join(f'{lo}:{hi}' for lo, hi in spans)})"
            for axis, spans in sorted(plan.group_spec.items())
        )
        scan += f" grouped by {axes} ({plan.group_count} groups)"
    stages.append(PlanStage("scan", scan))

    if plan.predicate is not None:
        detail = f"zone maps vs `{plan.predicate}`"
        if executed:
            detail += f" — {plan.tiles_pruned} tiles pruned"
        stages.append(PlanStage("prune", detail))

    if pushed:
        detail = (
            "per-tile partials on the pipeline workers "
            "(decode, clip, mask, reduce; box never materialized)"
        )
        if executed:
            detail += (
                f" — {plan.tiles_partial_agg} tiles decoded, "
                f"{plan.tiles_synopsis_answered} synopsis-answered "
                f"(zero decode), peak {plan.peak_partial_bytes} "
                f"decoded bytes live"
            )
        stages.append(PlanStage("partial-aggregate", detail))
        detail = "partials merged in tile-id order (deterministic)"
        if plan.kind == "group-by":
            detail = f"partials routed to {plan.group_count} group cells, merged per cell in tile-id order"
        stages.append(PlanStage("combine", detail))
    else:
        detail = "compose the full box, reduce on the coordinator"
        if executed:
            detail += f" — {plan.tiles_decoded} tiles decoded"
        stages.append(
            PlanStage("materialize", detail)
        )

    if plan.kind == "group-by":
        stages.append(
            PlanStage(
                "project",
                f"float64 cube of {plan.group_count} group aggregates",
            )
        )
    else:
        stages.append(PlanStage("project", f"scalar {plan.op}"))
    return stages


def aggregate_plan(
    object_name: str,
    region: object,
    op: str,
    predicate: Optional[object] = None,
) -> QueryPlan:
    """The logical plan of a single aggregate query."""
    plan = QueryPlan(
        kind="aggregate",
        op=op,
        object_name=object_name,
        region=str(region),
        predicate=str(predicate) if predicate is not None else None,
    )
    plan._rebuild_stages()
    return plan


def group_by_plan(
    object_name: str,
    region: object,
    op: str,
    group_spec: dict[int, Sequence[tuple[int, int]]],
    group_count: int,
    predicate: Optional[object] = None,
) -> QueryPlan:
    """The logical plan of a GROUP BY (OLAP roll-up) query."""
    plan = QueryPlan(
        kind="group-by",
        op=op,
        object_name=object_name,
        region=str(region),
        predicate=str(predicate) if predicate is not None else None,
        group_spec={axis: list(spans) for axis, spans in group_spec.items()},
        group_count=group_count,
    )
    plan._rebuild_stages()
    return plan
