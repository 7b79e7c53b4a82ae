"""Logical query plans: scan → prune → partial-aggregate → combine → project.

The planned engine (query engine v2) separates *what* an aggregate query
does from *how* the storage layer runs it.  A :class:`QueryPlan` is a
rendering of one executed aggregate or GROUP BY statement: its shape
(op, object, region, predicate, group spec), the
:class:`~repro.query.timing.QueryTiming` the executor recorded, and
whether the exactness guards let pushdown run (``pushed``) or forced
the materialize-then-reduce fallback.  The stage text — tiles pruned
by zone maps, answered straight from stored synopses, decoded into
worker-side partials, the peak of concurrently-live decoded bytes — is
computed from that record whenever the plan is rendered.

``EXPLAIN`` renders the plan above the per-stage walls of the same
record (:mod:`repro.query.profile`).

Determinism rules the plan encodes (see DESIGN §15):

* partials are combined in **tile-id order**, never completion order, so
  repeated runs and the materialized path agree bitwise;
* pushdown of ``add_cells``/``avg_cells`` is taken only when
  :func:`~repro.index.zonemap.cells_eligible` proves the
  exact integer combination reproduces the numpy accumulator — float
  sums re-associate, so they always run the materialize fallback;
* pruned tiles and uncovered space contribute default-valued cells,
  exactly as the masked materialized box would.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Optional, Sequence

from repro.query.timing import QueryTiming

__all__ = ["QueryPlan"]


@dataclass(frozen=True)
class QueryPlan:
    """One executed aggregate/GROUP BY statement, rendered on demand.

    The *planned* strategy is always pushdown; ``pushed`` is the
    executed one (the storage layer falls back to the materialized
    reduction when the exactness guards reject pushdown for the
    object's actual value range).  ``group_spec`` maps each grouped axis
    to its clipped spans; ``None`` makes the plan a scalar aggregate.
    """

    op: str
    object_name: str
    region: object
    predicate: Optional[object]
    timing: QueryTiming
    pushed: bool
    group_spec: Optional[dict[int, Sequence[tuple[int, int]]]] = None

    @property
    def kind(self) -> str:
        return "aggregate" if self.group_spec is None else "group-by"

    @property
    def group_count(self) -> int:
        """Cells of the GROUP BY cross product (ungrouped axes count 1)."""
        return prod(len(spans) for spans in (self.group_spec or {}).values())

    @property
    def stages(self) -> list[tuple[str, str]]:
        """``(operator, detail)`` per stage, from the shape and the record."""
        timing, groups = self.timing, self.group_count
        scan = f"{self.object_name}{self.region}"
        if self.group_spec is not None:
            axes = ", ".join(
                f"dim{axis}({', '.join(f'{lo}:{hi}' for lo, hi in spans)})"
                for axis, spans in sorted(self.group_spec.items())
            )
            scan += f" grouped by {axes} ({groups} groups)"
        stages = [("scan", scan)]
        if self.predicate is not None:
            stages.append((
                "prune",
                f"zone maps vs `{self.predicate}` — "
                f"{timing.tiles_pruned} tiles pruned",
            ))
        if self.pushed:
            stages.append((
                "partial-aggregate",
                "per-tile partials on the pipeline workers "
                "(decode, clip, mask, reduce; box never materialized)"
                f" — {timing.tiles_partial_agg} tiles decoded, "
                f"{timing.tiles_synopsis_answered} synopsis-answered "
                f"(zero decode), peak {timing.peak_partial_bytes} "
                f"decoded bytes live",
            ))
            stages.append((
                "combine",
                "partials merged in tile-id order (deterministic)"
                if self.group_spec is None
                else f"partials routed to {groups} group cells, "
                "merged per cell in tile-id order",
            ))
        else:
            stages.append((
                "materialize",
                "compose the full box, reduce on the coordinator"
                f" — {timing.tiles_decoded} tiles decoded",
            ))
        stages.append((
            "project",
            f"scalar {self.op}"
            if self.group_spec is None
            else f"float64 cube of {groups} group aggregates",
        ))
        return stages

    def format(self) -> str:
        """The EXPLAIN rendering: one line per stage, annotated."""
        strategy = "pushdown"
        if not self.pushed:
            strategy += " -> materialize (exactness fallback)"
        stages = self.stages
        width = max(len(name) for name, _ in stages)
        lines = [f"QUERY PLAN ({self.kind} {self.op}, {strategy})"]
        lines.extend(f"  {name.ljust(width)}  {detail}" for name, detail in stages)
        return "\n".join(lines)

    def as_dict(self) -> dict:
        payload: dict = {
            "kind": self.kind,
            "op": self.op,
            "object": self.object_name,
            "region": str(self.region),
            "stages": [
                {"name": name, "detail": detail} for name, detail in self.stages
            ],
        }
        if self.predicate is not None:
            payload["predicate"] = str(self.predicate)
        if self.group_spec is not None:
            payload["group_by"] = {
                str(axis): [list(span) for span in spans]
                for axis, spans in self.group_spec.items()
            }
            payload["groups"] = self.group_count
        timing = self.timing
        payload.update(
            pushed=self.pushed,
            tiles_pruned=timing.tiles_pruned,
            tiles_synopsis_answered=timing.tiles_synopsis_answered,
            tiles_decoded=timing.tiles_decoded,
            tiles_partial_agg=timing.tiles_partial_agg,
            peak_partial_bytes=timing.peak_partial_bytes,
        )
        return payload
