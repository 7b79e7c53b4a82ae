"""Query engine: executes range queries and aggregates over stored MDDs.

The engine is the RasDaMan-evaluator stand-in: it resolves query regions,
drives the index → disk → compose pipeline of :class:`StoredMDD` and
applies aggregation operations.  Every query it runs lands in the
database's :class:`~repro.stats.log.AccessLog` (the storage layer
records it), so statistic tiling can learn from a session's history.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.core.errors import QueryError
from repro.core.geometry import MInterval
from repro.index.zonemap import AGG_FUNCS, CellPredicate, check_aggregate
from repro.query.plan import QueryPlan
from repro.query.result import QueryResult

_RANGE_QUERIES = obs.counter("query.range_queries", "Range queries executed")
_SECTION_QUERIES = obs.counter("query.section_queries", "Section queries executed")
_AGGREGATE_QUERIES = obs.counter(
    "query.aggregate_queries", "Aggregate (condenser) queries executed"
)
_GROUP_BY_QUERIES = obs.counter(
    "query.group_by_queries", "GROUP BY (roll-up) queries executed"
)


if TYPE_CHECKING:  # imported for annotations only (avoids a cycle with storage)
    from repro.storage.tilestore import Database, StoredMDD

AggFunc = Callable[[np.ndarray], Union[int, float]]

#: RasQL condenser operations supported by the engine — one definition,
#: shared with the zone-map short-circuit path so both reduce bitwise
#: identically (:data:`repro.index.zonemap.AGG_FUNCS`).
AGGREGATES: dict[str, AggFunc] = AGG_FUNCS


class QueryEngine:
    """Evaluates region and aggregate queries against a database."""

    def __init__(self, database: Database) -> None:
        self.database = database

    # ------------------------------------------------------------------
    # Object resolution
    # ------------------------------------------------------------------

    def object(self, collection: str, name: Optional[str] = None) -> StoredMDD:
        """Find an object; with no name the collection must hold exactly one."""
        coll = self.database.collection(collection)
        if name is not None:
            try:
                return coll[name]
            except KeyError:
                raise QueryError(
                    f"no object {name!r} in collection {collection!r}"
                ) from None
        if len(coll) != 1:
            raise QueryError(
                f"collection {collection!r} holds {len(coll)} objects; "
                f"name one explicitly"
            )
        return next(iter(coll.values()))

    # ------------------------------------------------------------------
    # Query forms
    # ------------------------------------------------------------------

    def range_query(
        self, obj: StoredMDD, region: MInterval
    ) -> QueryResult:
        """Access types (a)-(c): trim the object to a region."""
        data, timing = obj.read(region)
        _RANGE_QUERIES.inc()
        return QueryResult(
            value=data,
            timing=timing,
            region=obj.resolve_region(region),
            object_name=obj.name,
        )

    def filtered_range_query(
        self,
        obj: StoredMDD,
        region: MInterval,
        predicate: CellPredicate,
        prune: bool = True,
    ) -> QueryResult:
        """Range query with a cell-level predicate (``c > 128``-style).

        Cells failing the predicate carry the base type's default value;
        zone-map pruning skips tiles that provably hold no matching cell
        before they are fetched (``prune=False`` verifies byte-identity).
        """
        data, timing = obj.read(region, predicate=predicate, prune=prune)
        _RANGE_QUERIES.inc()
        return QueryResult(
            value=data,
            timing=timing,
            region=obj.resolve_region(region),
            object_name=obj.name,
        )

    def whole_object(self, obj: StoredMDD) -> QueryResult:
        """Access type (a)."""
        if obj.current_domain is None:
            raise QueryError(f"object {obj.name!r} holds no tiles yet")
        return self.range_query(obj, obj.current_domain)

    def section_query(
        self, obj: StoredMDD, axis: int, coordinate: int
    ) -> QueryResult:
        """Access type (d): dimension-reducing slice."""
        data, timing = obj.read_section(axis, coordinate)
        _SECTION_QUERIES.inc()
        return QueryResult(
            value=data, timing=timing, region=None, object_name=obj.name
        )

    def aggregate_query(
        self,
        obj: StoredMDD,
        region: MInterval,
        op: str,
        predicate: Optional[CellPredicate] = None,
        prune: bool = True,
    ) -> QueryResult:
        """Condense a region with one of the RasQL condensers.

        Routes through :meth:`StoredMDD.aggregate_push`: zone maps
        prune, stored synopses answer fully-covered tiles with zero
        decode, and the remaining tiles are reduced to partials **on the
        pipeline workers** — the query box is never materialized, and
        the coordinator combines partials in tile-id order.  The storage
        layer falls back to materialize-then-reduce whenever the
        exactness guards reject pushdown, so the result is
        bitwise-identical either way; the
        :class:`~repro.query.plan.QueryPlan` on the result renders which
        branch ran from the query's record.
        """
        check_aggregate(op, obj)
        value, timing, pushed = obj.aggregate_push(
            region, op, predicate=predicate, prune=prune
        )
        _AGGREGATE_QUERIES.inc()
        resolved = obj.resolve_region(region)
        return QueryResult(
            value=value,
            timing=timing,
            region=resolved,
            object_name=obj.name,
            plan=QueryPlan(op, obj.name, resolved, predicate, timing, pushed),
        )

    def group_by_query(
        self,
        obj: StoredMDD,
        region: MInterval,
        op: str,
        group_spec: Mapping[int, Sequence[tuple[int, int]]],
        predicate: Optional[CellPredicate] = None,
        prune: bool = True,
    ) -> QueryResult:
        """One aggregate per cell of the GROUP BY interval cross product.

        ``group_spec`` maps an axis to its closed coordinate spans (the
        OLAP category intervals), each clipped to the query region's
        extent on that axis — a span that misses the region is an error;
        axes absent from it form a single group spanning the region's
        full extent.  The whole roll-up is one
        :meth:`StoredMDD.aggregate_push` with ``groups``: one snapshot,
        one index search, each tile fetched once and its partials routed
        to the group cells it meets.  The result is a float64 cube
        shaped by the span counts, exactly as
        :class:`~repro.query.olap.RollUp` lays its values out;
        ``groups`` lists the spans actually aggregated.
        """
        check_aggregate(op, obj)
        region = obj.resolve_region(region)
        for axis in group_spec:
            if not 0 <= axis < region.dim:
                raise QueryError(
                    f"GROUP BY axis dim{axis} out of range for "
                    f"{region.dim}-d object {obj.name!r}"
                )
        spans_per_axis: list[list[tuple[int, int]]] = []
        for axis in range(region.dim):
            low, high = region.lowest[axis], region.highest[axis]
            spans = group_spec.get(axis)
            if spans is None:
                spans_per_axis.append([(low, high)])
                continue
            if not spans:
                raise QueryError(f"GROUP BY axis {axis} lists no intervals")
            clipped: list[tuple[int, int]] = []
            for lo, hi in spans:
                if lo > hi:
                    raise QueryError(
                        f"GROUP BY interval {lo}:{hi} on axis {axis} "
                        f"is empty"
                    )
                if hi < low or lo > high:
                    raise QueryError(
                        f"GROUP BY interval {lo}:{hi} on axis {axis} "
                        f"misses the query region {region}"
                    )
                clipped.append((max(int(lo), low), min(int(hi), high)))
            spans_per_axis.append(clipped)
        values, timing, all_pushed = obj.aggregate_push(
            region, op, predicate=predicate, prune=prune,
            groups=spans_per_axis,
        )
        _GROUP_BY_QUERIES.inc()
        return QueryResult(
            value=values,
            timing=timing,
            region=region,
            object_name=obj.name,
            plan=QueryPlan(
                op, obj.name, region, predicate, timing, all_pushed,
                {axis: spans_per_axis[axis] for axis in group_spec},
            ),
            groups=tuple(tuple(spans) for spans in spans_per_axis),
        )
