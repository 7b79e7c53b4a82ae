"""The per-group GROUP BY loop, kept as a test oracle.

One complete ``aggregate_push`` per group box — its own pin, index
search, fetch and combine — in row-major group order, accumulating the
charges.  The one-pass GROUP BY must reproduce its values bitwise and
its ``pushed`` flag exactly (true here when every group combined
partials).
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.geometry import MInterval
from repro.query.timing import QueryTiming


def group_loop(obj, spans_per_axis, op, predicate=None, prune=True):
    """``(values, timing, all_pushed)``: one ``aggregate_push`` per cell
    of the span cross product, values in a float64 cube."""
    shape = tuple(len(spans) for spans in spans_per_axis)
    values = np.zeros(shape, dtype=np.float64)
    timing = QueryTiming()
    all_pushed = True
    for index, combo in zip(np.ndindex(shape), itertools.product(*spans_per_axis)):
        value, box_timing, pushed = obj.aggregate_push(
            MInterval(*zip(*combo)), op, predicate=predicate, prune=prune
        )
        all_pushed = all_pushed and pushed
        timing.add(box_timing)
        values[index] = value
    return values, timing, all_pushed
