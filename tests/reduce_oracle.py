"""The stacked cached reduce and the per-cell combine, kept as a test oracle.

The pushdown's reduce as it was before the per-tile kernel
(``repro.storage.pipeline._Reducer``): :func:`mask` compares against a
0-d int64 (or float64) constant, so numpy promotes every cell;
:func:`summaries` masks a stack of parts with ``np.where`` and
:func:`op_partials` reduces each slice of the stack; :func:`hits` groups
cached whole tiles by shape and stacks at most ``chunk`` of them (a
copy) before reducing.  :func:`combine_aggregate` is the per-cell combine
over :class:`~repro.index.zonemap.TileSynopsis` lists that
``ReadExecutor.combine`` called once per query cell, and
:func:`partial_aggregate_eligible` the per-cell decision
``ReadExecutor.exact`` made.  The kernel and the column passes must
leave every field these read equal.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro.index.zonemap import _AVG_BOUND, _PRED_OPS, _SUM_BOUND, TileSynopsis, partial_synopsis


def mask(predicate, array: np.ndarray) -> np.ndarray:
    """``CellPredicate.mask`` as it was: the constant as a 0-d array."""
    # np.asarray gives the constant a concrete dtype, so comparison
    # follows ordinary promotion (no out-of-range surprises against
    # unsigned arrays).
    return _PRED_OPS[predicate.op](array, np.asarray(predicate.value))


def op_partials(stack: np.ndarray, op: Optional[str] = None) -> list[TileSynopsis]:
    """One partial per leading-axis slice of ``stack`` (a batch of tile
    parts), each field reduced for the whole batch in one numpy call.

    Fills only what :func:`combine_aggregate` reads for ``op``, the other
    fields staying neutral: ``count_cells`` → ``nonzero``; ``add_cells``
    / ``avg_cells`` → ``vsum``; ``min_cells`` / ``max_cells`` → the
    NaN-ignoring extreme in ``vmin`` and ``vmax`` (``None`` exactly when
    no comparable cell exists) and ``nan_count``.  ``op=None`` (and float
    sums, which never push) gets the full :func:`partial_synopsis`.
    """
    if op is None or (stack.dtype.kind == "f" and op in ("add_cells", "avg_cells")):
        return [partial_synopsis(part) for part in stack]
    cells = stack[0].size
    axes = tuple(range(1, stack.ndim))
    if op == "count_cells":  # per part: count_nonzero has no fast path along axes
        return [TileSynopsis(cells, int(np.count_nonzero(part)), None, None, 0) for part in stack]
    if op in ("add_cells", "avg_cells"):
        return [TileSynopsis(cells, 0, None, None, s) for s in stack.sum(axis=axes).tolist()]
    if op not in ("min_cells", "max_cells"):
        raise KeyError(f"unknown aggregate {op!r}")
    # fmin / fmax skip NaN: only an all-NaN part reduces to NaN
    extremes = (np.fmin if op == "min_cells" else np.fmax).reduce(stack, axis=axes).tolist()
    nans = np.isnan(stack).sum(axis=axes).tolist() if stack.dtype.kind == "f" else [0] * len(stack)
    partials = []
    for extreme, nan_count in zip(extremes, nans):
        value = None if nan_count == cells else extreme
        partials.append(TileSynopsis(cells, 0, value, value, 0, nan_count))
    return partials


def summaries(predicate, default_cell, op, stack: np.ndarray) -> list[TileSynopsis]:
    """Mask a stack of parts once and reduce it to one partial each."""
    if predicate is not None:
        stack = np.where(mask(predicate, stack), stack, default_cell)
    return op_partials(stack, op)


def parts(predicate, default_cell, op, array, domain, tile_parts) -> tuple[TileSynopsis, ...]:
    """The per-part path: each part of one tile as a stack of one."""
    return tuple(
        summaries(predicate, default_cell, op, array[part.to_slices(domain.lowest)][None])[0]
        for part in tile_parts
    )


def hits(predicate, default_cell, op, tiles, chunk: int) -> list[tuple[TileSynopsis, ...]]:
    """Partials of cached tiles ``(array, domain, parts)``, in order: with
    an op, whole tiles grouped by shape and reduced in stacks of at most
    ``chunk``; the rest per part."""
    out: list = [None] * len(tiles)
    shapes: dict[tuple, list] = {}
    for at, (array, domain, tile_parts) in enumerate(tiles):
        if op is not None and len(tile_parts) == 1 and tile_parts[0] == domain:
            shapes.setdefault(array.shape, []).append((at, array))
        else:
            out[at] = parts(predicate, default_cell, op, array, domain, tile_parts)
    for group in shapes.values():
        for start in range(0, len(group), chunk):
            batch = group[start : start + chunk]
            arrays = [array for _, array in batch]
            stack = arrays[0][None] if len(arrays) == 1 else np.stack(arrays)
            for (at, _), partial in zip(batch, summaries(predicate, default_cell, op, stack)):
                out[at] = (partial,)
    return out


def combine_aggregate(
    op: str,
    dtype: np.dtype,
    syn_parts: Sequence[TileSynopsis],
    default_cells: int,
    default: object,
    region_cells: int,
) -> Union[int, float, bool]:
    """Exact aggregate from per-tile synopses + default fill.

    ``syn_parts`` are the stored synopses of fully-covered tiles
    answered without decode and the :func:`partial_synopsis` of every
    decoded fragment; ``default_cells`` counts cells carrying the
    default value (uncovered space and virtual fragments).  Under
    :func:`partial_aggregate_eligible`'s guards the result equals
    ``AGG_FUNCS[op]`` applied to the composed region bitwise.
    """
    # the dtype's scalar, exactly what a default-filled fragment holds (a
    # default of 7 is True in a bool cube; 0.0 in a float one, not 0)
    default = dtype.type(default).item()
    if op == "count_cells":
        total = sum(s.nonzero for s in syn_parts)
        if default_cells and default != 0:  # NaN default: != 0 is True
            total += default_cells
        return total
    if op in ("min_cells", "max_cells"):
        pick = min if op == "min_cells" else max
        saw_nan = False
        values: list = []
        for syn in syn_parts:
            if syn.nan_count:
                saw_nan = True
            if syn.vmin is not None:
                values.append(syn.vmin if op == "min_cells" else syn.vmax)
        if default_cells:
            if isinstance(default, float) and math.isnan(default):
                saw_nan = True
            else:
                values.append(default)
        if saw_nan and dtype.kind == "f":
            return float("nan")  # np.min/np.max propagate NaN
        return pick(values)
    if op in ("add_cells", "avg_cells"):
        total = sum(int(s.vsum) for s in syn_parts)
        total += int(default) * default_cells  # type: ignore[call-overload]
        if op == "add_cells":
            return total
        return total / region_cells
    raise KeyError(f"unknown aggregate {op!r}")


def partial_aggregate_eligible(
    op: str,
    dtype: np.dtype,
    synopses: Iterable[Optional[TileSynopsis]],
    uncovered: int,
    default: object,
    region_cells: int,
    masked: bool = False,
) -> bool:
    """May ``op`` be computed as per-tile partials combined at the top?

    ``synopses`` covers **every** intersecting tile (``None`` when a tile
    has no synopsis).  Each contributes either its stored synopsis (fully
    covered: zero decode) or a :func:`partial_synopsis` of its decoded
    (clipped, optionally masked) cells, and the coordinator combines them
    in tile-id order.  ``count``/``min``/``max`` partials are exact
    selections and counts for every numeric dtype, so they are always
    eligible — the per-tile combination never re-associates a float sum.
    Integer ``add``/``avg`` need a synopsis-backed bound on every cell
    magnitude (tiles *and* the uncovered default): the *materialized*
    reduction this path must reproduce uses the wrapping int64/uint64
    accumulator and the float64 mean, which the exact Python-int partial
    combination only matches below those bounds; float ``add``/``avg``
    are never eligible and must fall back to materialize-then-reduce.

    ``masked`` marks a cell-predicate query: failing cells then carry
    the default value *inside* tiles, so ``|default|`` always enters the
    magnitude bound, not only when the region has uncovered space.
    """
    if dtype.fields is not None or dtype.kind not in "biuf":
        return False
    if op in ("count_cells", "min_cells", "max_cells"):
        return True
    if op not in ("add_cells", "avg_cells"):
        return False
    if dtype.kind == "f":
        return False
    max_abs = abs(default) if (uncovered or masked) else 0  # type: ignore[arg-type]
    for syn in synopses:
        if syn is None:
            return False
        if syn.cell_count == 0:
            continue
        if syn.vmin is None:
            return False
        max_abs = max(max_abs, abs(syn.vmin), abs(syn.vmax))
    bound = _SUM_BOUND if op == "add_cells" else _AVG_BOUND
    return region_cells * max_abs < bound
