"""Per-tile zone maps: value synopses for pruning and short-circuiting.

The spatial index answers only geometry — *which tiles intersect this
box* — so every value predicate used to decode every intersected tile.
This module adds the value dimension: a :class:`TileSynopsis` per tile
(min, max, cell count, sum, NaN count, plus an optional K-bin equi-width
occupancy bitmap) computed during ingest and published through MVCC at
the same epoch as the tile it describes.  Two read-side consumers:

* **Pruning** — :func:`synopsis_can_match` decides whether *any* cell of
  a tile can satisfy a :class:`CellPredicate`; tiles that cannot are
  skipped before ``fetch_tiles``, paying neither disk nor decode.
* **Short-circuiting** — the condensers (``count_cells`` / ``min_cells``
  / ``max_cells`` / ``add_cells`` / ``avg_cells``) over fully-covered
  tiles are answered from the synopsis with zero decode, via
  :func:`cells_eligible` / :func:`combine_cells`.

Every decision here is **conservative and exact**: a pruned tile
provably contains no matching cell (the monotone relops are decided by
applying the *same* numpy comparison to the tile's min/max, which are
actual cell values), and a synopsis-answered aggregate is only allowed
when its result is bit-identical to decoding and reducing — integer
sums/averages under overflow/precision guards, min/max/count for every
numeric dtype with explicit NaN bookkeeping.  Float sums and averages
always fall back to a full decode: float addition re-associates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from typing import Callable, Dict, Iterable, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.core.errors import IndexError_, QueryError, StorageError

__all__ = [
    "AGG_FUNCS",
    "CellPredicate",
    "TilePruner",
    "TileSynopsis",
    "ZoneColumns",
    "cells_eligible",
    "check_aggregate",
    "combine_cells",
    "compute_synopsis",
    "constant_synopsis",
    "parse_predicate",
    "partial_synopsis",
    "synopsis_can_match",
]

#: Default number of equi-width histogram bins per tile.
DEFAULT_BINS = 8

#: Most bins a bitmap may have: bit ``nbins - 1`` must fit the int64 the
#: per-cell path sums in, so the mask stays a non-negative int64.
MAX_BINS = 63

#: What a stored ``min`` / ``max`` may be (``None``: no comparable cell).
_BOUND_TYPES = {int, float, bool, type(None)}

#: Integer-sum short-circuit bound: with ``cells * max|v| < 2**63`` the
#: int64/uint64 accumulators numpy uses for ``a.sum()`` cannot wrap, so
#: the synopsis total equals the decoded total exactly.
_SUM_BOUND = 2 ** 63

#: Average short-circuit bound: with ``cells * max|v| < 2**53`` every
#: float64 partial sum inside ``np.mean`` is an exactly-representable
#: integer, so ``exact_sum / cells`` reproduces ``a.mean()`` bitwise.
_AVG_BOUND = 2 ** 53

#: Above this magnitude, distinct integers can alias under the float64
#: arithmetic the bitmap uses for bin assignment; the bitmap is then
#: neither built nor consulted (range pruning alone stays exact).
_FLOAT_EXACT_BOUND = 2 ** 53

_SYNOPSES_BUILT = obs.counter(
    "index.zone.synopses_built", "Tile zone-map synopses computed"
)


#: The condensers, exactly as the query engine applies them to a decoded
#: region (the engine imports this table) — the short-circuit path must
#: reproduce these bitwise, so there is one definition.
AGG_FUNCS: Dict[str, Callable[[np.ndarray], Union[int, float]]] = {
    "add_cells": lambda a: a.sum().item(),
    "avg_cells": lambda a: a.mean().item(),
    "max_cells": lambda a: a.max().item(),
    "min_cells": lambda a: a.min().item(),
    "count_cells": lambda a: int(np.count_nonzero(a)),
}


def check_aggregate(op: str, obj) -> None:
    """Reject an unknown condenser or a non-numeric cell type.

    ``obj`` is a stored or sharded MDD (its ``name`` and ``mdd_type``
    are all that is read) — the one validation every aggregate entry
    point runs before touching a tile.
    """
    if op not in AGG_FUNCS:
        raise QueryError(
            f"unknown aggregate {op!r}; known: {sorted(AGG_FUNCS)}"
        )
    base = obj.mdd_type.base
    if base.dtype.fields is not None:
        raise QueryError(
            f"aggregate {op!r} needs a numeric base type, object "
            f"{obj.name!r} has {base.name!r}"
        )


@dataclass(frozen=True)
class TileSynopsis:
    """Value summary of one tile (immutable; MVCC-published with it).

    ``vmin`` / ``vmax`` are actual cell values (NaN excluded) or ``None``
    when the tile holds no comparable value (empty, or all-NaN).
    ``vsum`` is the numpy-accumulator sum for integer/bool tiles (exact
    whenever the short-circuit guards admit it) and the NaN-ignoring sum
    for float tiles (informational only — float sums never
    short-circuit).  ``bins`` is a ``nbins``-bit occupancy bitmask of an
    equi-width histogram over ``[vmin, vmax]``; ``0`` means "no bitmap".
    """

    cell_count: int
    nonzero: int
    vmin: Optional[Union[int, float, bool]]
    vmax: Optional[Union[int, float, bool]]
    vsum: Union[int, float]
    nan_count: int = 0
    nbins: int = 0
    bins: int = 0

    def to_dict(self) -> dict:
        return {
            "count": self.cell_count,
            "nonzero": self.nonzero,
            "min": self.vmin,
            "max": self.vmax,
            "sum": self.vsum,
            "nan": self.nan_count,
            "nbins": self.nbins,
            "bins": self.bins,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TileSynopsis":
        """Parse :meth:`to_dict`'s form (``nan``, ``nbins`` and ``bins``
        default to 0, as in records written before bitmaps); a zone with
        a missing or mistyped field, or a bitmap wider than its ``nbins``,
        raises :class:`StorageError`."""
        try:
            counts = (
                payload["count"], payload["nonzero"], payload.get("nan", 0),
                payload.get("nbins", 0), payload.get("bins", 0),
            )
            vmin, vmax, vsum = payload["min"], payload["max"], payload["sum"]
        except (KeyError, TypeError, AttributeError) as exc:
            raise StorageError(f"malformed zone {payload!r}: {type(exc).__name__} {exc}") from None
        count, nonzero, nan_count, nbins, bins = counts
        if not (
            type(count) is type(nonzero) is type(nan_count) is type(nbins) is type(bins) is int
            and min(counts) >= 0
        ):
            problem = "a count is not a non-negative integer"
        elif type(vsum) not in (int, float) or not {type(vmin), type(vmax)} <= _BOUND_TYPES:
            problem = "min, max or sum is not a number"
        elif not _bins_allowed(nbins) or bins >= 1 << nbins:
            problem = f"bins {bins} do not fit nbins {nbins} (0 or 2..{MAX_BINS})"
        else:
            return cls(count, nonzero, vmin, vmax, vsum, nan_count, nbins, bins)
        raise StorageError(f"malformed zone {payload!r}: {problem}")

    def same_as(self, other: "TileSynopsis") -> bool:
        """Field equality with NaN treated as equal to NaN (fsck deep)."""

        def eq(a: object, b: object) -> bool:
            if (
                isinstance(a, float)
                and isinstance(b, float)
                and math.isnan(a)
                and math.isnan(b)
            ):
                return True
            return bool(a == b)

        return (
            self.cell_count == other.cell_count
            and self.nonzero == other.nonzero
            and eq(self.vmin, other.vmin)
            and eq(self.vmax, other.vmax)
            and eq(self.vsum, other.vsum)
            and self.nan_count == other.nan_count
            and self.nbins == other.nbins
            and self.bins == other.bins
        )


def _bins_allowed(nbins: int) -> bool:
    """No bitmap (0), or 2..:data:`MAX_BINS` bins."""
    return nbins == 0 or 2 <= nbins <= MAX_BINS


def _build_bitmap(
    values: np.ndarray,
    vmin: Union[int, float, bool],
    vmax: Union[int, float, bool],
    nbins: int,
) -> int:
    """Occupancy bitmask of an equi-width histogram over ``[vmin, vmax]``.

    Bin assignment runs in float64; the query side repeats the identical
    arithmetic, so a cell and an equality probe for its value always land
    in the same bin.  Skipped (returns 0) when magnitudes are large
    enough for float64 to alias distinct integers.

    Integer and bool cells spanning fewer values than they have cells
    bin each offset ``0..span`` once and look the cells' offsets up:
    below the bound ``float64(v) - float64(vmin)`` is the exact offset,
    so the table holds exactly the bins the per-cell formula gives.
    """
    if nbins < 2 or values.size == 0 or vmin >= vmax:
        return 0
    if not (
        math.isfinite(float(vmin))
        and math.isfinite(float(vmax))
        and max(abs(vmin), abs(vmax)) < _FLOAT_EXACT_BOUND
    ):
        return 0
    width = np.float64(vmax) - np.float64(vmin)
    span = int(vmax) - int(vmin)
    if values.dtype.kind in "biu" and span < values.size:
        table = _bin_of(np.arange(span + 1, dtype=np.float64), nbins, width)
        masks = np.left_shift(1, table).astype(np.min_scalar_type((1 << nbins) - 1))
        # ``values - vmin`` in the unsigned view wraps to the exact offset
        unsigned = np.dtype(f"{values.dtype.byteorder}u{values.dtype.itemsize}")
        offsets = values.view(unsigned) - np.array(vmin, values.dtype).view(unsigned)
        return int(np.bitwise_or.reduce(masks.take(offsets)))
    idx = _bin_of(values.astype(np.float64) - np.float64(vmin), nbins, width)
    occupied = np.bincount(idx, minlength=nbins) > 0
    return int(sum(1 << i for i in np.flatnonzero(occupied)))


def _bin_of(offsets: np.ndarray, nbins: int, width: np.float64) -> np.ndarray:
    """The clamped bin of each float64 offset from ``vmin``.  Offsets
    are >= 0 below the guard, so only ``vmax``'s bin ``nbins`` clamps."""
    idx = np.floor(offsets * nbins / width).astype(np.int64)
    return np.minimum(idx, nbins - 1, out=idx)


def _probe_bin(
    syn: TileSynopsis, value: Union[int, float]
) -> Optional[int]:
    """The bin an equality probe for ``value`` falls into (query side).

    ``None`` when the synopsis carries no usable bitmap; mirrors
    :func:`_build_bitmap`'s arithmetic exactly.
    """
    if syn.bins == 0 or syn.nbins < 2:
        return None
    assert syn.vmin is not None and syn.vmax is not None
    if not (
        math.isfinite(float(syn.vmin))
        and math.isfinite(float(syn.vmax))
        and max(abs(syn.vmin), abs(syn.vmax)) < _FLOAT_EXACT_BOUND
    ):
        return None
    width = np.float64(syn.vmax) - np.float64(syn.vmin)
    if width <= 0:
        return None
    idx = int(
        np.floor((np.float64(value) - np.float64(syn.vmin)) * syn.nbins / width)
    )
    return min(max(idx, 0), syn.nbins - 1)


def compute_synopsis(
    array: np.ndarray, nbins: int = DEFAULT_BINS
) -> Optional[TileSynopsis]:
    """Vectorized synopsis of one tile's cells (``None`` for struct cells).

    Runs inside the ingest workers, piggybacked on serialisation; every
    reduction is a single numpy pass.  Contract (the property tests hold
    it against brute force): ``cell_count == a.size``, ``nonzero ==
    np.count_nonzero(a)`` (NaN counts as nonzero, as numpy does),
    ``vmin``/``vmax`` are the NaN-ignoring extremes (``None`` when no
    comparable value exists), ``nan_count == isnan(a).sum()``, ``vsum``
    is the numpy-accumulator sum (ints/bools) or the NaN-ignoring sum
    (floats).  ``nbins`` is 0 (no bitmap) or 2..:data:`MAX_BINS`.
    """
    if not _bins_allowed(nbins):
        raise IndexError_(f"nbins must be 0 or 2..{MAX_BINS}, got {nbins}")
    syn = _summarize(np.asarray(array), nbins)
    if syn is not None:
        _SYNOPSES_BUILT.inc()
    return syn


def _summarize(a: np.ndarray, nbins: int) -> Optional[TileSynopsis]:
    """The reduction core shared by ingest synopses and query partials."""
    if a.dtype.fields is not None or a.dtype.kind not in "biuf":
        return None
    count = int(a.size)
    if count == 0:
        return TileSynopsis(0, 0, None, None, 0, 0, 0, 0)
    nonzero = int(np.count_nonzero(a))
    if a.dtype.kind == "f":
        nan_mask = np.isnan(a)
        nan_count = int(nan_mask.sum())
        values = a[~nan_mask].ravel() if nan_count else a.ravel()
        if values.size == 0:
            return TileSynopsis(count, nonzero, None, None, 0.0, nan_count)
        vmin = values.min().item()
        vmax = values.max().item()
        return TileSynopsis(
            count,
            nonzero,
            vmin,
            vmax,
            float(values.sum()),
            nan_count,
            nbins,
            _build_bitmap(values, vmin, vmax, nbins),
        )
    vmin = a.min().item()
    vmax = a.max().item()
    return TileSynopsis(
        count,
        nonzero,
        vmin,
        vmax,
        int(a.sum()),
        0,
        nbins,
        _build_bitmap(a.ravel(), vmin, vmax, nbins),
    )


def partial_synopsis(array: np.ndarray) -> TileSynopsis:
    """Exact value summary of one tile *fragment* (the pushdown partial).

    Computed in the read pipeline from the decoded, region-clipped
    (and predicate-masked) cells of a tile: the same reductions as
    :func:`compute_synopsis` but with no histogram bitmap and no
    ingest-side counter — this is a query-time partial aggregate, not a
    stored synopsis.  Feeding these into :func:`combine_aggregate` as
    ``syn_parts`` reproduces every condenser bitwise under the
    :func:`cells_eligible` guards, because ``nonzero`` /
    ``vmin`` / ``vmax`` / ``vsum`` / ``nan_count`` are exact properties
    of the actual cells.
    """
    a = np.asarray(array)
    syn = _summarize(a, 0)
    if syn is None:  # callers pre-check the dtype; keep the guard anyway
        raise ValueError(f"cannot summarise dtype {a.dtype}")
    return syn


def constant_synopsis(cell_count: int, value: object) -> TileSynopsis:
    """Analytic synopsis of a constant-valued (virtual) tile."""
    value = value.item() if hasattr(value, "item") else value
    if isinstance(value, float) and math.isnan(value):
        syn = TileSynopsis(
            cell_count, cell_count, None, None, 0.0, cell_count
        )
    else:
        nonzero = cell_count if value != 0 else 0
        syn = TileSynopsis(
            cell_count, nonzero, value, value, value * cell_count, 0
        )
    _SYNOPSES_BUILT.inc()
    return syn


# ---------------------------------------------------------------------------
# Cell predicates and pruning
# ---------------------------------------------------------------------------

_PRED_OPS: Dict[str, Callable] = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "=": np.equal,
    "!=": np.not_equal,
}

import re as _re

_PREDICATE_RE = _re.compile(
    r"^\s*(?:[A-Za-z_]\w*\s*)?"
    r"(?P<op><=|>=|!=|<|>|=)\s*"
    r"(?P<value>-?\d+(?:\.\d+)?)\s*$"
)


@dataclass(frozen=True)
class CellPredicate:
    """A cell-level comparison against a constant: ``cell OP value``.

    :meth:`mask` applies numpy's comparison semantics — the single
    source of truth the pruner's conservativeness is defined against
    (NaN cells fail every ordered comparison and ``=``, and satisfy
    ``!=``, exactly as numpy evaluates them).
    """

    op: str
    value: Union[int, float]

    def __post_init__(self) -> None:
        if self.op not in _PRED_OPS:
            raise ValueError(
                f"unknown predicate operator {self.op!r}; "
                f"expected one of {sorted(_PRED_OPS)}"
            )

    def mask(self, array: np.ndarray) -> np.ndarray:
        """Boolean mask of cells satisfying the predicate: numpy's promoted
        comparison, cell for cell, with the constant in the cell dtype
        whenever that gives the same answer (:func:`_operand`)."""
        return _PRED_OPS[self.op](array, _operand(self.value, array.dtype))

    def __str__(self) -> str:
        return f"cell {self.op} {self.value}"


@lru_cache(maxsize=256, typed=True)
def _operand(value: Union[int, float], dtype: np.dtype) -> object:
    """The constant a ``dtype`` array is compared against, fixed once per
    (constant, dtype): in ``dtype`` itself — no promotion of every cell —
    when that is the promoted comparison, i.e. the constant is exact in
    ``dtype`` and the promoted type holds every cell exactly (not int64
    cells against a float); else ``np.asarray(value)``."""
    promoted = np.asarray(value)
    wide_int = dtype.kind in "iu" and dtype.itemsize > 4
    if dtype.kind not in "biuf" or (wide_int and np.result_type(dtype, promoted).kind == "f"):
        return promoted
    try:
        native = dtype.type(value)
    except (OverflowError, ValueError):  # past the dtype's range
        return promoted
    return native if native.item() == value else promoted


def parse_predicate(text: str) -> CellPredicate:
    """Parse ``"> 128"`` / ``"c >= 5.5"`` / ``"!= 0"`` into a predicate."""
    match = _PREDICATE_RE.match(text)
    if match is None:
        raise ValueError(
            f"cannot parse cell predicate {text!r}; expected e.g. "
            f"'> 128', 'c <= 5.5', '!= 0'"
        )
    literal = match.group("value")
    value = float(literal) if "." in literal else int(literal)
    return CellPredicate(match.group("op"), value)


def synopsis_can_match(
    syn: TileSynopsis, predicate: CellPredicate, dtype: np.dtype
) -> bool:
    """Can *any* cell of the summarised tile satisfy the predicate?

    ``False`` is a proof (the tile is safely pruned); ``True`` is merely
    "cannot rule it out".  The monotone relops are decided by applying
    the predicate's own mask to the tile's min/max — actual cell values
    — so the decision matches :meth:`CellPredicate.mask` bit for bit.
    ``=`` additionally consults the bin-occupancy bitmap; ``!=`` prunes
    only the constant tile equal to the probe (NaN cells satisfy ``!=``).
    """
    if syn.cell_count == 0:
        return False
    if predicate.op == "!=":
        if syn.nan_count:
            return True  # NaN != x is True under numpy semantics
        if syn.vmin is None:
            return False
        if syn.vmin == syn.vmax:
            return bool(
                predicate.mask(np.asarray([syn.vmin], dtype=dtype)).any()
            )
        return True  # two distinct values cannot both equal the probe
    if syn.vmin is None:
        # Only NaN cells: every ordered comparison and ``=`` is False.
        return False
    endpoints = np.asarray([syn.vmin, syn.vmax], dtype=dtype)
    edge_match = bool(predicate.mask(endpoints).any())
    if predicate.op in ("<", "<=", ">", ">="):
        # Monotone in the cell value: satisfiable iff an extreme matches.
        return edge_match
    return edge_match or _may_equal_inside(syn, predicate.value)


def _may_equal_inside(syn: TileSynopsis, value: Union[int, float]) -> bool:
    """``=`` on a tile neither extreme of which matches: only a probe
    strictly inside the range can, and then only into an occupied bin."""
    if not (syn.vmin < value < syn.vmax):  # type: ignore[operator]
        return False
    bin_index = _probe_bin(syn, value)
    if bin_index is None:
        return True
    return bool((syn.bins >> bin_index) & 1)


class ZoneColumns:
    """The synopsis half of a tile table: row ``i`` summarises a tile by
    ``syns[i]`` (``None``: it has none), its fields laid out as columns."""

    def __init__(self, syns: Sequence[Optional[TileSynopsis]], dtype: np.dtype) -> None:
        self.syns = list(syns)
        self.dtype = dtype
        self.has = np.array([syn is not None for syn in self.syns], dtype=bool)
        self.cells = np.array([syn.cell_count if syn else 0 for syn in self.syns], dtype=np.int64)
        self.nans = np.array([syn.nan_count if syn else 0 for syn in self.syns], dtype=np.int64)
        self.comparable = np.array([syn and syn.vmin is not None for syn in self.syns], dtype=bool)

    #: The columns :meth:`stack` joined, part by part (none: built from syns).
    _parts: tuple = ()

    @classmethod
    def stack(cls, parts: Sequence["ZoneColumns"]) -> "ZoneColumns":
        """Several tables' zone columns as one, rows part by part; the
        lazy columns are joined from the parts' own, which each part
        derives once.  One part is itself."""
        if len(parts) == 1:
            return parts[0]
        stacked = cls.__new__(cls)
        stacked.syns = list(chain.from_iterable(part.syns for part in parts))
        stacked.dtype = parts[0].dtype
        for name in ("has", "cells", "nans", "comparable"):
            setattr(stacked, name, np.concatenate([getattr(part, name) for part in parts]))
        stacked._parts = tuple(parts)
        return stacked

    @cached_property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """``vmin`` / ``vmax`` cast to the cell type as :func:`synopsis_can_match`
        casts them (0 where there is none), on the first predicated read."""
        if self._parts:
            lows, highs = zip(*(part.bounds for part in self._parts))
            return np.concatenate(lows), np.concatenate(highs)
        lows = [0 if syn is None or syn.vmin is None else syn.vmin for syn in self.syns]
        highs = [0 if syn is None or syn.vmax is None else syn.vmax for syn in self.syns]
        return np.asarray(lows, dtype=self.dtype), np.asarray(highs, dtype=self.dtype)

    @cached_property
    def magnitude(self) -> np.ndarray:
        """``max(|vmin|, |vmax|)`` per row of an integer cube as uint64,
        exact at the int64 extremes (0 where a row bounds no cell), on
        the first sum or average that must be bounded."""
        if self._parts:
            return np.concatenate([part.magnitude for part in self._parts])
        return np.array([
            0 if syn is None or syn.vmin is None else max(abs(syn.vmin), abs(syn.vmax or 0))
            for syn in self.syns
        ], dtype=np.uint64)


class TilePruner:
    """Partition index hits into fetchable and provably-irrelevant tiles.

    Sits between the select's overlap mask and the fetch: one :meth:`can_match`
    call decides a whole selection over the reader's zone-map columns
    (published at the same epoch as the tile table, so synopsis and tile
    never disagree) with :func:`synopsis_can_match`'s decisions, bit for
    bit.  Tiles without a synopsis are always fetched.
    """

    def __init__(
        self,
        predicate: CellPredicate,
        zones: ZoneColumns,
        dtype: np.dtype,
    ) -> None:
        self.predicate = predicate
        self.zones = zones
        self.dtype = dtype
        #: Synopses consulted and tiles ruled out, over every call.
        self.checked = self.pruned = 0

    def can_match(self, rows: Sequence[int] | np.ndarray) -> np.ndarray:
        """Per table row of ``rows``: may that tile hold a matching cell?
        Every synopsis consulted counts in :attr:`checked`."""
        zones = self.zones
        rows = np.asarray(rows, dtype=np.intp)
        has = zones.has[rows]
        checked = int(has.sum())
        self.checked += checked
        predicate = self.predicate
        live = has & (zones.cells[rows] > 0)
        comparable = live & zones.comparable[rows]
        low, high = (column[rows] for column in zones.bounds)
        if predicate.op == "!=":  # NaN != x holds; a constant row is its one value
            constant = comparable & (low == high)
            hit = (live & (zones.nans[rows] > 0)) | (comparable & ~constant)
            hit |= constant & predicate.mask(low)
        else:  # monotone relops and "=": an extreme matches; "=" then probes bins
            hit = comparable & (predicate.mask(low) | predicate.mask(high))
            if predicate.op == "=":
                for at in np.flatnonzero(comparable & ~hit).tolist():
                    hit[at] = _may_equal_inside(zones.syns[rows[at]], predicate.value)
        self.pruned += checked - int(np.count_nonzero(hit))
        return hit | ~has


# ---------------------------------------------------------------------------
# Aggregate short-circuiting
# ---------------------------------------------------------------------------


def cells_eligible(
    op: str, dtype: np.dtype, routed: Iterable[tuple[ZoneColumns, np.ndarray, np.ndarray]],
    uncovered: Sequence[int], default: object, counts: Sequence[int], masked: bool = False,
) -> bool:
    """May ``op`` be combined from per-tile partials in every query cell?

    ``routed`` holds, per selection, its zone columns and the ``(row,
    cell)`` pairs of every non-pruned hit meeting a cell; ``uncovered``
    and ``counts`` are per cell.  ``count``/``min``/``max`` partials are
    exact for every numeric dtype.  Integer ``add``/``avg`` must match the
    wrapping int64/uint64 accumulator and the float64 mean of the
    materialized cells, so every routed hit needs a synopsis and
    ``cells * max|v|`` stays below ``_SUM_BOUND`` / ``_AVG_BOUND``: one
    grouped max of the rows' magnitudes per cell, compared in uint64 with
    ``(bound - 1) // cells``.  ``|default|`` enters the cells with
    uncovered space — every cell when ``masked`` (a cell predicate puts
    the default inside tiles).  Float ``add``/``avg`` never qualify.
    """
    if dtype.fields is not None or dtype.kind not in "biuf":
        return False
    if op in ("count_cells", "min_cells", "max_cells"):
        return True
    if op not in ("add_cells", "avg_cells") or dtype.kind == "f":
        return False
    bound = _SUM_BOUND if op == "add_cells" else _AVG_BOUND
    sizes = np.asarray(counts, dtype=np.uint64)
    peak = np.zeros(len(sizes), dtype=np.uint64)
    for zones, rows, cells in routed:
        live = zones.cells[rows] > 0  # an empty tile bounds nothing
        if not (zones.has[rows].all() and zones.comparable[rows[live]].all()):
            return False
        np.maximum.at(peak, cells, zones.magnitude[rows])
    if not (peak <= (bound - 1) // sizes).all():  # cells * peak < bound; cells >= 1
        return False
    needs = np.ones(len(sizes), dtype=bool) if masked else np.asarray(uncovered) != 0
    magnitude = abs(default)  # type: ignore[arg-type]
    return all(size * magnitude < bound for size in set(sizes[needs].tolist()))


def combine_cells(
    op: str, dtype: np.dtype, cells: np.ndarray, parts: Sequence[TileSynopsis],
    keys: np.ndarray, default_cells: Sequence[int], default: object, counts: Sequence[int],
) -> list:
    """Every query cell's exact aggregate from its partials, as column passes.

    ``parts`` are answered tiles' synopses and decoded fragments'
    partials; ``cells`` and ``keys`` (int64 rows, compared
    lexicographically) give each one's query cell and combine order, and
    ``default_cells`` the cells per query cell holding the default.
    Counts and integer sums add in int64 and an average divides in
    float64, exact under :func:`cells_eligible`'s guards; an extreme is
    the first in key order of the smallest (largest) value, the default
    last, and NaN propagates in a float cube.  Per cell the value is
    ``AGG_FUNCS[op]`` of the composed cell, bitwise.
    """
    # the dtype's scalar, exactly what a default-filled fragment holds (a
    # default of 7 is True in a bool cube; 0.0 in a float one, not 0)
    default = dtype.type(default).item()
    cells = np.asarray(cells, dtype=np.intp)
    fill = np.asarray(default_cells, dtype=np.int64)
    if op in ("count_cells", "add_cells", "avg_cells"):
        fields = [syn.nonzero if op == "count_cells" else int(syn.vsum) for syn in parts]
        totals = np.zeros(len(fill), dtype=np.int64)
        np.add.at(totals, cells, np.array(fields, dtype=np.int64))
        if op == "count_cells":
            totals += fill * (default != 0)  # NaN default: != 0 is True
        elif default and fill.any():
            totals += int(default) * fill  # type: ignore[call-overload]
        if op == "avg_cells":
            return (totals / np.asarray(counts, dtype=np.int64)).tolist()
        return totals.tolist()
    if op not in ("min_cells", "max_cells"):
        raise KeyError(f"unknown aggregate {op!r}")
    nan = np.zeros(len(fill), dtype=bool)
    nan[cells[[syn.nan_count > 0 for syn in parts]]] = True
    has = np.array([syn.vmin is not None for syn in parts], dtype=bool)
    pick = "vmin" if op == "min_cells" else "vmax"
    extremes = [getattr(syn, pick) for syn in parts if syn.vmin is not None]
    filled = np.flatnonzero(fill)
    if isinstance(default, float) and math.isnan(default):
        nan[filled] = True
        filled = filled[:0]
    last = np.full((len(filled), keys.shape[1]), np.iinfo(np.int64).max)  # the default
    values = np.array(extremes + [default] * len(filled), dtype=dtype)
    owner = np.concatenate([cells[has], filled])
    # per cell, the smallest (largest: sort reversed, keys negated) value,
    # then the first in key order: the first-met of equal extremes wins
    sign = 1 if op == "min_cells" else -1
    order = sign * np.concatenate([keys[has], last])
    sort = np.lexsort((*order.T[::-1], values, owner))[::sign]
    picked = sort[np.flatnonzero(np.diff(owner[sort], prepend=-1))]
    out: list = [None] * len(fill)
    for cell, value in zip(owner[picked].tolist(), values[picked].tolist()):
        out[cell] = value
    for cell in np.flatnonzero(nan).tolist() if dtype.kind == "f" else ():
        out[cell] = float("nan")  # np.min/np.max propagate NaN
    return out
