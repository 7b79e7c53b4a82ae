"""Geometry kernel: points and multidimensional intervals.

This module implements the spatial vocabulary of the paper (Section 3):

* points in ``Z^d`` with the row-major (*lower-than*) total order;
* ``MInterval`` — a closed multidimensional interval
  ``[l_1:u_1, ..., l_d:u_d]``, the shape of spatial domains, tiles and
  query regions;
* open ("unlimited") bounds written ``*`` in the paper, used by definition
  domains such as ``[0:*, 0:1023]``.

Every interval is immutable; all algebra (intersection, hull, difference,
splitting) returns new objects.  Tiles and query regions must be fully
bounded; definition domains may be open along any axis.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import (
    DimensionMismatchError,
    GeometryError,
    OpenBoundError,
)

#: Sentinel used in constructor arguments for an unlimited bound (paper: ``*``).
OPEN = None

Point = Tuple[int, ...]

_INTERVAL_RE = re.compile(r"^\s*\[(.*)\]\s*$")


def point_lower_than(x: Sequence[int], y: Sequence[int]) -> bool:
    """Return True if ``x < y`` in the paper's *lower-than* order.

    The order is lexicographic on coordinates, which coincides with C
    row-major array order (Section 3): ``x < y`` iff at the first differing
    axis ``k``, ``x_k < y_k``.
    """
    if len(x) != len(y):
        raise DimensionMismatchError(
            f"cannot order points of dims {len(x)} and {len(y)}"
        )
    return tuple(x) < tuple(y)


def _check_axis(value: object, name: str) -> Optional[int]:
    """Validate one bound value: an int or OPEN (None)."""
    if value is OPEN:
        return None
    if isinstance(value, bool) or not isinstance(value, (int,)):
        raise GeometryError(f"{name} bound must be int or OPEN, got {value!r}")
    return int(value)


class MInterval:
    """A closed multidimensional interval ``[l_1:u_1, ..., l_d:u_d]``.

    Bounds are inclusive on both ends, matching the paper's notation: the
    interval ``[0:9]`` contains ten points.  A bound may be *open*
    (``MInterval.OPEN`` / ``None``), rendering as ``*``; open intervals are
    only legal as definition domains and query templates, never as tiles.

    Instances are immutable, hashable and usable as dict keys.
    """

    OPEN = OPEN

    __slots__ = ("_lo", "_hi", "_shape")

    def __init__(
        self,
        lower: Sequence[Optional[int]],
        upper: Sequence[Optional[int]],
    ) -> None:
        if len(lower) != len(upper):
            raise DimensionMismatchError(
                f"lower has {len(lower)} axes, upper has {len(upper)}"
            )
        if not lower:
            raise GeometryError("an interval needs at least one axis")
        lo = tuple(_check_axis(v, "lower") for v in lower)
        hi = tuple(_check_axis(v, "upper") for v in upper)
        for axis, (l, u) in enumerate(zip(lo, hi)):
            if l is not None and u is not None and l > u:
                raise GeometryError(
                    f"axis {axis}: lower bound {l} exceeds upper bound {u}"
                )
        self._lo = lo
        self._hi = hi

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def bounded(cls, lower: Sequence[int], upper: Sequence[int]) -> "MInterval":
        """Build from bounds already known valid — plain ints, ``lower <=
        upper`` per axis, e.g. a tile clipped to a query box — unchecked."""
        box = cls.__new__(cls)
        box._lo, box._hi = tuple(lower), tuple(upper)
        return box

    @classmethod
    def of(cls, *bounds: Tuple[Optional[int], Optional[int]]) -> "MInterval":
        """Build from per-axis ``(lower, upper)`` pairs.

        >>> MInterval.of((0, 9), (10, 19))
        MInterval('[0:9,10:19]')
        """
        if not bounds:
            raise GeometryError("MInterval.of needs at least one axis")
        lo = [b[0] for b in bounds]
        hi = [b[1] for b in bounds]
        return cls(lo, hi)

    @classmethod
    def from_shape(
        cls, shape: Sequence[int], origin: Optional[Sequence[int]] = None
    ) -> "MInterval":
        """Build a box of the given extents anchored at ``origin`` (default 0).

        >>> MInterval.from_shape((3, 4))
        MInterval('[0:2,0:3]')
        """
        if origin is None:
            origin = [0] * len(shape)
        if len(origin) != len(shape):
            raise DimensionMismatchError("origin and shape dims differ")
        for axis, extent in enumerate(shape):
            if extent < 1:
                raise GeometryError(f"axis {axis}: extent must be >= 1")
        lo = list(origin)
        hi = [o + e - 1 for o, e in zip(origin, shape)]
        return cls(lo, hi)

    @classmethod
    def parse(cls, text: str) -> "MInterval":
        """Parse the paper's bracket notation, e.g. ``"[32:59,*:*,28:35]"``.

        ``*`` denotes an open bound on that side.
        """
        match = _INTERVAL_RE.match(text)
        if match is None:
            raise GeometryError(f"not an interval literal: {text!r}")
        body = match.group(1).strip()
        if not body:
            raise GeometryError("empty interval literal")
        lo: list[Optional[int]] = []
        hi: list[Optional[int]] = []
        for part in body.split(","):
            pieces = part.split(":")
            if len(pieces) != 2:
                raise GeometryError(f"bad axis spec {part!r} in {text!r}")
            raw_l, raw_u = (p.strip() for p in pieces)
            lo.append(None if raw_l == "*" else int(raw_l))
            hi.append(None if raw_u == "*" else int(raw_u))
        return cls(lo, hi)

    @classmethod
    def hull_of(cls, intervals: Iterable["MInterval"]) -> "MInterval":
        """Minimal bounded interval covering all inputs (closure operation).

        One ``min`` / ``max`` per axis over the inputs' bound columns
        instead of one intermediate interval per step — this sits on the
        index's MBR-maintenance hot path.  Raises :class:`GeometryError`
        on an empty iterable.
        """
        boxes = list(intervals)
        if not boxes:
            raise GeometryError("hull_of needs at least one interval")
        dim = boxes[0].dim
        for iv in boxes:
            if iv.dim != dim:
                raise DimensionMismatchError(
                    f"cannot hull intervals of dims {dim} and {iv.dim}"
                )
        lo = [None if None in axis else min(axis) for axis in zip(*[iv._lo for iv in boxes])]
        hi = [None if None in axis else max(axis) for axis in zip(*[iv._hi for iv in boxes])]
        return cls(lo, hi)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def dim(self) -> int:
        """Number of axes (the paper's dimensionality ``d``)."""
        return len(self._lo)

    @property
    def lower(self) -> Tuple[Optional[int], ...]:
        """Per-axis lower bounds; ``None`` marks an open bound."""
        return self._lo

    @property
    def upper(self) -> Tuple[Optional[int], ...]:
        """Per-axis upper bounds; ``None`` marks an open bound."""
        return self._hi

    @property
    def is_bounded(self) -> bool:
        """True when no bound is open."""
        return None not in self._lo and None not in self._hi

    def _require_bounded(self, op: str) -> None:
        if not self.is_bounded:
            raise OpenBoundError(f"{op} requires fixed bounds, got {self}")

    @property
    def shape(self) -> Tuple[int, ...]:
        """Inclusive extent per axis: ``u_i - l_i + 1`` (kept once
        computed: a tile's shape is read once per decode)."""
        try:
            return self._shape
        except AttributeError:
            self._require_bounded("shape")
            self._shape = tuple(u - l + 1 for l, u in zip(self._lo, self._hi))  # type: ignore
            return self._shape

    @property
    def cell_count(self) -> int:
        """Number of integer points inside the interval."""
        count = 1
        for extent in self.shape:
            count *= extent
        return count

    @property
    def lowest(self) -> Point:
        """The lowest vertex ``(l_1, ..., l_d)`` under the lower-than order."""
        self._require_bounded("lowest")
        return self._lo  # type: ignore[return-value]

    @property
    def highest(self) -> Point:
        """The highest vertex ``(u_1, ..., u_d)``."""
        self._require_bounded("highest")
        return self._hi  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------

    def _check_dim(self, other: "MInterval") -> None:
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"dim {self.dim} interval combined with dim {other.dim}"
            )

    def contains_point(self, point: Sequence[int]) -> bool:
        """True if the integer point lies inside (open bounds always pass)."""
        if len(point) != self.dim:
            raise DimensionMismatchError(
                f"point of dim {len(point)} tested against dim {self.dim}"
            )
        for coord, l, u in zip(point, self._lo, self._hi):
            if l is not None and coord < l:
                return False
            if u is not None and coord > u:
                return False
        return True

    def contains(self, other: "MInterval") -> bool:
        """True if ``other`` lies fully inside ``self``.

        Open bounds on ``self`` accept anything on that side; an open bound
        on ``other`` is only contained by an equally open bound of ``self``.
        """
        self._check_dim(other)
        for sl, su, ol, ou in zip(self._lo, self._hi, other._lo, other._hi):
            if sl is not None and (ol is None or ol < sl):
                return False
            if su is not None and (ou is None or ou > su):
                return False
        return True

    def intersects(self, other: "MInterval") -> bool:
        """True if the two intervals share at least one point."""
        self._check_dim(other)
        for sl, su, ol, ou in zip(self._lo, self._hi, other._lo, other._hi):
            if su is not None and ol is not None and su < ol:
                return False
            if ou is not None and sl is not None and ou < sl:
                return False
        return True

    def is_adjacent(self, other: "MInterval", axis: int) -> bool:
        """True if the two bounded boxes touch face-to-face along ``axis``
        and agree exactly on every other axis (so their union is a box)."""
        self._check_dim(other)
        self._require_bounded("is_adjacent")
        other._require_bounded("is_adjacent")
        for ax in range(self.dim):
            if ax == axis:
                continue
            if self._lo[ax] != other._lo[ax] or self._hi[ax] != other._hi[ax]:
                return False
        return (
            self._hi[axis] + 1 == other._lo[axis]  # type: ignore[operator]
            or other._hi[axis] + 1 == self._lo[axis]  # type: ignore[operator]
        )

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------

    def intersection(self, other: "MInterval") -> Optional["MInterval"]:
        """The common sub-interval, or ``None`` when disjoint."""
        self._check_dim(other)
        if not self.intersects(other):
            return None
        lo: list[Optional[int]] = []
        hi: list[Optional[int]] = []
        for sl, su, ol, ou in zip(self._lo, self._hi, other._lo, other._hi):
            if sl is None:
                lo.append(ol)
            elif ol is None:
                lo.append(sl)
            else:
                lo.append(max(sl, ol))
            if su is None:
                hi.append(ou)
            elif ou is None:
                hi.append(su)
            else:
                hi.append(min(su, ou))
        return MInterval(lo, hi)

    def hull(self, other: "MInterval") -> "MInterval":
        """Minimal interval containing both (the paper's closure operation)."""
        self._check_dim(other)
        if self.is_bounded and other.is_bounded:  # both already validated
            return MInterval.bounded(
                tuple(map(min, self._lo, other._lo)),  # type: ignore
                tuple(map(max, self._hi, other._hi)),  # type: ignore
            )
        return MInterval.hull_of((self, other))

    def translate(self, offset: Sequence[int]) -> "MInterval":
        """Shift the interval by an integer vector (open bounds stay open)."""
        if len(offset) != self.dim:
            raise DimensionMismatchError("offset dim mismatch")
        lo = [None if l is None else l + o for l, o in zip(self._lo, offset)]
        hi = [None if u is None else u + o for u, o in zip(self._hi, offset)]
        return MInterval(lo, hi)

    def resolve(self, domain: "MInterval") -> "MInterval":
        """Replace open bounds with the corresponding bounds of ``domain``.

        Used to turn query templates like ``[32:59,*:*,28:35]`` into concrete
        regions against an object's current domain.
        """
        self._check_dim(domain)
        lo = [d if s is None else s for s, d in zip(self._lo, domain._lo)]
        hi = [d if s is None else s for s, d in zip(self._hi, domain._hi)]
        if any(v is None for v in lo + hi):
            raise OpenBoundError(
                f"resolving {self} against open domain {domain} stays open"
            )
        return MInterval(lo, hi)

    def split(self, axis: int, coordinate: int) -> Tuple["MInterval", "MInterval"]:
        """Cut with the hyperplane ``x_axis = coordinate``.

        Returns ``(low_part, high_part)`` where the low part ends at
        ``coordinate - 1`` and the high part starts at ``coordinate``.
        ``coordinate`` must lie strictly inside the axis extent.
        """
        self._require_bounded("split")
        if not 0 <= axis < self.dim:
            raise GeometryError(f"axis {axis} out of range for dim {self.dim}")
        l, u = self._lo[axis], self._hi[axis]
        if not (l < coordinate <= u):  # type: ignore[operator]
            raise GeometryError(
                f"split coordinate {coordinate} outside ({l}, {u}] on axis {axis}"
            )
        low_hi = list(self._hi)
        low_hi[axis] = coordinate - 1
        high_lo = list(self._lo)
        high_lo[axis] = coordinate
        return MInterval(self._lo, low_hi), MInterval(high_lo, self._hi)

    def difference(self, other: "MInterval") -> list["MInterval"]:
        """``self`` minus ``other`` as a list of disjoint boxes.

        The decomposition slabs axis by axis; the result is empty when
        ``other`` covers ``self`` and is ``[self]`` when they are disjoint.
        """
        self._require_bounded("difference")
        inter = self.intersection(other)
        if inter is None:
            return [self]
        pieces: list[MInterval] = []
        remaining = self
        for axis in range(self.dim):
            r_lo, r_hi = remaining._lo[axis], remaining._hi[axis]
            i_lo, i_hi = inter._lo[axis], inter._hi[axis]
            if i_lo > r_lo:  # type: ignore[operator]
                below, remaining = remaining.split(axis, i_lo)  # type: ignore[arg-type]
                pieces.append(below)
            if i_hi < r_hi:  # type: ignore[operator]
                remaining, above = remaining.split(axis, i_hi + 1)  # type: ignore[operator]
                pieces.append(above)
        return pieces

    # ------------------------------------------------------------------
    # Array integration
    # ------------------------------------------------------------------

    def to_slices(self, origin: Optional[Sequence[int]] = None) -> Tuple[slice, ...]:
        """Numpy slice tuple addressing this box inside an array whose index
        0 corresponds to ``origin`` (default: this interval's own lower
        corner, giving ``slice(0, shape_i)`` per axis).
        """
        self._require_bounded("to_slices")
        if origin is None:
            origin = self.lowest
        if len(origin) != self.dim:
            raise DimensionMismatchError("origin dim mismatch")
        return tuple(
            slice(l - o, u - o + 1)
            for l, u, o in zip(self._lo, self._hi, origin)  # type: ignore[operator]
        )

    def linear_offset(self, point: Sequence[int]) -> int:
        """Row-major offset of ``point`` within this interval.

        This realises the paper's implicit linear cell ordering used to
        serialise tiles into BLOBs.
        """
        self._require_bounded("linear_offset")
        if not self.contains_point(point):
            raise GeometryError(f"point {tuple(point)} outside {self}")
        offset = 0
        for coord, l, extent in zip(point, self._lo, self.shape):
            offset = offset * extent + (coord - l)  # type: ignore[operator]
        return offset

    def point_at_offset(self, offset: int) -> Point:
        """Inverse of :meth:`linear_offset`."""
        self._require_bounded("point_at_offset")
        if not 0 <= offset < self.cell_count:
            raise GeometryError(f"offset {offset} outside [0, {self.cell_count})")
        coords: list[int] = []
        for extent in reversed(self.shape):
            coords.append(offset % extent)
            offset //= extent
        coords.reverse()
        return tuple(c + l for c, l in zip(coords, self._lo))  # type: ignore[operator]

    def points(self) -> Iterator[Point]:
        """Iterate all integer points in row-major (lower-than) order.

        Only sensible for small intervals; intended for tests and small
        sparse structures.
        """
        self._require_bounded("points")
        ranges = [range(l, u + 1) for l, u in zip(self._lo, self._hi)]  # type: ignore[arg-type, operator]
        return itertools.product(*ranges)

    def section(self, axis: int, coordinate: int) -> "MInterval":
        """The degenerate slab ``x_axis = coordinate`` of this interval
        (still dim-d, extent 1 along ``axis``) — access type (d) of §5.1."""
        if not 0 <= axis < self.dim:
            raise GeometryError(f"axis {axis} out of range for dim {self.dim}")
        l, u = self._lo[axis], self._hi[axis]
        if (l is not None and coordinate < l) or (u is not None and coordinate > u):
            raise GeometryError(
                f"section coordinate {coordinate} outside axis {axis} of {self}"
            )
        lo = list(self._lo)
        hi = list(self._hi)
        lo[axis] = coordinate
        hi[axis] = coordinate
        return MInterval(lo, hi)

    def project_out(self, axis: int) -> "MInterval":
        """Drop one axis (dimension reduction after taking a section)."""
        if self.dim == 1:
            raise GeometryError("cannot project the only axis away")
        if not 0 <= axis < self.dim:
            raise GeometryError(f"axis {axis} out of range for dim {self.dim}")
        lo = list(self._lo)
        hi = list(self._hi)
        del lo[axis], hi[axis]
        return MInterval(lo, hi)

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MInterval):
            return NotImplemented
        return self._lo == other._lo and self._hi == other._hi

    def __hash__(self) -> int:
        return hash((self._lo, self._hi))

    def __repr__(self) -> str:
        return f"MInterval({str(self)!r})"

    def __str__(self) -> str:
        axes = ",".join(
            f"{'*' if l is None else l}:{'*' if u is None else u}"
            for l, u in zip(self._lo, self._hi)
        )
        return f"[{axes}]"

    def __contains__(self, point: object) -> bool:
        if isinstance(point, MInterval):
            return point.dim == self.dim and self.contains(point)
        if isinstance(point, Sequence) and not isinstance(point, (str, bytes)):
            if len(point) != self.dim:
                return False
            return self.contains_point(point)  # type: ignore[arg-type]
        return False


def total_cells(intervals: Iterable[MInterval]) -> int:
    """Sum of cell counts over an iterable of bounded intervals."""
    return sum(iv.cell_count for iv in intervals)


def pairwise_disjoint(intervals: Sequence[MInterval]) -> bool:
    """True if no two intervals in the sequence intersect, by one
    :func:`overlapping_pairs` sweep over their packed bounds."""
    return len(intervals) < 2 or not len(
        overlapping_pairs(pack_bounds(intervals, intervals[0].dim))
    )


def covers_exactly(parts: Sequence[MInterval], whole: MInterval) -> bool:
    """True if ``parts`` are disjoint and tile ``whole`` with no gap."""
    return pairwise_disjoint(parts) and fills(parts, whole)


def fills(parts: Sequence[MInterval], whole: MInterval) -> bool:
    """True if ``parts`` lie inside ``whole`` and their cells sum to its
    own — an exact cover when the parts are disjoint, since equal total
    volume inside the region implies full cover."""
    if not all(whole.contains(p) for p in parts):
        return False
    return total_cells(parts) == whole.cell_count


#: Int64 stand-ins for open bounds in packed arrays.
NEG_INF = np.iinfo(np.int64).min
POS_INF = np.iinfo(np.int64).max


def pack_bounds(boxes: Sequence[Optional[MInterval]], dim: int) -> np.ndarray:
    """Pack intervals into an ``(n, 2, dim)`` int64 array of bounds.

    ``[:, 0, :]`` holds lower bounds, ``[:, 1, :]`` upper bounds.  Open
    bounds become int64 ±infinity sentinels so comparisons still work; a
    ``None`` box (an empty node) packs to an inverted interval that
    intersects nothing.
    """
    rows: list[tuple] = []
    for box in boxes:
        if box is None:
            rows.append((POS_INF,) * dim + (NEG_INF,) * dim)
            continue
        if box.dim != dim:
            raise DimensionMismatchError(f"cannot pack {box} as {dim}-d")
        row = box._lo + box._hi
        if None in row:
            row = tuple(NEG_INF if v is None else v for v in box._lo) + tuple(
                POS_INF if v is None else v for v in box._hi
            )
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(len(boxes), 2, dim)


def overlapping_pairs(packed: np.ndarray, chunk: int = 1 << 16) -> np.ndarray:
    """Every intersecting pair of packed boxes as an ``(m, 2)`` array of
    rows ``(i, j)``, ``i < j``, in sorted order.

    A sort-and-sweep: sorted by the lower bound on the axis with the
    most distinct ones, box ``k``'s candidates are the boxes after it
    whose lower bound does not pass ``k``'s upper bound there (one
    ``searchsorted``).  Candidates are tested on every axis, at most
    ``chunk`` pairs at a time, so memory beyond the result stays
    O(n + chunk) even when most boxes share the sweep axis.
    """
    n = len(packed)
    lower, upper = packed[:, 0, :], packed[:, 1, :]
    axis = max(range(packed.shape[2]), key=lambda a: len(np.unique(lower[:, a])))
    order = np.argsort(lower[:, axis], kind="stable")
    lower, upper = lower[order], upper[order]
    ends = np.searchsorted(lower[:, axis], upper[:, axis], side="right")
    counts = np.maximum(ends - np.arange(1, n + 1), 0)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    found = [np.empty((2, 0), np.int64)]
    first = 0
    while first < n:
        last = max(first + 1, int(np.searchsorted(offsets, offsets[first] + chunk, "right")) - 1)
        left = np.repeat(np.arange(first, last), counts[first:last])
        right = left + 1 + np.arange(offsets[first], offsets[last]) - offsets[left]
        meet = ((lower[right] <= upper[left]) & (lower[left] <= upper[right])).all(axis=1)
        found.append(np.sort(order[np.stack((left, right))[:, meet]], axis=0))
        first = last
    pairs = np.concatenate(found, axis=1)
    return pairs.T[np.lexsort(pairs[::-1])]
