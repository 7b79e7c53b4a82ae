"""The all-pairs overlap loops, kept as a test oracle.

``pairwise_disjoint`` and ``covers_exactly`` as they were before the
sort-and-sweep (:func:`repro.core.geometry.overlapping_pairs`) replaced
them: one ``MInterval.intersects`` per pair of boxes.  ``pairs`` is the
same loop returning every intersecting pair, and ``fsck_pairs`` is
``fsck``'s ``tile-overlap`` loop: for each tile, in catalog order, every
earlier tile it overlaps.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.geometry import MInterval, total_cells


def pairwise_disjoint(intervals: Sequence[MInterval]) -> bool:
    """True if no two intervals in the sequence intersect.

    Quadratic; used for validation and tests, not hot paths.
    """
    for i, a in enumerate(intervals):
        for b in intervals[i + 1:]:
            if a.intersects(b):
                return False
    return True


def covers_exactly(parts: Sequence[MInterval], whole: MInterval) -> bool:
    """True if ``parts`` are disjoint and tile ``whole`` with no gap.

    Verified by cell-count accounting plus containment, which is exact for
    disjoint boxes: equal total volume inside the region implies full cover.
    """
    if not pairwise_disjoint(parts):
        return False
    if not all(whole.contains(p) for p in parts):
        return False
    return total_cells(parts) == whole.cell_count


def pairs(intervals: Sequence[MInterval]) -> list[tuple[int, int]]:
    """Every intersecting pair ``(i, j)``, ``i < j``, in sorted order."""
    return [
        (i, j)
        for i, a in enumerate(intervals)
        for j in range(i + 1, len(intervals))
        if a.intersects(intervals[j])
    ]


def fsck_pairs(intervals: Sequence[MInterval]) -> list[tuple[int, int]]:
    """``(earlier, later)`` overlaps in the order fsck reports them."""
    found = []
    for j, domain in enumerate(intervals):
        for i, other in enumerate(intervals[:j]):
            if domain.intersection(other) is not None:
                found.append((i, j))
    return found
