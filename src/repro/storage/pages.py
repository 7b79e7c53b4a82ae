"""Page abstraction and page-range allocation.

The storage system reads and writes whole pages (Section 2: "accesses by
the storage system are to whole pages"), so tile sizes should approximate
integral multiples of the page size.  BLOBs occupy contiguous page ranges
allocated by :class:`PageAllocator`; freed ranges are recycled first-fit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import PageError

#: Default page size in bytes (the database page of the cost formulas).
DEFAULT_PAGE_SIZE = 8192


def pages_needed(byte_count: int, page_size: int = DEFAULT_PAGE_SIZE) -> int:
    """Number of whole pages required to hold ``byte_count`` bytes."""
    if byte_count < 0:
        raise PageError(f"negative byte count {byte_count}")
    if page_size < 1:
        raise PageError(f"page size must be positive, got {page_size}")
    return max(1, -(-byte_count // page_size))


@dataclass(frozen=True)
class PageRange:
    """A contiguous run of pages ``[start, start + count)``."""

    start: int
    count: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.count < 1:
            raise PageError(f"invalid page range {self.start}+{self.count}")

    @property
    def end(self) -> int:
        """One past the last page id."""
        return self.start + self.count

    def follows(self, other: "PageRange") -> bool:
        """True when this range starts exactly where ``other`` ends —
        reading it after ``other`` needs no seek."""
        return self.start == other.end


class PageAllocator:
    """First-fit allocator of contiguous page ranges with free-list reuse."""

    def __init__(self) -> None:
        self._next_page = 0
        self._free: list[PageRange] = []

    @property
    def high_water(self) -> int:
        """Total pages ever allocated (ignoring reuse) — file size proxy."""
        return self._next_page

    def allocate(self, count: int) -> PageRange:
        """Allocate a contiguous run of ``count`` pages."""
        if count < 1:
            raise PageError(f"cannot allocate {count} pages")
        for i, hole in enumerate(self._free):
            if hole.count >= count:
                taken = PageRange(hole.start, count)
                if hole.count == count:
                    del self._free[i]
                else:
                    self._free[i] = PageRange(hole.start + count, hole.count - count)
                return taken
        taken = PageRange(self._next_page, count)
        self._next_page += count
        return taken

    def reserve(self, page_range: PageRange) -> None:
        """Mark an exact range as allocated (WAL replay re-applies logged
        placements instead of choosing new ones).

        The range must be entirely unallocated: inside free holes, past
        the high-water mark, or a mix of both.  A collision with pages
        already in use is a :class:`PageError` — replaying a log record
        onto a checkpoint that already occupies those pages means the log
        and the checkpoint disagree.
        """
        remaining = page_range
        if remaining.start >= self._next_page:
            # Entirely in virgin territory; any gap becomes a hole.
            if remaining.start > self._next_page:
                self._free.append(
                    PageRange(self._next_page, remaining.start - self._next_page)
                )
            self._next_page = remaining.end
            return
        covered = 0
        keep: list[PageRange] = []
        for hole in self._free:
            overlap_start = max(hole.start, remaining.start)
            overlap_end = min(hole.end, remaining.end)
            if overlap_start >= overlap_end:
                keep.append(hole)
                continue
            covered += overlap_end - overlap_start
            if hole.start < overlap_start:
                keep.append(PageRange(hole.start, overlap_start - hole.start))
            if overlap_end < hole.end:
                keep.append(PageRange(overlap_end, hole.end - overlap_end))
        if remaining.end > self._next_page:
            covered += remaining.end - self._next_page
            self._next_page = remaining.end
        if covered != remaining.count:
            raise PageError(
                f"cannot reserve {page_range}: "
                f"{remaining.count - covered} pages already allocated"
            )
        keep.sort(key=lambda r: r.start)
        self._free = keep

    def release(self, page_range: PageRange) -> None:
        """Return a range to the free list (coalescing adjacent holes)."""
        merged = page_range
        keep: list[PageRange] = []
        for hole in self._free:
            if hole.end == merged.start:
                merged = PageRange(hole.start, hole.count + merged.count)
            elif merged.end == hole.start:
                merged = PageRange(merged.start, merged.count + hole.count)
            else:
                keep.append(hole)
        keep.append(merged)
        keep.sort(key=lambda r: r.start)
        self._free = keep

    def free_ranges(self) -> tuple[PageRange, ...]:
        """The current free holes, ordered by start page (for sidecars)."""
        return tuple(self._free)

    def restore_free_ranges(self, ranges) -> None:
        """Replace the free list (reloading a persisted allocator)."""
        holes = sorted(ranges, key=lambda r: r.start)
        for hole in holes:
            if hole.end > self._next_page:
                raise PageError(
                    f"free range {hole} beyond high water {self._next_page}"
                )
        for earlier, later in zip(holes, holes[1:]):
            if earlier.end > later.start:
                raise PageError(f"free ranges {earlier} and {later} overlap")
        self._free = holes
