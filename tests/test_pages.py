"""Unit tests for page math and the page-range allocator."""

import pytest

from repro.core.errors import PageError
from repro.storage.pages import PageAllocator, PageRange, pages_needed


class TestPagesNeeded:
    def test_rounding_up(self):
        assert pages_needed(1, 8192) == 1
        assert pages_needed(8192, 8192) == 1
        assert pages_needed(8193, 8192) == 2

    def test_zero_bytes_takes_one_page(self):
        assert pages_needed(0, 8192) == 1

    def test_negative_rejected(self):
        with pytest.raises(PageError):
            pages_needed(-1, 8192)

    def test_bad_page_size_rejected(self):
        with pytest.raises(PageError):
            pages_needed(10, 0)


class TestPageRange:
    def test_end(self):
        assert PageRange(10, 5).end == 15

    def test_follows(self):
        assert PageRange(15, 3).follows(PageRange(10, 5))
        assert not PageRange(16, 3).follows(PageRange(10, 5))

    def test_invalid_rejected(self):
        with pytest.raises(PageError):
            PageRange(-1, 5)
        with pytest.raises(PageError):
            PageRange(0, 0)


class TestAllocator:
    def test_sequential_allocation(self):
        alloc = PageAllocator()
        first = alloc.allocate(4)
        second = alloc.allocate(2)
        assert first == PageRange(0, 4)
        assert second == PageRange(4, 2)
        assert second.follows(first)
        assert alloc.high_water == 6

    def test_release_and_reuse_first_fit(self):
        alloc = PageAllocator()
        a = alloc.allocate(4)
        b = alloc.allocate(4)
        alloc.release(a)
        c = alloc.allocate(2)
        assert c == PageRange(0, 2)  # reused the hole
        d = alloc.allocate(2)
        assert d == PageRange(2, 2)  # rest of the hole
        assert alloc.free_ranges() == ()
        assert b == PageRange(4, 4)

    def test_hole_too_small_skipped(self):
        alloc = PageAllocator()
        a = alloc.allocate(2)
        alloc.allocate(4)
        alloc.release(a)
        big = alloc.allocate(3)
        assert big.start == 6  # fresh pages, hole of 2 skipped
        assert alloc.free_ranges() == (PageRange(0, 2),)

    def test_release_coalesces(self):
        alloc = PageAllocator()
        a = alloc.allocate(2)
        b = alloc.allocate(2)
        c = alloc.allocate(2)
        alloc.release(a)
        alloc.release(c)
        alloc.release(b)  # bridges the two holes
        assert alloc.free_ranges() == (PageRange(0, 6),)
        merged = alloc.allocate(6)
        assert merged == PageRange(0, 6)

    def test_zero_count_rejected(self):
        with pytest.raises(PageError):
            PageAllocator().allocate(0)
