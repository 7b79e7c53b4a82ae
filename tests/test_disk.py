"""Unit tests for the deterministic disk timing model.

The positioning rule lives in one pure function, ``price``, and each of
its cases here is one input to it.  The batch charges of
``SimulatedDisk`` are checked for what they add: counters, overhead and
the head they share.
"""

import numpy as np
import pytest

from repro.core.errors import StorageError
from repro.core.geometry import MInterval
from repro.core.mddtype import mdd_type
from repro.storage.backends import MemoryBlobStore
from repro.storage.blob import BlobRecord
from repro.storage.disk import (
    INDEX_NODE,
    RANDOM,
    SEQUENTIAL,
    SHORT_SKIP,
    CpuParameters,
    DiskParameters,
    SimulatedDisk,
    price,
)
from repro.storage.pages import PageRange
from repro.storage.tilestore import Database
from repro.tiling.aligned import RegularTiling

PARAMS = DiskParameters(page_size=1024)
TRANSFER = PARAMS.transfer_ms_per_page()
RANDOM_MS = PARAMS.random_access_ms()
SKIP = PARAMS.short_skip_pages


def make_disk(page_size=1024, **overrides):
    store = MemoryBlobStore(page_size=page_size)
    params = DiskParameters(page_size=page_size, **overrides)
    return store, SimulatedDisk(params)


def blob_records(runs):
    """One blob per page run, a page's worth of bytes per page."""
    return [BlobRecord(i, run.count * PARAMS.page_size, run) for i, run in enumerate(runs)]


class TestParameters:
    def test_transfer_per_page(self):
        params = DiskParameters(transfer_mb_per_s=1.0, page_size=1024 * 1024)
        assert params.transfer_ms_per_page() == pytest.approx(1000.0)

    def test_random_access(self):
        params = DiskParameters(seek_ms=8.0, rotation_ms=8.0)
        assert params.random_access_ms() == pytest.approx(12.0)

    def test_page_size_must_match_store(self):
        store = MemoryBlobStore(page_size=1024)
        with pytest.raises(StorageError, match="page size"):
            Database(store=store, disk_parameters=DiskParameters(page_size=4096))


#: The positioning rule as a table: page runs read from an unknown head,
#: and each run's ``(cost, regime)``.
POSITIONING = {
    "first_read_is_random": ([PageRange(0, 1)], [(RANDOM_MS + TRANSFER, RANDOM)]),
    "sequential_read_skips_positioning": (
        [PageRange(0, 2), PageRange(2, 3)],
        [(RANDOM_MS + 2 * TRANSFER, RANDOM), (3 * TRANSFER, SEQUENTIAL)],
    ),
    "short_skip_pays_settle": (
        [PageRange(0, 1), PageRange(10, 1)],
        [(RANDOM_MS + TRANSFER, RANDOM), (PARAMS.settle_ms + TRANSFER, SHORT_SKIP)],
    ),
    "long_skip_is_random": (
        [PageRange(0, 1), PageRange(10_000, 1)], [(RANDOM_MS + TRANSFER, RANDOM)] * 2
    ),
    "backward_skip_is_random": (
        [PageRange(100, 1), PageRange(0, 1)], [(RANDOM_MS + TRANSFER, RANDOM)] * 2
    ),
}


class TestChargePages:
    """The positioning rule: each case is one input to ``price``, and the
    same runs read as blobs land in the matching read counters."""

    @staticmethod
    def charge(case):
        runs, expected = POSITIONING[case]
        assert price(PARAMS, None, runs) == (expected, runs[-1].end)
        disk = SimulatedDisk(PARAMS)
        costs = disk.charge_reads(blob_records(runs))
        assert costs == [cost + PARAMS.blob_overhead_ms for cost, _regime in expected]
        regimes = [regime for _cost, regime in expected]
        counters = disk.counters
        assert counters.sequential_reads == regimes.count(SEQUENTIAL)
        assert counters.short_skips == regimes.count(SHORT_SKIP)
        assert counters.random_accesses == regimes.count(RANDOM)
        assert counters.blob_reads == len(runs)
        assert counters.pages_read == sum(run.count for run in runs)
        return counters

    def test_first_read_is_random(self):
        assert self.charge("first_read_is_random").random_accesses == 1

    def test_sequential_read_skips_positioning(self):
        assert self.charge("sequential_read_skips_positioning").sequential_reads == 1

    def test_short_skip_pays_settle(self):
        counters = self.charge("short_skip_pays_settle")
        assert (counters.short_skips, counters.random_accesses) == (1, 1)

    def test_long_skip_is_random(self):
        assert self.charge("long_skip_is_random").random_accesses == 2

    def test_backward_skip_is_random(self):
        assert self.charge("backward_skip_is_random").random_accesses == 2

    def test_skip_of_exactly_short_skip_pages_settles(self):
        assert price(PARAMS, 10, [PageRange(10 + SKIP, 1)])[0] == [
            (PARAMS.settle_ms + TRANSFER, SHORT_SKIP)
        ]
        assert price(PARAMS, 10, [PageRange(11 + SKIP, 1)])[0] == [(RANDOM_MS + TRANSFER, RANDOM)]

    def test_empty_batch_keeps_the_head(self):
        assert price(PARAMS, 42, []) == ([], 42)

    def test_determinism(self):
        runs = [PageRange(0, 2), PageRange(2, 1), PageRange(50, 4), INDEX_NODE]
        assert price(PARAMS, None, runs) == price(PARAMS, None, runs)


class TestBlobReads:
    def test_read_blob_returns_payload_and_cost(self):
        db = Database(store=MemoryBlobStore(page_size=1024))
        blob_id = db.store.put(b"abc" * 1000)
        payload, cost = db.read_blob(blob_id)
        assert payload == b"abc" * 1000
        assert cost > 0
        assert db.disk.counters.blob_reads == 1
        assert db.disk.counters.bytes_read == 3000

    def test_blob_overhead_charged(self):
        store, disk = make_disk(blob_overhead_ms=5.0)
        blob_id = store.put(b"x")
        [cost] = disk.charge_reads([store.record(blob_id)])
        assert cost == pytest.approx(
            disk.parameters.random_access_ms()
            + disk.parameters.transfer_ms_per_page()
            + 5.0
        )

    def test_adjacent_blobs_read_sequentially(self):
        store, disk = make_disk()
        first = store.put(b"a" * 2000)
        second = store.put(b"b" * 2000)
        disk.charge_reads(store.records([first, second]))
        assert disk.counters.sequential_reads == 1
        assert disk.counters.random_accesses == 1

    def test_counters_accumulate_time(self):
        store, disk = make_disk()
        blob_id = store.put(b"q" * 5000)
        [cost] = disk.charge_reads([store.record(blob_id)])
        assert disk.counters.time_ms == pytest.approx(cost)

    def test_batch_equals_one_at_a_time(self):
        store, batch = make_disk()
        _, single = make_disk()
        ids = [store.put(bytes(n * 700)) for n in (1, 3, 2, 5)]
        records = store.records([ids[0], ids[2], ids[1], ids[3]])
        together = batch.charge_reads(records)
        apart = [single.charge_reads([record])[0] for record in records]
        assert together == apart
        assert vars(batch.counters) == vars(single.counters)

    def test_reset(self):
        store, disk = make_disk()
        record = store.record(store.put(b"x" * 100))
        disk.charge_reads([record])
        old = disk.reset()
        assert old.blob_reads == 1
        assert disk.counters.blob_reads == 0
        # After a reset the head position is forgotten: random again.
        disk.charge_reads([record])
        assert disk.counters.random_accesses == 1


class TestIndexCharge:
    def test_index_node_is_random_page(self):
        _store, disk = make_disk()
        cost = disk.charge_index(1)
        assert cost == pytest.approx(
            disk.parameters.random_access_ms()
            + disk.parameters.transfer_ms_per_page()
        )
        assert disk.counters.random_accesses == disk.counters.pages_read == 1

    def test_index_visit_resets_the_head(self):
        priced, head = price(PARAMS, 7, [INDEX_NODE, PageRange(7, 1)])
        assert priced == [(RANDOM_MS + TRANSFER, RANDOM)] * 2 and head == 8
        assert price(PARAMS, 7, [INDEX_NODE])[1] is None

    def test_index_charge_breaks_sequence(self):
        store, disk = make_disk()
        first = store.put(b"a" * 2000)
        second = store.put(b"b" * 2000)
        disk.charge_reads([store.record(first)])
        disk.charge_index(1)
        disk.charge_reads([store.record(second)])
        assert disk.counters.sequential_reads == 0


class TestWriteCharge:
    def test_write_moves_the_shared_head(self):
        store, disk = make_disk()
        first = store.put(b"a" * 4096)  # pages 0-3
        second = store.put(b"b" * 100)  # page 4
        disk.charge_writes([store.record(first).pages])
        disk.charge_reads([store.record(second)])
        assert disk.counters.sequential_reads == 1
        assert disk.counters.random_accesses == 0

    def test_write_regimes_are_not_read_regimes(self):
        _store, disk = make_disk()
        runs = [PageRange(0, 1), PageRange(1, 1), PageRange(10, 1), PageRange(100_000, 1)]
        costs = disk.charge_writes(runs)
        counters = disk.counters
        assert counters.random_accesses == counters.short_skips == 0
        assert counters.sequential_reads == counters.pages_read == 0
        assert counters.time_ms == 0.0
        assert counters.data_writes == 4 and counters.pages_written == 4
        assert costs == [cost for cost, _regime in price(disk.parameters, None, runs)[0]]
        assert counters.data_write_ms == pytest.approx(sum(costs))


class TestRepricing:
    """A cold read's page runs and index visits, priced under other
    parameters, are what the same read is charged under them."""

    CUBE = mdd_type("RepriceCube", "long", "[0:63,0:63]")
    REGION = MInterval.parse("[5:50,3:60]")

    def _read(self, parameters):
        db = Database(compression=True, disk_parameters=parameters)
        obj = db.create_object("c", self.CUBE, "o")
        obj.load_array(
            (np.indices((64, 64)).sum(axis=0) % 17).astype(np.int32),
            RegularTiling(1024),
        )
        db.reset_clock()
        _array, timing = obj.read(self.REGION)
        entries = sorted(
            (e for e in obj.tile_entries() if e.domain.intersects(self.REGION)),
            key=db.first_page,
        )
        assert len(entries) == timing.tiles_read > 1
        return db.store.records([e.blob_id for e in entries]), timing

    def test_price_matches_a_rerun(self):
        records, timing = self._read(DiskParameters())
        other = DiskParameters(
            seek_ms=3.5, rotation_ms=6.0, transfer_mb_per_s=40.0,
            blob_overhead_ms=0.25, settle_ms=0.7, short_skip_pages=1,
        )
        priced, head = price(other, None, [INDEX_NODE] * timing.index_nodes)
        t_ix_pages = sum(cost for cost, _regime in priced)
        t_o = 0.0
        for cost, _regime in price(other, head, [r.pages for r in records])[0]:
            t_o += cost + other.blob_overhead_ms
        _records, rerun = self._read(other)
        assert t_o + t_ix_pages == rerun.t_o + rerun.t_ix_pages
        assert (t_o, t_ix_pages) != (timing.t_o, timing.t_ix_pages)


class TestCpuParameters:
    def test_compose_rates(self):
        cpu = CpuParameters(aligned_mb_per_s=100.0, border_mb_per_s=10.0)
        mb = 1024 * 1024
        assert cpu.compose_ms(mb, 0) == pytest.approx(10.0)
        assert cpu.compose_ms(0, mb) == pytest.approx(100.0)
        assert cpu.compose_ms(mb, mb) == pytest.approx(110.0)

    def test_border_slower_than_aligned(self):
        cpu = CpuParameters()
        assert cpu.compose_ms(0, 1000) > cpu.compose_ms(1000, 0)
