"""Property-based migration invariants: whatever the load shape, shard
count and read pattern, a sequence of :meth:`Rebalancer.rebalance_once`
moves changes where tiles live and nothing a reader can observe — not
the current domain, not the bytes, not the aggregates, live or after a
``wal`` deployment reopens."""

import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.geometry import MInterval
from repro.core.mddtype import mdd_type
from repro.shard import Rebalancer, ShardedDatabase
from repro.tiling.aligned import RegularTiling

DOMAIN = MInterval.parse("[0:63,0:63]")
#: Skip-default loads hold data only inside a box of whole 16x16 blocks,
#: so every tile of either tile edge outside it holds only default cells.
BLOCK = 16
BLOCKS = DOMAIN.shape[0] // BLOCK


@st.composite
def migrations(draw):
    """A load (aligned, or skip-default with data in a block box), a
    shard count, and a sequence of hot shards, each read hot and then
    offered to :meth:`Rebalancer.rebalance_once`."""
    n_shards = draw(st.integers(min_value=2, max_value=4))
    edge = draw(st.sampled_from([8, 16]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    skip_default = draw(st.booleans())
    box = (0, BLOCKS - 1, 0, BLOCKS - 1)
    if skip_default:
        r0 = draw(st.integers(0, BLOCKS - 1))
        c0 = draw(st.integers(0, BLOCKS - 1))
        box = (
            r0, draw(st.integers(r0, BLOCKS - 1)),
            c0, draw(st.integers(c0, BLOCKS - 1)),
        )
    # Every shard runs hot at least once, then a few more drawn rounds.
    order = draw(st.permutations(range(n_shards)))
    order += draw(st.lists(st.integers(0, n_shards - 1), max_size=3))
    hot = [(shard, draw(st.integers(1, 4))) for shard in order]
    return n_shards, edge, seed, skip_default, box, hot


def _mirror(seed, box):
    """The loaded array: random cells inside the block box, default
    (zero) outside it."""
    rng = np.random.default_rng(seed)
    data = np.zeros(DOMAIN.shape, dtype=np.int32)
    r0, r1, c0, c1 = (side * BLOCK for side in box)
    data[r0 : r1 + BLOCK, c0 : c1 + BLOCK] = rng.integers(
        1, 100, size=(r1 - r0 + BLOCK, c1 - c0 + BLOCK)
    )
    return data


def _check_reads(obj, domain, data):
    assert obj.current_domain == domain
    got, _ = obj.read(domain)
    assert got.tobytes() == data[domain.to_slices((0, 0))].tobytes()
    value, _, _ = obj.aggregate_push(domain, "add_cells")
    assert value == int(data.astype(np.int64).sum())


def _check_placement(obj, stored):
    seen = {}
    for shard, part in enumerate(obj._parts):
        for entry in part.tile_entries():
            assert entry.domain not in seen, (
                f"tile {entry.domain} on shards {seen[entry.domain]} and {shard}"
            )
            seen[entry.domain] = shard
            assert obj.shard_of(entry.domain.lowest) == shard
    assert set(seen) == stored


@given(migrations())
# Data in [0:47,0:47] only: one move off each shard used to shrink the
# domain to that hull, live and reopened.
@example((2, 16, 0, True, (0, 2, 0, 2), [(0, 4), (1, 4)]))
@settings(max_examples=60, deadline=None)
def test_migrations_keep_domain_bytes_and_placement(case):
    n_shards, edge, seed, skip_default, box, hot = case
    data = _mirror(seed, box)
    with tempfile.TemporaryDirectory() as directory:
        sdb = ShardedDatabase.create(directory, n_shards, durability="wal")
        obj = sdb.create_object("c", mdd_type("cube", "long", str(DOMAIN)), "cube")
        obj.load_array(
            data, RegularTiling(edge * edge * 4), skip_default_tiles=skip_default
        )
        domain = obj.current_domain
        assert domain == DOMAIN
        stored = {entry.domain for entry in obj.tile_entries()}
        rebalancer = Rebalancer(sdb)
        for shard, reads in hot:
            entries = obj._parts[shard].tile_entries()[:reads]
            for _ in range(8):
                for entry in entries:
                    obj.read(entry.domain)
            if rebalancer.rebalance_once() is None:
                continue
            _check_reads(obj, domain, data)
            _check_placement(obj, stored)
        sdb.close()

        sdb = ShardedDatabase.open(directory, durability="wal")
        try:
            obj = sdb.collection("c")["cube"]
            _check_reads(obj, domain, data)
            _check_placement(obj, stored)
        finally:
            sdb.close()
