#!/usr/bin/env python3
"""Sparse OLAP cubes: partial cover, selective compression, retiling.

Section 8 of the paper names two features for sparse data — *selective
compression of blocks* and *partial cover of data cubes*.  This script
loads a sparse sales cube three ways and compares storage and scan cost,
then retiles the best variant after a simulated access pattern emerges.

Run:  python examples/sparse_olap.py
"""

import numpy as np

from repro import Database, MInterval, RegularTiling, StatisticTiling, mdd_type
from repro.bench.workloads import sparse_cube


def build(db, name, data, **load_kwargs):
    cube_type = mdd_type("SparseSales", "ulong", "[0:99,0:99,0:49]")
    obj = db.create_object("cubes", cube_type, name)
    obj.load_array(data, RegularTiling(32 * 1024), **load_kwargs)
    return obj


def main() -> None:
    data = sparse_cube((100, 100, 50), density=0.04, seed=11)
    whole = MInterval.parse("[*:*,*:*,*:*]")
    print(f"Cube: {data.shape}, {np.count_nonzero(data) / data.size:.1%} "
          f"non-default cells, {data.nbytes / 2**20:.1f} MB dense\n")

    variants = [
        ("dense, raw", Database(), {}),
        ("dense, compressed", Database(compression=True), {}),
        ("partial cover", Database(compression=True),
         {"skip_default_tiles": True}),
    ]
    print(f"{'Variant':22s} {'tiles':>5s} {'stored MB':>9s} {'scan t_o (ms)':>13s}")
    objects = {}
    for name, db, kwargs in variants:
        obj = build(db, name, data, **kwargs)
        db.reset_clock()
        out, timing = obj.read(whole)
        assert (out == data).all()
        objects[name] = (db, obj)
        print(f"{name:22s} {obj.tile_count:5d} "
              f"{obj.stored_bytes() / 2**20:9.2f} {timing.t_o:13.0f}")

    # An access pattern emerges: analysts keep hitting one dense region.
    db, obj = objects["partial cover"]
    hotspot = MInterval.parse("[20:45,20:45,0:49]")
    accesses = [hotspot] * 5
    print(f"\nRetiling for the hotspot {hotspot} from 5 logged accesses...")
    db.reset_clock()
    before = obj.read(hotspot)[1]
    obj.retile(
        StatisticTiling(accesses, frequency_threshold=3, distance_threshold=2,
                        max_tile_size=64 * 1024),
        skip_default_tiles=True,  # sparsity preserved through the retile
    )
    db.reset_clock()
    after = obj.read(hotspot)[1]
    print(f"hotspot: {before.tiles_read} tiles / {before.t_totalaccess:.0f} ms"
          f" -> {after.tiles_read} tiles / {after.t_totalaccess:.0f} ms")


if __name__ == "__main__":
    main()
