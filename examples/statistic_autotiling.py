#!/usr/bin/env python3
"""Statistic tiling: let the access log choose the storage layout.

A session of queries runs against a default-tiled image; the database's
access log records every one.  The tiling advisor then clusters the log
(DistanceThreshold / FrequencyThreshold), derives areas of interest, and
proposes a new tiling.  Re-tiled, the hot queries read exactly the bytes
they need.

Run:  python examples/statistic_autotiling.py
"""

import numpy as np

from repro import (
    AlignedTiling,
    Database,
    MInterval,
    QueryEngine,
    Tile,
    advise,
    mdd_type,
)
from repro.bench.workloads import hotspot_queries


def main() -> None:
    domain = MInterval.parse("[0:511,0:511]")
    image_type = mdd_type("Satellite", "ushort", str(domain))
    rng = np.random.default_rng(42)
    image = rng.integers(0, 4096, size=(512, 512), dtype=np.uint16)

    # --- Session 1: default tiling, accesses logged -----------------------
    database = Database()
    scene = database.create_object("scenes", image_type, "scene-042")
    scene.load_array(image, AlignedTiling(None, 16 * 1024))
    engine = QueryEngine(database)

    harbour = MInterval.parse("[80:159,300:419]")
    airport = MInterval.parse("[400:459,60:139]")
    workload = (
        hotspot_queries(harbour, 8, jitter=4, seed=1, domain=domain)
        + hotspot_queries(airport, 6, jitter=4, seed=2, domain=domain)
    )
    wasted = 0
    for region in workload:
        result = engine.range_query(scene, region)
        wasted += result.timing.cells_fetched - result.timing.cells_result
    accesses = database.access_log.accesses("scene-042")
    print(f"Session 1 (default tiling): {len(accesses)} accesses "
          f"logged, {wasted * 2 / 1024:.0f} KB of foreign bytes fetched")

    # --- Advice from the log ----------------------------------------------
    advice = advise(
        accesses,
        frequency_threshold=3,
        distance_threshold=10,
        max_tile_size=16 * 1024,
    )
    print(f"Advisor says: {advice.reason}")
    spec = advice.strategy.tile(domain, image_type.cell_size)
    print(f"Proposed tiling: {spec.tile_count} tiles "
          f"(avg {spec.average_tile_bytes() / 1024:.1f} KB)")

    # --- Session 2: re-tiled object ---------------------------------------
    database2 = Database()
    retiled = database2.create_object("scenes", image_type, "scene-042")
    for tile_domain in spec.tiles:
        retiled.insert_tile(
            Tile(tile_domain, image[tile_domain.to_slices((0, 0))])
        )
    engine2 = QueryEngine(database2)
    wasted2 = 0
    for region in workload:
        result = engine2.range_query(retiled, region)
        wasted2 += result.timing.cells_fetched - result.timing.cells_result
    print(f"Session 2 (statistic tiling): {wasted2 * 2 / 1024:.0f} KB of "
          f"foreign bytes fetched on the same workload")


if __name__ == "__main__":
    main()
