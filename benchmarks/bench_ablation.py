"""Ablation benches for the design choices DESIGN.md calls out.

Not paper tables — these isolate individual mechanisms:

* A1 buffer pool on/off (repeated hotspot reads);
* A2 R+-tree vs flat directory index (t_ix growth with object size);
* A3 MaxTileSize sweep — "optimal tile size is larger for arbitrary
  tiling than for regular tiling" (Section 6.2, last paragraph);
* A4 starred scan configuration vs default for frame-wise access (Fig. 4);
* A5 selective compression on sparse cubes (Section 8 future work).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from conftest import write_result

from repro.bench import animation
from repro.bench.report import format_table
from repro.bench.workloads import frame_scan_queries, sparse_cube
from repro.core.geometry import MInterval
from repro.core.mddtype import mdd_type
from repro.index.base import entry_bytes
from repro.storage.pages import pages_needed
from repro.storage.tilestore import Database
from repro.tiling.aligned import AlignedTiling, RegularTiling
from repro.tiling.base import KB


IMG = mdd_type("Img", "char", "[0:255,0:255]")


def _image():
    return (np.indices((256, 256)).sum(axis=0) % 253).astype(np.uint8)


def test_ablation_buffer_pool(benchmark):
    """A1: a warm pool removes t_o entirely on repeated hotspot reads."""
    hotspot = MInterval.parse("[10:60,10:60]")
    cold_db = Database(buffer_bytes=0)
    warm_db = Database(buffer_bytes=8 * 2**20)
    rows = []
    for label, db in (("no pool", cold_db), ("8MB pool", warm_db)):
        obj = db.create_object("imgs", IMG, label)
        obj.load_array(_image(), RegularTiling(8 * KB))
        first = obj.read(hotspot)[1]
        second = obj.read(hotspot)[1]
        rows.append([label, f"{first.t_o:.1f}", f"{second.t_o:.1f}"])
        if label == "8MB pool":
            assert second.t_o == 0.0
        else:
            assert second.t_o > 0.0
    warm_obj = warm_db.collection("imgs")["8MB pool"]
    benchmark(lambda: warm_obj.read(hotspot))
    write_result(
        "ablation_buffer_pool.txt",
        format_table(["Config", "t_o first (ms)", "t_o repeat (ms)"], rows,
                     title="A1: buffer pool ablation"),
    )


def test_ablation_index_choice(benchmark):
    """A2: the R+-tree touches far fewer index pages than the directory
    for point/small queries, and the gap widens with tile count —
    the paper's extended-cube t_ix observation.  A flat directory scans
    all of its pages per lookup: its entries' bytes in whole pages."""
    rows = []
    small_query = MInterval.parse("[7:9,7:9]")
    for max_tile, label in ((8 * KB, "1K tiles"), (1 * KB, "8K tiles")):
        tree_db = Database()
        tree_obj = tree_db.create_object("imgs", IMG, "t")
        tree_obj.load_array(_image(), RegularTiling(max_tile))
        tree_nodes = tree_obj.read(small_query)[1].index_nodes
        flat_nodes = pages_needed(
            tree_obj.tile_count * entry_bytes(IMG.dim), tree_db.store.page_size
        )
        rows.append([label, tree_obj.tile_count, tree_nodes, flat_nodes])
        assert tree_nodes <= flat_nodes
    tree_obj2 = tree_db.collection("imgs")["t"]
    benchmark(lambda: tree_obj2.read(small_query))
    write_result(
        "ablation_index.txt",
        format_table(["Scale", "Tiles", "R+-tree pages", "Directory pages"],
                     rows, title="A2: index ablation (pages per lookup)"),
    )


def test_ablation_tile_size_sweep(benchmark, animation_results):
    """A3: sweep MaxTileSize for both families on the animation workload.

    The paper's claim: regular tiling's optimum sits at a smaller
    MaxTileSize than areas-of-interest tiling's.
    """
    benchmark(lambda: animation_results.scheme("AI256K").timings["a"])
    pattern = animation.PATTERN_QUERIES
    rows = []
    averages = {}
    for name, run in animation_results.runs.items():
        avg = run.average("t_totalcpu", list(animation.QUERIES))
        averages[name] = avg
        rows.append([name, f"{avg:.1f}"])
    best_reg = min((n for n in averages if n.startswith("Reg")), key=averages.get)
    best_ai_pattern = min(
        (n for n in averages if n.startswith("AI")),
        key=lambda n: animation_results.scheme(n).average("t_totalcpu", list(pattern)),
    )
    assert int(best_ai_pattern[2:-1]) > int(best_reg[3:-1])
    write_result(
        "ablation_tile_size.txt",
        format_table(["Scheme", "avg t_totalcpu (ms)"], sorted(rows),
                     title="A3: MaxTileSize sweep (animation workload)"),
    )


def test_ablation_scan_direction_config(benchmark):
    """A4: Figure 4's scenario — frame-by-frame access along one axis.

    The starred configuration [*,1,*] must beat the default aligned
    tiling on a frame scan, and lose on a box query (the paper's warning
    that cuts "severely degrade almost all other types of access").
    """
    video_type = animation.animation_mdd_type()
    video = animation.generate_animation()
    domain = animation.ANIMATION_DOMAIN
    frames = frame_scan_queries(domain, axis=0, step=12)
    box = MInterval.parse("[30:60,40:80,40:80]")

    totals = {}
    for label, strategy in (
        ("default", AlignedTiling(None, 64 * KB)),
        ("scan [*,1,*]", AlignedTiling("[1,*,*]", 64 * KB)),
    ):
        db = Database()
        obj = db.create_object("v", video_type, label)
        obj.load_array(video, strategy)
        scan_ms = 0.0
        for frame in frames:
            db.reset_clock()
            scan_ms += obj.read(frame)[1].t_totalcpu
        db.reset_clock()
        box_ms = obj.read(box)[1].t_totalcpu
        totals[label] = (scan_ms, box_ms)
    assert totals["scan [*,1,*]"][0] < totals["default"][0]
    assert totals["scan [*,1,*]"][1] > totals["default"][1]
    db_last = db
    benchmark(lambda: obj.read(frames[0]))
    write_result(
        "ablation_scan_config.txt",
        format_table(
            ["Config", "frame scan (ms)", "box query (ms)"],
            [[k, f"{v[0]:.0f}", f"{v[1]:.0f}"] for k, v in totals.items()],
            title="A4: scan-direction configuration (Figure 4 scenario)",
        ),
    )


def test_ablation_tile_clustering_order(benchmark):
    """A6: tile clustering order on disk (row-major vs Z vs Hilbert).

    Related work ([11], [13]) compares scanline and space-filling-curve
    orderings.  Row-major clustering favours queries extended along the
    last axes; Hilbert keeps square-ish queries more local.  The disk
    model's sequential-run detection makes the difference measurable.
    """
    from repro.core.order import hilbert_key, row_major_key, z_order_key

    data = _image()
    row_query = MInterval.parse("[100:103,0:255]")      # thin full-width band
    square_query = MInterval.parse("[64:127,64:127]")   # compact box
    rows = []
    totals = {}
    for label, key in (
        ("row_major", row_major_key),
        ("z", z_order_key),
        ("hilbert", hilbert_key),
    ):
        db = Database(tile_key=key)
        obj = db.create_object("imgs", IMG, label)
        obj.load_array(data, RegularTiling(2 * KB))
        db.reset_clock()
        row_ms = obj.read(row_query)[1].t_o
        db.reset_clock()
        square_ms = obj.read(square_query)[1].t_o
        totals[label] = (row_ms, square_ms)
        rows.append([label, f"{row_ms:.1f}", f"{square_ms:.1f}"])
    # Row-major keeps full-width bands contiguous; curves pay there.
    assert totals["row_major"][0] <= totals["z"][0]
    assert totals["row_major"][0] <= totals["hilbert"][0]
    benchmark(lambda: obj.read(square_query))
    write_result(
        "ablation_tile_order.txt",
        format_table(
            ["Order", "band query t_o (ms)", "box query t_o (ms)"],
            rows,
            title="A6: tile clustering order",
        ),
    )


def test_ablation_total_access_tuning(benchmark):
    """A7: MaxTileSize chosen for total access time (paper Section 8's
    future work) vs chosen for t_o alone, validated by execution.

    The tuner's static estimate must agree with the measured ranking:
    executing the workload under the tuner's pick is no slower than
    under the worst candidate.
    """
    from repro.core.mddtype import mdd_type as make_type
    from repro.stats.tuner import choose_max_tile_size

    domain = MInterval.parse("[0:255,0:255]")
    workload = [MInterval.parse("[10:25,10:25]")] * 4 + [
        MInterval.parse("[100:163,100:163]")
    ]
    candidates = [512, 2 * KB, 8 * KB, 32 * KB]
    result = choose_max_tile_size(
        lambda size: AlignedTiling(None, size), domain, 1, workload, candidates
    )

    measured = {}
    data = _image()
    for size in candidates:
        db = Database()
        obj = db.create_object("imgs", make_type("I", "char", str(domain)), f"s{size}")
        obj.load_array(data, AlignedTiling(None, size))
        total = 0.0
        for query in workload:
            db.reset_clock()
            total += obj.read(query)[1].t_totalaccess
        measured[size] = total / len(workload)
    assert measured[result.best_size] <= max(measured.values())
    # Tuner ranking correlates with measured ranking at the extremes.
    best_measured = min(measured, key=measured.get)
    assert result.costs[best_measured] <= max(result.costs.values())
    benchmark(
        lambda: choose_max_tile_size(
            lambda size: AlignedTiling(None, size), domain, 1,
            workload, candidates,
        )
    )
    rows = [
        [f"{size // KB or size}{'K' if size >= KB else 'B'}",
         f"{result.costs[size]:.1f}", f"{measured[size]:.1f}"]
        for size in candidates
    ]
    write_result(
        "ablation_tuner.txt",
        format_table(
            ["MaxTileSize", "estimated ms/query", "measured ms/query"],
            rows,
            title=f"A7: total-access tuning (picked "
                  f"{result.best_size // KB}K; t_o-only would pick "
                  f"{result.t_o_only_best // KB}K)",
        ),
    )


def test_ablation_compression_sparse(benchmark):
    """A5: selective compression on a sparse cube — storage shrinks and
    t_o falls (fewer pages), while dense incompressible data is stored
    raw and unharmed."""
    cube_type = mdd_type("Sparse", "ulong", "[0:99,0:99,0:99]")
    sparse = sparse_cube((100, 100, 100), density=0.03, seed=5)
    query = MInterval.parse("[0:99,0:99,0:99]")
    rows = []
    timings = {}
    for label, db in (
        ("raw", Database(compression=False)),
        ("selective zlib", Database(compression=True, codecs=("zlib",))),
        ("selective zlib+planes", Database(compression=True, codecs=("zlib", "planes"))),
    ):
        obj = db.create_object("c", cube_type, label)
        obj.load_array(sparse, RegularTiling(64 * KB))
        db.reset_clock()
        out, timing = obj.read(query)
        assert (out == sparse).all()
        timings[label] = timing
        wins = Counter(entry.codec for entry in obj.tile_entries())
        rows.append(
            [label, f"{obj.stored_bytes() / 2**20:.2f}",
             f"{timing.t_o:.0f}",
             ", ".join(f"{codec} {n}" for codec, n in sorted(wins.items()))]
        )
    assert timings["selective zlib"].t_o < timings["raw"].t_o
    assert timings["selective zlib+planes"].t_o < timings["raw"].t_o
    benchmark(lambda: obj.read(MInterval.parse("[0:20,0:20,0:20]")))
    write_result(
        "ablation_compression.txt",
        format_table(["Config", "stored MB", "full-scan t_o (ms)", "tiles per codec"],
                     rows, title="A5: selective compression on sparse data"),
    )
