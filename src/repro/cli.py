"""Command-line interface: regenerate the paper's tables without pytest.

Usage::

    python -m repro info          # library and model summary
    python -m repro spec          # Tables 1-3 and 5 (setup, no measurement)
    python -m repro table4        # directional vs regular speedups (~2 min)
    python -m repro table6        # areas-of-interest speedups (~30 s)
    python -m repro figure7       # time components, queries e/f/g
    python -m repro figure8       # time components, animation queries
    python -m repro tables        # everything above
    python -m repro stats         # observability registry snapshot
    python -m repro explain QUERY # EXPLAIN ANALYZE one sales-cube query
    python -m repro serve         # REST tile server; also /metrics, /healthz
    python -m repro bench pipeline  # cold reads vs decoded-cache warm repeats
    python -m repro bench ingest    # serial vs batched vs parallel writes
    python -m repro bench concurrent  # snapshot readers scaling under a writer
    python -m repro recover DIR   # replay the write-ahead log of a database
    python -m repro fsck DIR      # offline consistency check (exit 1 on issues)

Benchmark commands accept ``--runs N`` (repeat count per query, default
3), ``--buffer-mb M`` (enable an LRU buffer pool), ``--warm`` (keep the
pool across repeat runs), and ``--artifacts DIR`` / ``--no-artifacts``
(machine-readable ``BENCH_*.json`` output, default ``bench_artifacts/``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import __version__, obs
from repro.bench import animation, salescube
from repro.bench.harness import BenchmarkResults, run_benchmark
from repro.bench.figures import figure_for_schemes
from repro.bench.report import (
    activity_rows,
    format_table,
    pool_summary_rows,
    snapshot_rows,
    timing_components_rows,
)
from repro.core.cells import known_base_types
from repro.core.geometry import MInterval
from repro.core.mddtype import mdd_type
from repro.index.zonemap import AGG_FUNCS
from repro.query.engine import QueryEngine
from repro.storage.compression import known_codecs
from repro.storage.disk import CpuParameters, DiskParameters
from repro.storage.tilestore import Database
from repro.tiling.aligned import RegularTiling

DEFAULT_ARTIFACT_DIR = "bench_artifacts"

#: Benchmark caches keyed by the measurement knobs that change results.
_BenchKey = Tuple[int, int, bool]
_SALES_CACHE: Dict[_BenchKey, BenchmarkResults] = {}
_ANIMATION_CACHE: Dict[_BenchKey, BenchmarkResults] = {}


def _bench_key(args: argparse.Namespace) -> _BenchKey:
    return (args.runs, args.buffer_mb, args.warm)


def _database_factory(args: argparse.Namespace):
    if args.buffer_mb <= 0:
        return None
    buffer_bytes = args.buffer_mb * 1024 * 1024
    return lambda: Database(buffer_bytes=buffer_bytes)


def _artifact_dir(args: argparse.Namespace) -> Optional[str]:
    return None if args.no_artifacts else args.artifacts


def _sales_results(args: argparse.Namespace) -> BenchmarkResults:
    key = _bench_key(args)
    if key not in _SALES_CACHE:
        print("Loading the Table 2 schemes (10 cubes, 16.7 MB each)...",
              file=sys.stderr)
        _SALES_CACHE[key] = run_benchmark(
            salescube.build_schemes(),
            salescube.sales_mdd_type(),
            salescube.generate_sales_data(),
            salescube.QUERIES,
            origin=(1, 1, 1),
            runs=args.runs,
            database_factory=_database_factory(args),
            warm=args.warm,
            label="sales",
            artifact_dir=_artifact_dir(args),
        )
    return _SALES_CACHE[key]


def _animation_results(args: argparse.Namespace) -> BenchmarkResults:
    key = _bench_key(args)
    if key not in _ANIMATION_CACHE:
        print("Loading the Table 5 schemes (8 animations, 6.8 MB each)...",
              file=sys.stderr)
        _ANIMATION_CACHE[key] = run_benchmark(
            animation.build_schemes(),
            animation.animation_mdd_type(),
            animation.generate_animation(),
            animation.QUERIES,
            origin=(0, 0, 0),
            runs=args.runs,
            database_factory=_database_factory(args),
            warm=args.warm,
            label="animation",
            artifact_dir=_artifact_dir(args),
        )
    return _ANIMATION_CACHE[key]


def cmd_info(_args: argparse.Namespace) -> int:
    disk = DiskParameters()
    cpu = CpuParameters()
    print(f"repro {__version__} — Furtado & Baumann, ICDE 1999 reproduction")
    print(f"base types : {', '.join(known_base_types())}")
    print(f"codecs     : {', '.join(known_codecs())}")
    print(f"disk model : seek {disk.seek_ms} ms, rotation {disk.rotation_ms} ms, "
          f"{disk.transfer_mb_per_s} MB/s, blob overhead {disk.blob_overhead_ms} ms")
    print(f"cpu model  : aligned {cpu.aligned_mb_per_s} MB/s, "
          f"border {cpu.border_mb_per_s} MB/s")
    print("strategies : aligned, regular, single-tile, cuts, directional, "
          "areas-of-interest, statistic")
    print(f"observability: {len(obs.registry.metrics())} instruments registered")
    return 0


def cmd_spec(_args: argparse.Namespace) -> int:
    rows = [
        ["1", "Days (730)", "Months (24)"],
        ["2", "Products (60)", "Classes (3)"],
        ["3", "Stores (100)", "Districts (8)"],
    ]
    print(format_table(["Dim", "Cells", "Categories"], rows,
                       title="Table 1: benchmark data cube"))
    print()
    query_rows = []
    for name, region in salescube.QUERIES.items():
        resolved = region.resolve(salescube.SALES_DOMAIN)
        query_rows.append(
            [name, str(region), f"{resolved.cell_count * 4 / 1024:.1f}",
             salescube.QUERY_SELECTS[name]]
        )
    print(format_table(["Query", "Region", "KB", "Selected"], query_rows,
                       title="Table 3: directional tiling queries"))
    print()
    animation_rows = [
        ["Domain", str(animation.ANIMATION_DOMAIN)],
        ["Area 1 (head)", str(animation.AREA_HEAD)],
        ["Area 2 (body)", str(animation.AREA_BODY)],
    ]
    print(format_table(["Item", "Value"], animation_rows,
                       title="Table 5: animation test"))
    return 0


def _print_speedups(
    results: BenchmarkResults, tuned: str, baseline: str, title: str
) -> None:
    speedups = results.speedups(tuned, baseline)
    rows = [
        [query] + [f"{ratios[c]:.1f}"
                   for c in ("t_o", "t_totalaccess", "t_totalcpu")]
        for query, ratios in speedups.items()
    ]
    print(format_table(["Query", "t_o", "t_totalaccess", "t_totalcpu"],
                       rows, title=title))


def _print_activity(results: BenchmarkResults, schemes: Sequence[str]) -> None:
    for scheme in schemes:
        print()
        print(activity_rows(
            results.scheme(scheme).timings,
            title=f"{scheme}: storage activity per query",
        ))
    print()
    print(pool_summary_rows(results.runs))
    if results.artifact_path:
        print(f"\nartifact: {results.artifact_path}")


def cmd_table4(args: argparse.Namespace) -> int:
    results = _sales_results(args)
    _print_speedups(results, "Dir64K3P", "Reg32K",
                    "Table 4: speedup of Dir64K3P over Reg32K")
    _print_activity(results, ("Dir64K3P", "Reg32K"))
    return 0


def cmd_table6(args: argparse.Namespace) -> int:
    results = _animation_results(args)
    _print_speedups(results, "AI256K", "Reg64K",
                    "Table 6: speedup of AI256K over Reg64K")
    _print_activity(results, ("AI256K", "Reg64K"))
    return 0


def cmd_figure7(args: argparse.Namespace) -> int:
    results = _sales_results(args)
    print(figure_for_schemes(
        {s: results.scheme(s).timings for s in ("Dir64K3P", "Reg32K")},
        queries=list("efg"),
        title="Figure 7: times for queries e, f and g",
    ))
    print()
    for scheme in ("Dir64K3P", "Reg32K"):
        timings = {q: results.scheme(scheme).timings[q] for q in "efg"}
        print(f"{scheme} (Figure 7, ms)")
        print(timing_components_rows(timings))
        print()
    return 0


def cmd_figure8(args: argparse.Namespace) -> int:
    results = _animation_results(args)
    print(figure_for_schemes(
        {s: results.scheme(s).timings for s in ("Reg64K", "AI256K")},
        queries=list(animation.QUERIES),
        title="Figure 8: times for Reg64K and AI256K",
    ))
    print()
    for scheme in ("Reg64K", "AI256K"):
        timings = {
            q: results.scheme(scheme).timings[q] for q in animation.QUERIES
        }
        print(f"{scheme} (Figure 8, ms)")
        print(timing_components_rows(timings))
        print()
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    for command in (cmd_spec, cmd_table4, cmd_figure7, cmd_table6, cmd_figure8):
        command(args)
        print()
    return 0


# ----------------------------------------------------------------------
# Observability commands
# ----------------------------------------------------------------------

def _demo_workload() -> None:
    """Tiny query session so a live snapshot has something to show."""
    database = Database(buffer_bytes=256 * 1024, compression=True)
    img = mdd_type("StatsDemo", "char", "[0:63,0:63]")
    mdd = database.create_object("demo", img, "demo")
    data = (np.indices((64, 64)).sum(axis=0) % 7).astype(np.uint8)
    mdd.load_array(data, RegularTiling(1024))
    engine = QueryEngine(database)
    for region in ("[0:31,0:31]", "[16:47,16:47]", "[0:31,0:31]"):
        engine.range_query(mdd, MInterval.parse(region))
    engine.aggregate_query(mdd, MInterval.parse("[0:63,0:63]"), "add_cells")


def _headline(snapshot: dict) -> str:
    """The four derived lines the registry exists to answer."""
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})

    def value(name: str) -> float:
        return counters.get(name, 0)

    hits, misses = value("pool.hits"), value("pool.misses")
    lookups = hits + misses
    hit_rate = f"{hits / lookups * 100:.1f}%" if lookups else "n/a"
    encode = histograms.get("codec.encode_ms", {})
    decode = histograms.get("codec.decode_ms", {})
    lines = [
        f"disk reads  : {value('disk.blob_reads'):g} blobs, "
        f"{value('disk.pages_read'):g} pages, "
        f"{value('disk.bytes_read') / (1024 * 1024):.2f} MB",
        f"buffer pool : {hits:g} hits / {misses:g} misses "
        f"({hit_rate} hit rate), {value('pool.evictions'):g} evictions",
        f"index       : {value('index.rplustree.nodes_visited'):g} node visits "
        f"across {value('index.rplustree.searches'):g} searches",
        f"codec time  : {encode.get('sum', 0.0):.2f} ms encode "
        f"({encode.get('count', 0)} ops), "
        f"{decode.get('sum', 0.0):.2f} ms decode ({decode.get('count', 0)} ops)",
    ]
    return "\n".join(lines)


def cmd_stats(args: argparse.Namespace) -> int:
    """Print the registry snapshot of the latest bench artifact (or live)."""
    artifacts = sorted(
        Path(args.artifacts).glob("BENCH_*.json"),
        key=lambda p: p.stat().st_mtime,
    )
    if artifacts:
        path = artifacts[-1]
        data = json.loads(path.read_text(encoding="utf-8"))
        snapshot = data.get("registry", {})
        print(f"Registry snapshot from {path} "
              f"(label={data.get('label')}, runs={data.get('runs')})")
    else:
        print("No BENCH_*.json artifacts found; "
              "running the built-in demo workload...", file=sys.stderr)
        obs.reset()
        _demo_workload()
        snapshot = obs.snapshot()
        print("Registry snapshot (live demo workload)")
    print()
    print(_headline(snapshot))
    print()
    print(snapshot_rows(snapshot))
    if args.prometheus and not artifacts:
        print()
        print(obs.prometheus_text(obs.registry))
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """EXPLAIN ANALYZE one sales-cube query: per-stage profile."""
    region = salescube.QUERIES[args.query]
    schemes = salescube.build_schemes()
    if args.scheme not in schemes:
        print(f"unknown scheme {args.scheme!r}; known: "
              f"{', '.join(sorted(schemes))}", file=sys.stderr)
        return 2
    buffer_bytes = args.buffer_mb * 1024 * 1024
    database = Database(buffer_bytes=buffer_bytes)
    mdd = database.create_object(
        "explain", salescube.sales_mdd_type(), args.scheme
    )
    print(f"Loading sales cube with {args.scheme}...", file=sys.stderr)
    mdd.load_array(
        salescube.generate_sales_data(), schemes[args.scheme], origin=(1, 1, 1)
    )
    database.reset_clock()
    predicate = None
    if args.where is not None:
        from repro.index.zonemap import parse_predicate

        try:
            predicate = parse_predicate(args.where)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    profile = database.profile(
        "explain", args.scheme, region, predicate=predicate, op=args.agg
    )
    if args.json:
        print(json.dumps(profile.as_dict(), indent=2))
    else:
        print(profile.format())
    ok = profile.modelled_reconciles and profile.wall_reconciles()
    return 0 if ok else 1


def _demo_database() -> "Database":
    """A small deterministic database for ``repro serve --demo``."""
    database = Database(buffer_bytes=256 * 1024, compression=True)
    img = mdd_type("ServeDemo", "char", "[0:63,0:63]")
    mdd = database.create_object("demo", img, "demo")
    data = (np.indices((64, 64)).sum(axis=0) % 7).astype(np.uint8)
    mdd.load_array(data, RegularTiling(1024))
    # Its own collection: RaSQL ranges over every object in a
    # collection, so 2-d and 3-d objects must not share one.
    cube = mdd_type("ServeCube", "ulong", "[0:31,0:31,0:7]")
    obj = database.create_object("volumes", cube, "cube")
    volume = (
        np.indices((32, 32, 8)).sum(axis=0).astype(np.uint32) * 3 % 1000
    )
    obj.load_array(volume, RegularTiling(8192))
    return database


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a database over REST: slices, tile frames, query, write."""
    from repro.serve import TileServer

    if args.db is not None:
        from repro.storage.catalog import open_database

        database = open_database(args.db)
    else:
        database = _demo_database()
    server = TileServer(database, host=args.host, port=args.port)
    server.start()
    print(
        f"serving tiles on http://{args.host}:{server.port} "
        f"(/v1/collections, /v1/<coll>/<obj>/slice?box=..., /v1/query, "
        f"/metrics)",
        file=sys.stderr,
    )
    try:
        if args.duration is not None:
            import time as _time

            _time.sleep(args.duration)
        else:
            server.join()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        if args.db is not None:
            database.close()
    return 0


class _Bench(NamedTuple):
    """One ``repro bench`` mode: where it lives and how it reports."""

    module: str
    run: str
    help: str
    #: Flags (beyond ``--runs`` and the artifact directory) the run takes.
    extra: Tuple[str, ...] = ()
    verdicts: str = "identity verdicts:"
    #: Heading of the performance block; ``None``: the report has none.
    performance: Optional[str] = "performance (not gated):"


#: The mode-specific ``repro bench`` flags; a mode whose ``extra`` lacks
#: one refuses it.
_BENCH_FLAGS = ("io_workers", "decoded_mb")

_BENCHES: Dict[str, _Bench] = {
    "pipeline": _Bench(
        "repro.bench.pipeline", "run_pipeline_bench",
        "cold reads vs decoded-cache warm repeats",
        extra=("decoded_mb",),
        verdicts="verdicts:", performance=None,
    ),
    "ingest": _Bench(
        "repro.bench.ingest", "run_ingest_bench",
        "serial vs batched vs parallel writes",
        extra=("io_workers",),
    ),
    "concurrent": _Bench(
        "repro.bench.concurrent", "run_concurrent_bench",
        "snapshot-reader scaling under a writer",
    ),
    "obs": _Bench(
        "repro.bench.obsbench", "run_obs_bench",
        "always-on observability overhead vs the no-op instrument floor",
        performance="performance (overhead gate in identity):",
    ),
    "prune": _Bench(
        "repro.bench.prune", "run_prune_bench",
        "zone-map pruning selectivity sweep vs full scan",
    ),
    "serve": _Bench(
        "repro.bench.serve", "run_serve_bench",
        "parallel HTTP clients against the tile server",
    ),
    "query": _Bench(
        "repro.bench.query", "run_query_bench",
        "planned aggregate/GROUP BY pushdown vs materialize",
    ),
    "shard": _Bench(
        "repro.bench.shard", "run_shard_bench",
        "scatter-gather over 1/2/4 shards vs single store "
        "plus the WAL-shipping failover drill",
    ),
}


def cmd_bench(args: argparse.Namespace) -> int:
    """Run one implementation benchmark; exit 1 on a failed verdict."""
    bench = _BENCHES[args.mode]
    unused = [
        "--" + name.replace("_", "-")
        for name in _BENCH_FLAGS
        if getattr(args, name) is not None and name not in bench.extra
    ]
    if unused:
        print(f"repro bench {args.mode} takes no {', '.join(unused)}", file=sys.stderr)
        return 2
    module = importlib.import_module(bench.module)
    report = getattr(module, bench.run)(
        runs=args.runs,
        artifact_dir=_artifact_dir(args),
        **{name: getattr(args, name) for name in bench.extra if getattr(args, name) is not None},
    )
    print(module.comparison_table(report))
    print()
    print(bench.verdicts)
    for name, value in report["identity"].items():
        print(f"  {name}: {value}")
    if bench.performance is not None:
        print(bench.performance)
        for name, value in report["performance"].items():
            formatted = f"{value:.2f}" if isinstance(value, float) else value
            print(f"  {name}: {formatted}")
    if "artifact_path" in report:
        print(f"\nwrote {report['artifact_path']}")
    failed = any(value is False for value in report["identity"].values())
    return 1 if failed else 0


# ----------------------------------------------------------------------
# Durability commands
# ----------------------------------------------------------------------

def cmd_recover(args: argparse.Namespace) -> int:
    """Run the recovery pass on a database directory and report it."""
    from repro.storage.catalog import open_database

    database = open_database(args.directory)
    report = database.last_recovery
    database.close()
    if report is None or report.clean:
        print(f"{args.directory}: log clean, nothing to recover")
        return 0
    print(
        f"{args.directory}: replayed {report.transactions_replayed} "
        f"transaction(s) / {report.records_replayed} record(s) "
        f"({report.blobs_restored} blob(s) restored); discarded "
        f"{report.records_discarded} uncommitted record(s) and "
        f"{report.torn_bytes} torn byte(s)"
    )
    return 0


def cmd_fsck(args: argparse.Namespace) -> int:
    """Offline consistency check; exit 1 when inconsistencies exist."""
    from repro.storage.fsck import fsck_database

    report = fsck_database(args.directory, deep=args.deep)
    print(report.summary())
    for issue in report.issues:
        print(f"  {issue}")
    return 0 if report.ok else 1


_COMMANDS = {
    "info": cmd_info,
    "spec": cmd_spec,
    "table4": cmd_table4,
    "table6": cmd_table6,
    "figure7": cmd_figure7,
    "figure8": cmd_figure8,
    "tables": cmd_tables,
    "stats": cmd_stats,
    "explain": cmd_explain,
    "serve": cmd_serve,
    "bench": cmd_bench,
    "recover": cmd_recover,
    "fsck": cmd_fsck,
}

_BENCH_COMMANDS = ("table4", "table6", "figure7", "figure8", "tables")


def _add_artifact_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--artifacts", default=DEFAULT_ARTIFACT_DIR, metavar="DIR",
        help=f"directory for BENCH_*.json artifacts "
             f"(default: {DEFAULT_ARTIFACT_DIR})",
    )
    parser.add_argument(
        "--no-artifacts", action="store_true",
        help="do not write BENCH_*.json artifacts",
    )


def _add_bench_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--runs", type=int, default=3, metavar="N",
        help="repeat each query N times and average (default: 3)",
    )
    parser.add_argument(
        "--buffer-mb", type=int, default=0, metavar="M",
        help="LRU buffer pool capacity in MiB (default: 0 = no pool)",
    )
    parser.add_argument(
        "--warm", action="store_true",
        help="keep pool/disk state across repeat runs (first run stays cold)",
    )
    _add_artifact_options(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's evaluation tables.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True,
                                       metavar="command")
    subparsers.add_parser("info", help="library and model summary")
    subparsers.add_parser("spec", help="Tables 1-3 and 5 (no measurement)")
    bench_help = {
        "table4": "directional vs regular speedups (~2 min)",
        "table6": "areas-of-interest speedups (~30 s)",
        "figure7": "time components, queries e/f/g",
        "figure8": "time components, animation queries",
        "tables": "all tables and figures",
    }
    for name in _BENCH_COMMANDS:
        sub = subparsers.add_parser(name, help=bench_help[name])
        _add_bench_options(sub)
    stats = subparsers.add_parser(
        "stats", help="print the observability registry snapshot"
    )
    stats.add_argument(
        "--artifacts", default=DEFAULT_ARTIFACT_DIR, metavar="DIR",
        help="directory to look for BENCH_*.json artifacts in",
    )
    stats.add_argument(
        "--prometheus", action="store_true",
        help="also print the Prometheus exposition dump (live mode)",
    )
    bench = subparsers.add_parser(
        "bench", help="implementation benchmarks (not paper tables)"
    )
    bench.add_argument(
        "mode",
        choices=tuple(_BENCHES),
        help="; ".join(f"{mode}: {b.help}" for mode, b in _BENCHES.items()),
    )
    bench.add_argument(
        "--runs", type=int, default=3, metavar="N",
        help="measured repeats per query and mode (default: 3)",
    )
    bench.add_argument(
        "--io-workers", type=int, default=None, metavar="W",
        help="ingest only: encode-pool workers for the parallel mode (default: 4)",
    )
    bench.add_argument(
        "--decoded-mb", type=int, default=None, metavar="M",
        help="pipeline only: decoded-tile cache capacity in MiB (default: 16)",
    )
    _add_artifact_options(bench)
    recover = subparsers.add_parser(
        "recover", help="replay a database's write-ahead log after a crash"
    )
    recover.add_argument("directory", help="database directory to recover")
    fsck = subparsers.add_parser(
        "fsck", help="offline consistency check of a database directory"
    )
    fsck.add_argument("directory", help="database directory to check")
    fsck.add_argument(
        "--deep", action="store_true",
        help="also recompute every zone-map synopsis from its decoded "
             "payload (reads all blobs twice)",
    )
    explain = subparsers.add_parser(
        "explain", help="EXPLAIN ANALYZE one sales-cube query"
    )
    explain.add_argument(
        "query", choices=sorted(salescube.QUERIES),
        help="Table 3 query letter",
    )
    explain.add_argument(
        "--scheme", default="Dir64K3P",
        help="tiling scheme to load (default: Dir64K3P)",
    )
    explain.add_argument(
        "--buffer-mb", type=int, default=0, metavar="M",
        help="LRU buffer pool capacity in MiB (default: 0 = no pool)",
    )
    explain.add_argument(
        "--json", action="store_true",
        help="emit the profile as JSON instead of the text report",
    )
    explain.add_argument(
        "--where", metavar="PRED", default=None,
        help="cell-level predicate, e.g. '> 128' or 'c != 0'; adds a "
             "prune stage reporting tiles_pruned",
    )
    explain.add_argument(
        "--agg", metavar="OP", default=None,
        choices=sorted(AGG_FUNCS),
        help="profile an aggregate instead of a read: plan shows the "
             "partial-aggregate pushdown stages "
             f"(one of: {', '.join(sorted(AGG_FUNCS))})",
    )
    tiles = subparsers.add_parser(
        "serve",
        help="REST tile server: slices, tile frames, RaSQL, ingest, /metrics",
    )
    tiles.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    tiles.add_argument(
        "--port", type=int, default=8765,
        help="TCP port; 0 picks a free one (default: 8765)",
    )
    tiles.add_argument(
        "--db", default=None, metavar="DIR",
        help="database directory to serve (default: in-memory demo data)",
    )
    tiles.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="serve for a fixed time then exit (default: until Ctrl-C)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
