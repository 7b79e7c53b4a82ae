"""Plain-text report tables in the paper's format.

Benchmarks print their reproduction of each table/figure through these
helpers so the harness output can be compared side by side with the
published numbers (see EXPERIMENTS.md).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from repro.query.timing import QueryTiming

#: Environment variable naming a default artifact directory.
ARTIFACTS_ENV = "REPRO_BENCH_ARTIFACTS"


def digest(value: object) -> str:
    """Bitwise SHA-256 of a result: raw C-order bytes for arrays (and
    GROUP BY value cubes), the exact ``repr`` for scalars."""
    if isinstance(value, np.ndarray):
        payload = value.tobytes(order="C")
    else:
        payload = repr(value).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def artifact_directory(
    artifact_dir: Optional[Union[str, Path]],
) -> Optional[Path]:
    """Where artifacts go: ``artifact_dir``, else the directory
    ``REPRO_BENCH_ARTIFACTS`` names, else nowhere (``None``)."""
    if artifact_dir is None:
        artifact_dir = os.environ.get(ARTIFACTS_ENV) or None
    return None if artifact_dir is None else Path(artifact_dir)


def write_json(artifact: dict, directory: Union[str, Path]) -> Path:
    """Write ``<directory>/BENCH_<artifact['label']>.json``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{artifact['label']}.json"
    path.write_text(json.dumps(artifact, indent=2) + "\n", encoding="utf-8")
    return path


def write_report(
    report: dict, artifact_dir: Optional[Union[str, Path]]
) -> dict:
    """Write a gate bench's report as its artifact when a directory is
    named (argument or environment) and note the path in the returned
    report — after writing, so the file itself never carries it."""
    directory = artifact_directory(artifact_dir)
    if directory is not None:
        report["artifact_path"] = str(write_json(report, directory))
    return report


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Fixed-width ASCII table."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, value in enumerate(row):
            widths[i] = max(widths[i], len(value))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def speedup_rows(
    speedups: Mapping[str, Mapping[str, float]],
    components: Sequence[str] = ("t_o", "t_totalaccess", "t_totalcpu"),
) -> str:
    """The paper's Table 4/6 layout: one block per component, queries as
    columns."""
    queries = list(speedups)
    blocks = []
    for component in components:
        rows = [[q for q in queries], [f"{speedups[q][component]:.1f}" for q in queries]]
        blocks.append(
            format_table(
                headers=[component] + [""] * (len(queries) - 1),
                rows=rows,
            )
        )
    return "\n\n".join(blocks)


def timing_components_rows(
    timings: Mapping[str, QueryTiming],
) -> str:
    """Per-query time components (Figure 7/8 data as a table, ms)."""
    headers = ["query", "t_ix", "t_o", "t_cpu", "t_totalaccess", "t_totalcpu"]
    rows = [
        [
            name,
            f"{t.t_ix:.1f}",
            f"{t.t_o:.1f}",
            f"{t.t_cpu:.1f}",
            f"{t.t_totalaccess:.1f}",
            f"{t.t_totalcpu:.1f}",
        ]
        for name, t in timings.items()
    ]
    return format_table(headers, rows)


def activity_rows(
    timings: Mapping[str, QueryTiming],
    title: Optional[str] = None,
) -> str:
    """Per-query storage activity: tiles, pages, bytes, pool behaviour.

    The buffer-pool columns are each query's own pool outcomes; without
    a pool they are all zero and the hit rate reads 0%.
    """
    headers = [
        "query", "tiles", "pages", "KB", "pool hit", "pool miss",
        "evict", "hit%",
    ]
    rows = [
        [
            name,
            str(t.tiles_read),
            str(t.pages_read),
            f"{t.bytes_read / 1024:.1f}",
            str(t.pool_hits),
            str(t.pool_misses),
            str(t.pool_evictions),
            f"{t.pool_hit_rate * 100:.0f}",
        ]
        for name, t in timings.items()
    ]
    return format_table(headers, rows, title=title)


def pool_summary_rows(runs: Mapping[str, object]) -> str:
    """Per-scheme buffer-pool totals over the query set, summed from the
    scheme's per-query records (``runs`` maps name → SchemeRun)."""
    headers = ["scheme", "capacity KB", "hits", "misses", "evict", "hit%"]
    rows = []
    for name, run in runs.items():
        pool = run.database.pool  # type: ignore[attr-defined]
        if pool is None:
            rows.append([name, "-", "0", "0", "0", "-"])
        else:
            total = run.total()  # type: ignore[attr-defined]
            rows.append(
                [
                    name,
                    f"{pool.capacity_bytes / 1024:.0f}",
                    str(total.pool_hits),
                    str(total.pool_misses),
                    str(total.pool_evictions),
                    f"{total.pool_hit_rate * 100:.0f}",
                ]
            )
    return format_table(headers, rows, title="Buffer pool activity")


def snapshot_rows(snapshot: Mapping[str, object]) -> str:
    """Render an ``obs`` registry snapshot as report tables."""
    blocks = []
    counters = snapshot.get("counters") or {}
    if counters:
        rows = [[name, f"{value:g}"] for name, value in counters.items()]
        blocks.append(format_table(["counter", "value"], rows))
    gauges = snapshot.get("gauges") or {}
    if gauges:
        rows = [[name, f"{value:g}"] for name, value in gauges.items()]
        blocks.append(format_table(["gauge", "value"], rows))
    histograms = snapshot.get("histograms") or {}
    if histograms:
        rows = [
            [
                name,
                str(hist["count"]),
                f"{hist['sum']:.2f}",
                f"{hist['sum'] / hist['count']:.3f}" if hist["count"] else "-",
            ]
            for name, hist in histograms.items()
        ]
        blocks.append(
            format_table(["histogram", "count", "sum_ms", "mean_ms"], rows)
        )
    if not blocks:
        return "(registry is empty)"
    return "\n\n".join(blocks)
