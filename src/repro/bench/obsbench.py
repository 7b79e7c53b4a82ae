"""Observability-overhead benchmark: enabled vs disabled vs no-obs floor.

The obs layer's contract is that a *disabled* registry costs one branch
per instrument call.  This bench puts a number on that claim.  It loads
the read-pipeline cube three times and runs the same query set under
three observability states:

* ``enabled``  — metrics on (the default);
* ``disabled`` — ``obs.disable()``: every instrument call hits its
  enabled-flag check and returns;
* ``noop``     — the no-obs-build floor: obs disabled **and** every
  instrument method (``Counter.inc``, ``Gauge.set/inc/dec``,
  ``Histogram.observe``) monkeypatched to an empty body.  This is the closest a Python build can get to compiling the
  instrumentation out, so ``disabled - noop`` isolates the cost of the
  flag checks themselves.

Modes are interleaved run by run (mode A run 1, mode B run 1, ... then
run 2) so machine drift hits all three equally, and per-query walls are
min-of-runs.  The gated verdict is ``disabled_overhead_ok``: the
disabled walls must stay within ``OVERHEAD_PCT`` of the noop floor
(with a small absolute floor — on a quiet query set, percent-of-almost-
nothing is all noise).  Byte identity across all three modes and
equality of the modelled charges are gated too: observability must
never change results.  The enabled overhead is reported but not gated —
recording metrics does real work.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro import obs
from repro.bench.pipeline import QUERIES, _load_cube
from repro.bench.report import digest, format_table, write_report
from repro.core.geometry import MInterval

#: Gated ceiling on (disabled - noop) / noop, in percent.
OVERHEAD_PCT = 2.0
#: Absolute slack (ms, on the summed query set) under which the percent
#: gate does not bind — jitter floor for fast runs.
OVERHEAD_ABS_MS = 5.0

MODES = ("enabled", "disabled", "noop")


@contextmanager
def _noop_instruments():
    """Patch every instrument method to an empty body (no-obs floor)."""
    from repro.obs import metrics as m

    saved = (
        m.Counter.inc,
        m.Gauge.set,
        m.Gauge.inc,
        m.Gauge.dec,
        m.Histogram.observe,
    )

    def _noop(self, *args, **kwargs):
        pass

    m.Counter.inc = _noop
    m.Gauge.set = _noop
    m.Gauge.inc = _noop
    m.Gauge.dec = _noop
    m.Histogram.observe = _noop
    try:
        yield
    finally:
        (
            m.Counter.inc,
            m.Gauge.set,
            m.Gauge.inc,
            m.Gauge.dec,
            m.Histogram.observe,
        ) = saved


@contextmanager
def _mode_state(mode: str):
    """Observability state for one measured burst, restored afterwards."""
    was_enabled = obs.enabled()
    try:
        if mode == "enabled":
            obs.enable()
            yield
        elif mode == "disabled":
            obs.disable()
            yield
        elif mode == "noop":
            obs.disable()
            with _noop_instruments():
                yield
        else:  # pragma: no cover - caller bug
            raise ValueError(f"unknown mode {mode!r}")
    finally:
        if was_enabled:
            obs.enable()
        else:
            obs.disable()


def run_obs_bench(
    runs: int = 3,
    artifact_dir: Optional[Union[str, Path]] = None,
) -> dict:
    """Measure the three observability states and return the report."""
    cubes = {mode: _load_cube(io_workers=1) for mode in MODES}
    regions = {name: MInterval.parse(spec) for name, spec in QUERIES.items()}

    walls: Dict[str, Dict[str, List[float]]] = {
        mode: {query: [] for query in QUERIES} for mode in MODES
    }
    samples: Dict[str, Dict[str, dict]] = {mode: {} for mode in MODES}

    for _ in range(max(1, runs)):
        for mode in MODES:
            database, mdd = cubes[mode]
            with _mode_state(mode):
                for query, region in regions.items():
                    database.reset_clock()
                    started = time.perf_counter()
                    array, timing = mdd.read(region)
                    elapsed = (time.perf_counter() - started) * 1000.0
                    walls[mode][query].append(elapsed)
                    samples[mode][query] = {
                        "digest": digest(array),
                        "timing": timing.as_dict(),
                    }

    modes_report: Dict[str, Dict[str, dict]] = {}
    for mode in MODES:
        modes_report[mode] = {}
        for query in QUERIES:
            series = walls[mode][query]
            modes_report[mode][query] = {
                "wall_ms_min": float(np.min(series)),
                "wall_ms_mean": float(np.mean(series)),
                **samples[mode][query],
            }

    def total_min_wall(mode: str) -> float:
        return sum(modes_report[mode][q]["wall_ms_min"] for q in QUERIES)

    totals = {mode: total_min_wall(mode) for mode in MODES}
    noop_total = totals["noop"]

    def overhead_pct(mode: str) -> float:
        if noop_total <= 0.0:
            return 0.0
        return (totals[mode] - noop_total) / noop_total * 100.0

    disabled_ok = totals["disabled"] <= max(
        noop_total * (1.0 + OVERHEAD_PCT / 100.0),
        noop_total + OVERHEAD_ABS_MS,
    )
    byte_identical = all(
        modes_report["enabled"][q]["digest"]
        == modes_report["disabled"][q]["digest"]
        == modes_report["noop"][q]["digest"]
        for q in QUERIES
    )
    charges_equal = all(
        modes_report["enabled"][q]["timing"][field]
        == modes_report["disabled"][q]["timing"][field]
        == modes_report["noop"][q]["timing"][field]
        for q in QUERIES
        for field in ("t_o", "tiles_read", "pages_read", "index_nodes")
    )

    # The quantile satellite's consumer: per-histogram p50/p99 straight
    # from the live registry (the enabled runs populated it).
    obs.enable()
    snapshot = obs.snapshot()
    quantiles = {
        name: {"p50": data.get("p50"), "p99": data.get("p99")}
        for name, data in snapshot.get("histograms", {}).items()
        if data.get("count")
    }

    report = {
        "label": "obs",
        "created_unix": time.time(),
        "config": {"runs": runs, "queries": dict(QUERIES)},
        "modes": modes_report,
        "identity": {
            "byte_identical": byte_identical,
            "modelled_charges_equal": charges_equal,
            "disabled_overhead_ok": disabled_ok,
        },
        "performance": {
            "enabled_total_ms": totals["enabled"],
            "disabled_total_ms": totals["disabled"],
            "noop_total_ms": noop_total,
            "enabled_overhead_pct": overhead_pct("enabled"),
            "disabled_overhead_pct": overhead_pct("disabled"),
            "gate_pct": OVERHEAD_PCT,
            "gate_abs_ms": OVERHEAD_ABS_MS,
        },
        "latency_quantiles": quantiles,
        "registry": snapshot,
    }
    for database, _mdd in cubes.values():
        database.close()
    return write_report(report, artifact_dir)


def comparison_table(report: dict) -> str:
    """Fixed-width mode comparison for the CLI."""
    headers = ["query", "mode", "wall ms min", "wall ms mean", "t_o"]
    rows = []
    for query in report["config"]["queries"]:
        for mode in MODES:
            entry = report["modes"][mode][query]
            rows.append([
                query if mode == MODES[0] else "",
                mode,
                f"{entry['wall_ms_min']:.2f}",
                f"{entry['wall_ms_mean']:.2f}",
                f"{entry['timing']['t_o']:.2f}",
            ])
    perf = report["performance"]
    rows.append([
        "total", "", "", "",
        f"dis +{perf['disabled_overhead_pct']:.2f}% "
        f"en +{perf['enabled_overhead_pct']:.2f}%",
    ])
    return format_table(
        headers, rows, title="observability overhead (min over runs)"
    )
