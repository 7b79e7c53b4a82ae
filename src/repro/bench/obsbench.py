"""Observability-overhead benchmark: the always-on registry vs its floor.

The metrics registry is always on, so its cost is paid by every read.
This bench puts a number on it: it loads the read-pipeline cube once
and reads the same query set in two modes:

* ``enabled`` — the build as shipped;
* ``noop``    — the no-obs floor: every instrument method
  (``Counter.inc``, ``Gauge.set/inc/dec``, ``Histogram.observe`` and
  ``observe_many``) patched to an empty body
  (:func:`noop_instruments`).  This is the closest a Python build can
  get to compiling the instrumentation out.

Each ``--runs`` unit is ``ROUNDS`` rounds.  A round reads every query
``PASSES`` times back to back in each mode, alternating which mode goes
first, and pairs the two modes' totals.  The overhead is the median of
the rounds' paired ratios, so drift in machine speed between rounds
cancels.  The gated verdict is ``enabled_overhead_ok``: that median
stays within ``OVERHEAD_PCT``.  A round's floor total is tens of
milliseconds, so the percent gate needs no absolute slack.  Byte
identity and equality of the modelled charges across both modes are
gated too: observability must never change results.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro import obs
from repro.bench.pipeline import QUERIES, _load_cube
from repro.bench.report import digest, format_table, write_report
from repro.core.geometry import MInterval
from repro.obs import metrics

#: Gated ceiling on the median of enabled / noop - 1, in percent.
OVERHEAD_PCT = 5.0
#: Rounds per ``--runs`` unit, and cold reads per query and mode in one
#: round.
ROUNDS = 20
PASSES = 10

MODES = ("enabled", "noop")

_INSTRUMENTS = (
    (metrics.Counter, "inc"),
    (metrics.Gauge, "set"),
    (metrics.Gauge, "inc"),
    (metrics.Gauge, "dec"),
    (metrics.Histogram, "observe"),
    (metrics.Histogram, "observe_many"),
    (metrics.MetricsRegistry, "fold"),
)


@contextmanager
def noop_instruments():
    """Patch every instrument method to an empty body (no-obs floor)."""
    saved = [vars(cls)[name] for cls, name in _INSTRUMENTS]

    def _noop(self, *args, **kwargs):
        pass

    for cls, name in _INSTRUMENTS:
        setattr(cls, name, _noop)
    try:
        yield
    finally:
        for (cls, name), method in zip(_INSTRUMENTS, saved):
            setattr(cls, name, method)


def run_obs_bench(
    runs: int = 3,
    artifact_dir: Optional[Union[str, Path]] = None,
) -> dict:
    """Measure both modes and return the report."""
    database, mdd = _load_cube(io_workers=1)
    regions = {name: MInterval.parse(spec) for name, spec in QUERIES.items()}

    bursts: Dict[str, Dict[str, List[float]]] = {
        mode: {query: [] for query in QUERIES} for mode in MODES
    }
    samples: Dict[str, Dict[str, dict]] = {mode: {} for mode in MODES}

    rounds = max(1, runs) * ROUNDS
    for round_ in range(rounds):
        for turn, (query, region) in enumerate(regions.items()):
            for mode in MODES if (round_ + turn) % 2 == 0 else MODES[::-1]:
                with noop_instruments() if mode == "noop" else nullcontext():
                    wall = 0.0
                    for _ in range(PASSES):
                        database.reset_clock()
                        started = time.perf_counter()
                        array, timing = mdd.read(region)
                        wall += time.perf_counter() - started
                bursts[mode][query].append(wall * 1000.0)
                samples[mode][query] = {"digest": digest(array), "timing": timing.as_dict()}
    database.close()

    modes_report = {
        mode: {
            query: {"burst_ms_median": statistics.median(bursts[mode][query]), **samples[mode][query]}
            for query in QUERIES
        }
        for mode in MODES
    }
    round_totals = {
        mode: [sum(walls) for walls in zip(*bursts[mode].values())] for mode in MODES
    }
    totals = {mode: statistics.median(round_totals[mode]) for mode in MODES}
    overhead_pct = 100.0 * (
        statistics.median(e / n for e, n in zip(round_totals["enabled"], round_totals["noop"])) - 1.0
    )
    enabled, noop = modes_report["enabled"], modes_report["noop"]
    snapshot = obs.snapshot()
    report = {
        "label": "obs",
        "created_unix": time.time(),
        "config": {
            "runs": runs, "rounds": rounds, "passes": PASSES,
            "queries": dict(QUERIES),
        },
        "modes": modes_report,
        "identity": {
            "byte_identical": all(enabled[q]["digest"] == noop[q]["digest"] for q in QUERIES),
            "modelled_charges_equal": all(
                enabled[q]["timing"][field] == noop[q]["timing"][field]
                for q in QUERIES
                for field in ("t_o", "tiles_read", "pages_read", "index_nodes")
            ),
            "enabled_overhead_ok": overhead_pct <= OVERHEAD_PCT,
        },
        "performance": {
            "enabled_total_ms": totals["enabled"],
            "noop_total_ms": totals["noop"],
            "enabled_overhead_pct": overhead_pct,
            "gate_pct": OVERHEAD_PCT,
        },
        # Per-histogram p50/p99 straight from the live registry.
        "latency_quantiles": {
            name: {"p50": data["p50"], "p99": data["p99"]}
            for name, data in snapshot["histograms"].items()
            if data["count"]
        },
        "registry": snapshot,
    }
    return write_report(report, artifact_dir)


def comparison_table(report: dict) -> str:
    """Fixed-width mode comparison for the CLI."""
    headers = ["query", "mode", f"ms per {PASSES} reads (median)", "t_o"]
    rows = []
    for query in report["config"]["queries"]:
        for mode in MODES:
            entry = report["modes"][mode][query]
            rows.append([
                query if mode == MODES[0] else "",
                mode,
                f"{entry['burst_ms_median']:.2f}",
                f"{entry['timing']['t_o']:.2f}",
            ])
    perf = report["performance"]
    rows.append(["total", "", "", f"en +{perf['enabled_overhead_pct']:.2f}%"])
    return format_table(
        headers, rows, title="observability overhead (median over rounds)"
    )
