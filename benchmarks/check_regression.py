#!/usr/bin/env python
"""Compare a fresh BENCH_*.json artifact against its committed baseline.

The benchmarks' correctness surfaces are deterministic and never vary
across runs on the same code; wall-clock fields do vary, so they are
ignored.  A mismatch in any deterministic field is a regression and
fails the build.  The artifact's ``label`` picks the comparison:

* ``pipeline`` — per-mode/query result digests plus the modelled disk
  charges (t_o, t_ix, pages/bytes/tiles read);
* ``ingest`` — per-mode WAL tallies (fsyncs, commits), tile counts,
  logical bytes, and read-back digests.  Compressed sizes and page-file
  hashes are compared *within* a run by the bench's identity verdicts,
  not against the baseline (codec output may vary across zlib builds);
* ``concurrent`` — per-mode reader counts and read quotas.  Throughput
  and scaling live in ``performance`` and are never gated (they depend
  on the runner's core count); the isolation invariants (no torn reads,
  cross-object snapshot consistency, reclamation convergence) are the
  boolean identity verdicts.
* ``obs`` — per-mode/query result digests and modelled charges, same
  shape as ``pipeline``.  The overhead gate itself
  (``enabled_overhead_ok``: the always-on registry within 5% of the
  no-op instrument floor) is a boolean identity verdict, so a
  baseline where it held keeps it held; the raw overhead percentages
  stay in ``performance`` and are never compared across machines.
* ``prune`` — per-mode/selectivity result digests and modelled charges
  (including ``tiles_pruned`` / ``tiles_synopsis_answered``), same
  shape as ``pipeline``.  Byte-identity of pruned vs full-scan reads
  and the zero-decode condenser verdicts are hard-gated via identity;
  the modelled speedups live in ``performance`` and are soft (reported,
  never compared).
* ``serve`` — per-mode client counts and read quotas.  Byte-identity of
  HTTP reads vs direct reads, exact 304 revalidation, and write-driven
  ETag invalidation are the boolean identity verdicts (hard-gated);
  requests/s and p50/p99 latency live in ``performance`` and are never
  compared (they measure the runner's network stack, not the code).
* ``query`` — per-strategy/config result digests and modelled charges
  (including ``tiles_partial_agg``), same shape as ``pipeline``.
  Bitwise identity of the pushdown vs materialize strategies and the
  one-tile peak-memory verdict are hard-gated via identity;
  ``peak_partial_bytes`` itself (deterministic: the largest tile
  reduced) is not compared field-for-field, and the modelled speedups
  live in ``performance`` and stay soft.
* ``shard`` — per-deployment/query result digests and modelled charges,
  same shape as ``pipeline`` (deployments: single store and 1/2/4
  shards).  Bitwise identity of scatter-gather reads and distributed
  pushdown vs the single store, the failover-recovers-committed-prefix
  drill, and the >= 2x modelled read-scaling verdict are hard-gated via
  identity; wall times and scatter speedups stay soft.

Identity verdicts are held to in both cases: a verdict that was True in
the baseline must stay True.

Usage:
    python benchmarks/check_regression.py CANDIDATE [BASELINE]

BASELINE defaults to benchmarks/baselines/<candidate filename> relative
to this script.  Exit status 0 = no regression, 1 = regression, 2 = bad
invocation, unreadable artifact, missing baseline, or a baseline that
gates nothing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

# deterministic per-query timing fields (modelled charges, not wall time)
CHARGE_FIELDS = (
    "t_o",
    "tiles_read",
    "bytes_read",
    "pages_read",
    "index_nodes",
    "cells_result",
    "cells_fetched",
    "tiles_pruned",
    "tiles_synopsis_answered",
    "tiles_partial_agg",
)

# deterministic per-mode ingest fields (WAL tallies and logical outcome)
INGEST_FIELDS = (
    "fsyncs",
    "wal_commits",
    "tile_count",
    "logical_bytes",
    "result_digest",
)

# deterministic per-mode concurrent-bench fields (workload shape only:
# commit counts, wall times and throughputs all vary run to run)
CONCURRENT_FIELDS = (
    "readers",
    "reads",
    "torn_reads",
    "inconsistent_snapshots",
)

# deterministic per-mode serve-bench fields (workload shape and exact
# correctness counters; latency and rps vary run to run and stay soft)
SERVE_FIELDS = (
    "clients",
    "requests",
    "mismatches",
    "errors",
    "expected_304",
)


def _load(path: Path, role: str) -> dict:
    """Read one artifact; a missing baseline is its own loud failure.

    Comparing against nothing is not a pass: a bench label whose
    ``BENCH_<label>.json`` was never committed would otherwise sail
    through CI gating zero fields forever.
    """
    if role == "baseline" and not path.exists():
        print(
            f"error: no committed baseline at {path}\n"
            f"  every gated bench label needs its baseline checked in; "
            f"generate one with\n"
            f"    PYTHONPATH=src python -m repro bench <label> --runs 1 "
            f"--artifacts bench_artifacts\n"
            f"  then commit bench_artifacts/{path.name} to "
            f"benchmarks/baselines/",
            file=sys.stderr,
        )
        raise SystemExit(2)
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {role} {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _compare_identity(candidate: dict, baseline: dict) -> list[str]:
    problems: list[str] = []
    base_identity = baseline.get("identity", {})
    cand_identity = candidate.get("identity", {})
    for key, expected in sorted(base_identity.items()):
        actual = cand_identity.get(key)
        if isinstance(expected, bool):
            # a verdict that held in the baseline must keep holding
            if expected and actual is not True:
                problems.append(
                    f"identity.{key}: baseline True, candidate {actual!r}"
                )
        elif actual != expected:
            problems.append(
                f"identity.{key}: baseline {expected!r}, "
                f"candidate {actual!r}"
            )
    return problems


def _compare_flat(path: str, cand: dict, base: dict, fields: tuple) -> list[str]:
    """One flat record: a problem per listed field the baseline holds
    and the candidate does not reproduce."""
    return [
        f"{path}.{field}: baseline {base[field]!r}, "
        f"candidate {cand.get(field)!r}"
        for field in fields
        if field in base and cand.get(field) != base[field]
    ]


#: Labels whose ``modes`` map a mode name straight to one flat record:
#: label -> the deterministic fields compared.  Every other label
#: ("pipeline", "obs", "prune", "query", "shard") has the per-mode /
#: per-query shape: a result digest plus ``CHARGE_FIELDS`` of its timing.
FLAT_FIELDS = {
    "ingest": INGEST_FIELDS,
    "concurrent": CONCURRENT_FIELDS,
    "serve": SERVE_FIELDS,
}


def _compare_run(path: str, cand_run, base_run: dict) -> list[str]:
    """One mode/query result: its digest and its modelled charges."""
    if cand_run is None:
        return [f"{path}: missing"]
    problems: list[str] = []
    if cand_run.get("digest") != base_run.get("digest"):
        problems.append(
            f"{path}: result digest changed "
            f"({base_run.get('digest')} -> {cand_run.get('digest')})"
        )
    return problems + _compare_flat(
        f"{path}.timing",
        cand_run.get("timing", {}),
        base_run.get("timing", {}),
        CHARGE_FIELDS,
    )


def compare(candidate: dict, baseline: dict) -> list[str]:
    problems = _compare_identity(candidate, baseline)
    fields = FLAT_FIELDS.get(baseline.get("label"))
    cand_modes = candidate.get("modes", {})
    for mode, base_entry in sorted(baseline.get("modes", {}).items()):
        cand_entry = cand_modes.get(mode)
        if cand_entry is None:
            problems.append(f"modes.{mode}: missing from candidate")
        elif fields is not None:
            problems += _compare_flat(
                f"modes.{mode}", cand_entry, base_entry, fields
            )
        else:
            for query, base_run in sorted(base_entry.items()):
                problems += _compare_run(
                    f"modes.{mode}.{query}", cand_entry.get(query), base_run
                )
    return problems


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    candidate_path = Path(argv[1])
    baseline_path = (
        Path(argv[2])
        if len(argv) == 3
        else Path(__file__).parent / "baselines" / candidate_path.name
    )
    candidate = _load(candidate_path, "candidate")
    baseline = _load(baseline_path, "baseline")
    problems = compare(candidate, baseline)
    if problems:
        print(f"REGRESSION vs {baseline_path}:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    if baseline.get("label") in FLAT_FIELDS:
        checked = len(baseline.get("modes", {}))
    else:
        checked = sum(
            len(queries) for queries in baseline.get("modes", {}).values()
        )
    verdicts = len(baseline.get("identity", {}))
    if checked == 0 and verdicts == 0:
        # an empty or shapeless baseline gates nothing — that is the
        # other silent-pass, and it fails just as loudly
        print(
            f"error: baseline {baseline_path} gates nothing "
            f"(no modes, no identity verdicts); regenerate it",
            file=sys.stderr,
        )
        return 2
    print(
        f"ok: {checked} mode/query results and "
        f"{verdicts} identity verdicts match "
        f"{baseline_path}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
