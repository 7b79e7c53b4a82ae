"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/e2e/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is a ``results.json`` written by ``run.py``.  For every
(workload, end-to-end metric) pair the table gives each side's median and
quartiles, the ratio of the medians with its base, and a verdict against
the bound ``BENCHMARK.json`` fixes for that metric:

* ``unresolved`` — a side's own spread (quartile distance over median) is
  wider than the bound, so the runs cannot tell;
* ``regressed``  — B's median is worse than A's by more than the bound;
* ``within``     — neither.

Per-layer metrics of traced runs, when both sides have them, are listed
with their ratio only: they have no bound.  Exits 1 if anything regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Optional, Sequence

import summary


def load_side(paths: Sequence[str]) -> dict[tuple[str, str, str], list[float]]:
    """``(workload, section, metric) -> one value per run``."""
    side: dict[tuple[str, str, str], list[float]] = {}
    for path in paths:
        document = json.loads(Path(path).read_text())
        for workload, entry in document["workloads"].items():
            for section in ("metrics", "layers"):
                for metric, cell in entry.get(section, {}).items():
                    side.setdefault((workload, section, metric), []).append(
                        cell["value"]
                    )
    return side


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: Optional[float]
) -> str:
    if bound is None:
        return "-"
    spreads = [summary.spread(a), summary.spread(b)]
    if any(s is None or s > bound for s in spreads):
        return "unresolved"
    base = summary.quartiles(a)[1]
    change = (summary.quartiles(b)[1] - base) / abs(base)
    worse_by = change if better == "lower" else -change
    return "regressed" if worse_by > bound else "within"


def _summary(values: Sequence[float]) -> str:
    q1, median, q3 = summary.quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def compare(a_paths: Sequence[str], b_paths: Sequence[str]) -> int:
    spec = summary.load_spec()
    listed = {
        ("metrics", entry["name"]): entry for entry in spec["end_to_end"]
    }
    listed.update(
        {("layers", entry["name"]): entry for entry in spec["per_layer"]}
    )
    side_a = load_side(a_paths)
    side_b = load_side(b_paths)
    regressed = 0
    unresolved = 0
    print(
        "workload  metric  unit  A median [q1, q3]  B median [q1, q3]  "
        "B/A (base = A median)  bound  verdict"
    )
    for key in sorted(side_a.keys() & side_b.keys()):
        workload, section, metric = key
        entry = listed.get((section, metric))
        if entry is None:
            continue
        a, b = side_a[key], side_b[key]
        base = summary.quartiles(a)[1]
        other = summary.quartiles(b)[1]
        if not base and not other:
            continue  # a layer this workload never enters
        ratio = f"{other / base:.4f}" if base else "n/a"
        outcome = verdict(a, b, entry["better"], entry.get("bound"))
        regressed += outcome == "regressed"
        unresolved += outcome == "unresolved"
        print(
            f"{workload}  {metric}  {entry['unit']}  {_summary(a)}  "
            f"{_summary(b)}  {ratio} (of {base:.5g})  "
            f"{entry.get('bound', '-')}  {outcome}"
        )
    print(f"{regressed} regressed, {unresolved} unresolved")
    return 1 if regressed else 0


def main(argv: Sequence[str]) -> int:
    if "--" not in argv:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    split = argv.index("--")
    a_paths, b_paths = argv[:split], argv[split + 1 :]
    if not a_paths or not b_paths:
        print("need at least one file on each side of --", file=sys.stderr)
        return 2
    return compare(a_paths, b_paths)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
