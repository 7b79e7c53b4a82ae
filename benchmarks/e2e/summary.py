"""What ``BENCHMARK.json`` fixes, and order statistics over several runs.

Kept free of any import of the program, so ``compare.py`` runs on result
files alone.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Optional, Sequence

ROOT = Path(__file__).resolve().parents[2]


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> Optional[float]:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else None
