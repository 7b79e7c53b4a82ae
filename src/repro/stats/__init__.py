"""Access statistics: the access log and the automatic tiling advisor."""

from repro.stats.advisor import Advice, advise
from repro.stats.log import AccessLog
from repro.stats.tuner import (
    CostEstimate,
    TuningResult,
    choose_max_tile_size,
    estimate_query_cost,
    estimate_workload_cost,
)

__all__ = [
    "AccessLog",
    "Advice",
    "CostEstimate",
    "TuningResult",
    "advise",
    "choose_max_tile_size",
    "estimate_query_cost",
    "estimate_workload_cost",
]
