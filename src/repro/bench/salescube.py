"""The OLAP sales-cube benchmark of Section 6.1 (Tables 1-4, Figure 7).

A 3-D data cube of a distributor's sales:

* axis 0 — time in days, 730 (two years), categorised into 24 months;
* axis 1 — products, 60, categorised into 3 product classes;
* axis 2 — stores, 100, categorised into 8 country districts.

Cells are 4-byte ``ulong`` sale counts, 16.7 MB per cube (Table 1).  The
extended cubes add one year, 240 products and 200 shops — 375 MB — with
the category partitions repeated (Section 6.1, last paragraph).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.core.geometry import MInterval
from repro.core.mddtype import MDDType, mdd_type
from repro.tiling.base import KB, TilingStrategy
from repro.tiling.aligned import RegularTiling
from repro.tiling.directional import DirectionalTiling

#: Table 1 — the small cube's spatial domain.
SALES_DOMAIN = MInterval.parse("[1:730,1:60,1:100]")

#: Table 1 — product classes partition of axis 1.
PRODUCT_CLASS_BOUNDARIES = (1, 27, 42, 60)

#: Table 1 — country districts partition of axis 2.
DISTRICT_BOUNDARIES = (1, 27, 35, 41, 59, 73, 89, 97, 100)

_MONTH_LENGTHS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def month_boundaries(first_day: int = 1, years: int = 2) -> tuple[int, ...]:
    """Paper-style month partition of the day axis: ``[1, 31, ..., 730]``.

    The first value opens the axis; every further value is the last day
    of a month (31, 59, 90, ...) over ``years`` non-leap years — 25
    boundary values delimiting the small cube's 24 months.
    """
    boundaries = [first_day]
    day = first_day - 1
    for _year in range(years):
        for length in _MONTH_LENGTHS:
            day += length
            boundaries.append(day)
    return tuple(boundaries)


def sales_mdd_type(domain: MInterval = SALES_DOMAIN) -> MDDType:
    """The cube's MDD type: 4-byte unsigned sale counts."""
    return mdd_type("SalesCube", "ulong", domain)


def partitions_2p(domain: MInterval = SALES_DOMAIN) -> dict[int, tuple[int, ...]]:
    """2P of Table 2: partitions along months and country districts only."""
    years = (domain.shape[0]) // 365
    return {
        0: month_boundaries(domain.lowest[0], years),
        2: _scaled_boundaries(DISTRICT_BOUNDARIES, domain, axis=2),
    }


def partitions_3p(domain: MInterval = SALES_DOMAIN) -> dict[int, tuple[int, ...]]:
    """3P of Table 2: partitions along all three dimensions."""
    parts = partitions_2p(domain)
    parts[1] = _scaled_boundaries(PRODUCT_CLASS_BOUNDARIES, domain, axis=1)
    return parts


def _scaled_boundaries(
    base: Sequence[int], domain: MInterval, axis: int
) -> tuple[int, ...]:
    """Repeat a small-cube partition across a larger extent.

    The extended cubes keep the same category structure "with the
    partition described before repeated": each repetition shifts the base
    boundaries by the small cube's extent on that axis.
    """
    small_extent = {0: 730, 1: 60, 2: 100}[axis]
    extent = domain.shape[axis]
    repeats, remainder = divmod(extent, small_extent)
    if remainder:
        raise ValueError(
            f"axis {axis} extent {extent} is not a multiple of {small_extent}"
        )
    lower = domain.lowest[axis]
    boundaries: list[int] = [lower]
    for repeat in range(repeats):
        offset = lower - base[0] + repeat * small_extent
        for value in base[1:]:  # category end coordinates
            boundaries.append(value + offset)
    return tuple(boundaries)


#: Table 2 — the tiling schemes compared (name → factory arguments).
SCHEME_SIZES_REGULAR = (32, 64, 128, 256)
SCHEME_SIZES_2P = (32, 64, 128, 256)
SCHEME_SIZES_3P = (32, 64)


def build_schemes(
    domain: MInterval = SALES_DOMAIN,
) -> Dict[str, TilingStrategy]:
    """All Table 2 schemes, keyed by the paper's names (Reg32K, Dir64K3P...).

    Dir128K3P / Dir256K3P are omitted exactly as in the paper: with all
    three partitions every block is already below 64 KB, so bigger
    MaxTileSize values would repeat Dir64K3P.
    """
    schemes: Dict[str, TilingStrategy] = {}
    for size in SCHEME_SIZES_REGULAR:
        schemes[f"Reg{size}K"] = RegularTiling(size * KB)
    two_p = partitions_2p(domain)
    for size in SCHEME_SIZES_2P:
        schemes[f"Dir{size}K2P"] = DirectionalTiling(two_p, size * KB)
    three_p = partitions_3p(domain)
    for size in SCHEME_SIZES_3P:
        schemes[f"Dir{size}K3P"] = DirectionalTiling(three_p, size * KB)
    return schemes


#: Table 3 — the query set (letter → region template with ``*`` bounds).
QUERIES: Dict[str, MInterval] = {
    "a": MInterval.parse("[32:59,28:42,28:35]"),
    "b": MInterval.parse("[32:59,*:*,28:35]"),
    "c": MInterval.parse("[32:59,28:42,*:*]"),
    "d": MInterval.parse("[*:*,28:42,28:35]"),
    "e": MInterval.parse("[32:59,*:*,*:*]"),
    "f": MInterval.parse("[*:*,*:*,28:35]"),
    "g": MInterval.parse("[*:*,28:42,*:*]"),
    "h": MInterval.parse("[182:365,*:*,*:*]"),
    "i": MInterval.parse("[32:396,*:*,*:*]"),
    "j": MInterval.parse("[28:34,*:*,*:*]"),
}

#: Table 3 — the categories each query selects, for report rows.
QUERY_SELECTS: Dict[str, str] = {
    "a": "1,1,1",
    "b": "1,all,1",
    "c": "1,1,all",
    "d": "all,1,1",
    "e": "1,all,all",
    "f": "all,all,1",
    "g": "all,1,all",
    "h": "6,all,all",
    "i": "12,all,all",
    "j": "1 week,all,all",
}

#: Queries the paper expects 2P schemes to win (no product-class restriction).
QUERIES_2P_FAVOURED = ("b", "e", "f", "h", "i")


#: Days (axis-0 rows) per Poisson draw of :func:`generate_sales_data`.
_BLOCK_DAYS = 16


def generate_sales_data(
    domain: MInterval = SALES_DOMAIN, seed: int = 20260706
) -> np.ndarray:
    """Deterministic synthetic sales counts with weekly/seasonal structure.

    The distribution is irrelevant to the timing comparison (tiling costs
    depend on geometry, not values) but realistic structure keeps CPU
    composition work honest and makes aggregate examples meaningful.
    """
    rng = np.random.default_rng(seed)
    days, products, stores = domain.shape
    day_index = np.arange(days, dtype=np.float64)
    weekly = 1.0 + 0.4 * np.sin(2 * np.pi * day_index / 7.0)
    seasonal = 1.0 + 0.3 * np.sin(2 * np.pi * day_index / 365.0)
    day_factor = (weekly * seasonal)[:, None, None]
    product_pop = rng.gamma(2.0, 2.0, size=(1, products, 1))
    store_size = rng.gamma(3.0, 1.5, size=(1, 1, stores))
    # Poisson draws take the stream in C order: blocks of days drawn in
    # order equal one whole-cube draw, without its float64/int64 copies.
    cube = np.empty(domain.shape, dtype=np.uint32)
    for start in range(0, days, _BLOCK_DAYS):
        days_block = day_factor[start : start + _BLOCK_DAYS]
        cube[start : start + _BLOCK_DAYS] = rng.poisson(2.0 * days_block * product_pop * store_size)
    return cube


# ---------------------------------------------------------------------------
# Extended cubes (Section 6.1, last paragraph)
# ---------------------------------------------------------------------------

#: 1095 days x 300 products x 300 stores x 4 B = 375 MB.
EXTENDED_DOMAIN = MInterval.parse("[1:1095,1:300,1:300]")


def extended_partitions_3p() -> dict[int, tuple[int, ...]]:
    return partitions_3p(EXTENDED_DOMAIN)


def extended_schemes() -> Dict[str, TilingStrategy]:
    """Only the two schemes the paper re-ran at 375 MB."""
    return {
        "Reg32K": RegularTiling(32 * KB),
        "Dir64K3P": DirectionalTiling(extended_partitions_3p(), 64 * KB),
    }
