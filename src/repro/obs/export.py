"""Exporter: the registry in the Prometheus text format.

:func:`prometheus_text` reads the registry's
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot`, so exporting never
blocks or perturbs the instrumented hot paths.  It renders the
exposition format (``# TYPE`` headers, cumulative histogram buckets with
``le`` labels, ``_sum``/``_count`` series).  Metric names are sanitised
(``disk.blob_reads`` → ``repro_disk_blob_reads``); output is sorted by
series name, label values and help strings are escaped per the
exposition spec, and when two dotted names collapse to the same
sanitised series the ``HELP``/``TYPE`` header is emitted once and later
metrics are disambiguated with a ``name=`` label (or skipped with a
comment if their kinds conflict — one series cannot carry two types).
"""

from __future__ import annotations

import re
from typing import Dict, List

from repro.obs.metrics import MetricsRegistry

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")
_NAME_START_RE = re.compile(r"[a-zA-Z_:]")

#: Escapes mandated by the exposition format: label values additionally
#: escape the double quote; HELP text only backslash and newline.
_LABEL_ESCAPE = str.maketrans({"\\": r"\\", '"': r"\"", "\n": r"\n"})
_HELP_ESCAPE = str.maketrans({"\\": r"\\", "\n": r"\n"})


def escape_label_value(value: object) -> str:
    """Escape a value for use inside a Prometheus label (``k="v"``)."""
    return str(value).translate(_LABEL_ESCAPE)


def escape_help(text: str) -> str:
    """Escape a metric help string for a ``# HELP`` line."""
    return text.translate(_HELP_ESCAPE)


def prometheus_name(name: str, prefix: str = "repro_") -> str:
    """Sanitise a dotted metric name into a valid Prometheus series name."""
    series = prefix + _NAME_RE.sub("_", name)
    if not series or not _NAME_START_RE.match(series[0]):
        series = "_" + series
    return series


def prometheus_text(registry: MetricsRegistry, prefix: str = "repro_") -> str:
    """Prometheus exposition-format dump of the whole registry.

    Output is deterministic: entries are sorted by sanitised series
    name (then by original dotted name), so successive scrapes of the
    same registry differ only in sample values.
    """
    snapshot = registry.snapshot()
    entries: List[tuple] = []
    for name, value in snapshot["counters"].items():
        entries.append((prometheus_name(name, prefix), name, "counter", value))
    for name, value in snapshot["gauges"].items():
        entries.append((prometheus_name(name, prefix), name, "gauge", value))
    for name, hist in snapshot["histograms"].items():
        entries.append((prometheus_name(name, prefix), name, "histogram", hist))
    entries.sort(key=lambda entry: (entry[0], entry[1]))

    lines: List[str] = []
    declared: Dict[str, str] = {}
    for series, name, kind, payload in entries:
        first = series not in declared
        if first:
            declared[series] = kind
            metric = registry.get(name)
            if metric is not None and metric.help:
                lines.append(f"# HELP {series} {escape_help(metric.help)}")
            lines.append(f"# TYPE {series} {kind}")
        elif declared[series] != kind:
            # One exposition series cannot carry two metric types; keep
            # the first registration and leave a breadcrumb for the rest.
            lines.append(
                f"# repro: skipped {name}: {series} already exposed "
                f"as {declared[series]}"
            )
            continue
        # Later metrics that collide onto an already-declared series get
        # a disambiguating label instead of a duplicate bare sample.
        extra = "" if first else f'name="{escape_label_value(name)}"'
        label = f"{{{extra}}}" if extra else ""
        if kind == "histogram":
            joint = f",{extra}" if extra else ""
            for bound, count in payload["buckets"]:
                le = "+Inf" if bound == "+Inf" else repr(float(bound))
                lines.append(f'{series}_bucket{{le="{le}"{joint}}} {count}')
            lines.append(f"{series}_sum{label} {payload['sum']}")
            lines.append(f"{series}_count{label} {payload['count']}")
        else:
            lines.append(f"{series}{label} {payload}")
    return "\n".join(lines) + "\n"
