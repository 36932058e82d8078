"""Observability: streaming metrics, time series, profiling, exporters.

Off by default and zero-cost when disabled: :class:`ObsCollector` is an
:class:`~repro.observer.Observer` with no request hooks, so it never
sits on the memory path; it samples the chip from its own timer events
and reads end-of-run counters. Enable per run with ``simulate(obs="on")``
/ ``simulate(obs="profile")`` or globally with ``$REPRO_OBS``; export
with ``repro run --obs metrics.jsonl`` and render with
``repro obs report metrics.jsonl``. See ``docs/observability.md``.
"""

from repro.obs.collect import DEFAULT_SAMPLE_INTERVAL_NS, ObsCollector
from repro.obs.export import (check_export_path, export_csv, export_jsonl,
                              export_prometheus, export_snapshot, load_jsonl,
                              parse_prometheus, prometheus_text)
from repro.obs.metrics import Counter, Gauge, StreamingHistogram, TimeSeries
from repro.obs.profiler import KernelProfiler
from repro.obs.registry import MetricRegistry
from repro.obs.report import render_report, sparkline

__all__ = [
    "Counter", "Gauge", "StreamingHistogram", "TimeSeries",
    "MetricRegistry",
    "KernelProfiler", "ObsCollector", "DEFAULT_SAMPLE_INTERVAL_NS",
    "prometheus_text", "parse_prometheus",
    "export_jsonl", "export_csv", "export_prometheus", "export_snapshot",
    "check_export_path", "load_jsonl", "render_report", "sparkline",
]
