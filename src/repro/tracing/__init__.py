"""Causal span tracing for the simulated memory path.

Three tiers: per-request simulation spans and timelines
(:class:`SpanTracer`, a zero-perturbation
:class:`~repro.observer.Observer`), critical-path attribution
(:mod:`.critpath`), and Perfetto/JSONL/``.npy`` export with distributed
trace-id propagation (:mod:`.export`). Enable per run with
``simulate(..., tracing="on")``, ``repro run --tracing on``, or
``$REPRO_TRACING``; see ``docs/observability.md``.
"""

from repro.tracing.critpath import (
    ATTRIBUTION_COMPONENTS,
    attribution_table,
    critical_path,
    format_critical_path,
    path_attribution,
    slowest,
)
from repro.tracing.export import (
    check_trace_path,
    export_perfetto,
    export_spans_jsonl,
    export_trace,
    load_trace,
)
from repro.tracing.spans import TRACE_SCHEMA_VERSION, SpanTracer

__all__ = [
    "ATTRIBUTION_COMPONENTS",
    "TRACE_SCHEMA_VERSION",
    "SpanTracer",
    "attribution_table",
    "check_trace_path",
    "critical_path",
    "export_perfetto",
    "export_spans_jsonl",
    "export_trace",
    "format_critical_path",
    "load_trace",
    "path_attribution",
    "slowest",
]
