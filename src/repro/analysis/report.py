"""Formatting and aggregation helpers for experiment reports."""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Sequence

from repro.system.stats import SimResult


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's aggregate for speedups)."""
    vals = [v for v in values]
    if not vals:
        return 0.0
    if any(v <= 0 for v in vals):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def speedup_table(base: Mapping[str, SimResult], other: Mapping[str, SimResult]) -> Dict[str, float]:
    """Per-workload speedup of ``other`` over ``base`` (matched by key)."""
    common = sorted(set(base) & set(other))
    return {k: other[k].speedup_over(base[k]) for k in common}


def weighted_speedup(per_core_ipc: Sequence[float],
                     alone_ipc: Sequence[float]) -> float:
    """Weighted speedup for multiprogrammed mixes: sum_i IPC_i / IPC_i^alone.

    The paper's artifact derives this metric for mixed workloads; each
    tenant's throughput is normalized by its isolated (single-program)
    IPC so bandwidth hogs don't dominate the aggregate.
    """
    if len(per_core_ipc) != len(alone_ipc):
        raise ValueError("per-core and alone IPC lists must align")
    if any(a <= 0 for a in alone_ipc):
        raise ValueError("alone IPCs must be positive")
    return sum(i / a for i, a in zip(per_core_ipc, alone_ipc))


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 floatfmt: str = "{:.2f}") -> str:
    """Plain-text table renderer (no external deps)."""
    def fmt(v: object) -> str:
        if isinstance(v, float):
            return floatfmt.format(v)
        return str(v)

    srows = [[fmt(v) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in srows)) if srows else len(h)
              for i, h in enumerate(headers)]
    sep = "  "
    out = [sep.join(h.ljust(w) for h, w in zip(headers, widths))]
    out.append(sep.join("-" * w for w in widths))
    for r in srows:
        out.append(sep.join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(out)
