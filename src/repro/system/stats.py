"""Result container produced by one simulation run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.obs.metrics import StreamingHistogram


@dataclass
class SimResult:
    """Measured statistics of one (config, workload) simulation.

    Latency components follow the paper's breakdown of average L2-miss
    latency (Figures 2b/5): on-chip (NoC + LLC), DRAM service, memory-
    controller queuing, and CXL interface delay.
    """

    config_name: str
    workload_name: str

    # Performance
    ipc: float                          # mean per-core committed IPC
    core_ipcs: List[float]
    instructions: int
    elapsed_ns: float

    # L2-miss latency breakdown (averages over measured misses, ns)
    n_misses: int
    avg_miss_latency: float
    avg_onchip: float
    avg_queuing: float
    avg_dram: float
    avg_cxl: float
    p90_miss_latency: float

    # Memory traffic
    bandwidth_gbps: float               # achieved DRAM bandwidth
    read_bandwidth_gbps: float
    write_bandwidth_gbps: float
    peak_bandwidth_gbps: float
    llc_mpki: float                     # LLC misses per kilo-instruction
    llc_hit_rate: float

    # CALM telemetry
    calm_false_pos_rate: float = 0.0
    calm_false_neg_rate: float = 0.0
    calm_fraction: float = 0.0          # fraction of L2 misses that went CALM

    # Tail latency quantiles beyond p90 (ns). Estimated from the
    # streaming log-bucketed histogram (<=1% relative error); defaulted
    # so hand-built results and older payloads stay constructible.
    p50_miss_latency: float = 0.0
    p99_miss_latency: float = 0.0
    p999_miss_latency: float = 0.0

    #: Free-form per-run extras. Mostly float counters; when validation is
    #: enabled (see :mod:`repro.validate`) also holds the nested
    #: ``"invariant_violations"`` report dict.
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def invariant_violation_count(self) -> Optional[int]:
        """Violations found by the invariant checker, or None if it was off."""
        report = self.extras.get("invariant_violations")
        if report is None:
            return None
        return int(report.get("count", 0))

    @property
    def bandwidth_utilization(self) -> float:
        """Achieved / peak DRAM bandwidth."""
        if self.peak_bandwidth_gbps <= 0:
            return 0.0
        return self.bandwidth_gbps / self.peak_bandwidth_gbps

    @property
    def cpi(self) -> float:
        return 1.0 / self.ipc if self.ipc > 0 else float("inf")

    def speedup_over(self, other: "SimResult") -> float:
        """IPC ratio versus a baseline run of the same workload."""
        if other.ipc <= 0:
            return float("inf")
        return self.ipc / other.ipc

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.config_name:>14s} {self.workload_name:<16s} "
            f"IPC={self.ipc:5.2f} misslat={self.avg_miss_latency:6.1f}ns "
            f"(onchip={self.avg_onchip:5.1f} queue={self.avg_queuing:6.1f} "
            f"dram={self.avg_dram:5.1f} cxl={self.avg_cxl:5.1f}) "
            f"bw={self.bandwidth_gbps:5.1f}GB/s ({100 * self.bandwidth_utilization:4.1f}%) "
            f"MPKI={self.llc_mpki:5.1f}"
        )


class LatencyBreakdown:
    """Streaming aggregation of per-access latency components.

    Replaces the old per-run ``lat_records`` list (one 5-tuple per
    measured access, unbounded memory) with running component sums plus
    a :class:`~repro.obs.metrics.StreamingHistogram` of total latency.
    Means are exact; quantiles carry the histogram's <=1% relative
    error. The histogram is mergeable, which is what lets sweep-level
    aggregation combine per-job distributions into a fleet view.
    """

    __slots__ = ("n", "sum_total", "sum_onchip", "sum_queuing",
                 "sum_dram", "sum_cxl", "hist")

    def __init__(self, alpha: float = 0.01) -> None:
        self.hist = StreamingHistogram(alpha=alpha)
        self.reset()

    def reset(self) -> None:
        self.n = 0
        self.sum_total = 0.0
        self.sum_onchip = 0.0
        self.sum_queuing = 0.0
        self.sum_dram = 0.0
        self.sum_cxl = 0.0
        h = self.hist
        self.hist = StreamingHistogram(alpha=h.alpha)

    def record(self, total: float, onchip: float, queuing: float,
               dram: float, cxl: float) -> None:
        """Add one measured access (hot path). An LLC hit records its
        whole latency as on-chip time: ``record(t, t, 0.0, 0.0, 0.0)``."""
        self.n += 1
        self.sum_total += total
        self.sum_onchip += onchip
        self.sum_queuing += queuing
        self.sum_dram += dram
        self.sum_cxl += cxl
        self.hist.record(total)

    def summary(self) -> Dict[str, float]:
        """Component means plus total-latency quantiles (ns)."""
        n = self.n
        if n == 0:
            return {"n": 0, "total": 0.0, "onchip": 0.0, "queuing": 0.0,
                    "dram": 0.0, "cxl": 0.0,
                    "p50": 0.0, "p90": 0.0, "p99": 0.0, "p999": 0.0}
        p50, p90, p99, p999 = self.hist.quantiles((0.50, 0.90, 0.99, 0.999))
        return {
            "n": n,
            "total": self.sum_total / n,
            "onchip": self.sum_onchip / n,
            "queuing": self.sum_queuing / n,
            "dram": self.sum_dram / n,
            "cxl": self.sum_cxl / n,
            "p50": p50, "p90": p90, "p99": p99, "p999": p999,
        }


def breakdown_from_records(records: List[tuple]) -> Dict[str, float]:
    """Aggregate (total, onchip, queuing, dram, cxl) tuples into averages."""
    if not records:
        return {"n": 0, "total": 0.0, "onchip": 0.0, "queuing": 0.0,
                "dram": 0.0, "cxl": 0.0, "p90": 0.0}
    arr = np.asarray(records, dtype=float)
    return {
        "n": len(arr),
        "total": float(arr[:, 0].mean()),
        "onchip": float(arr[:, 1].mean()),
        "queuing": float(arr[:, 2].mean()),
        "dram": float(arr[:, 3].mean()),
        "cxl": float(arr[:, 4].mean()),
        "p90": float(np.percentile(arr[:, 0], 90)),
    }
