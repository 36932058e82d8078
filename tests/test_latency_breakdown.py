"""Latency-breakdown accounting properties (paper Figures 2b/5).

The component decomposition (onchip + queuing + dram + cxl == total) must
hold for every measured request, with the on-chip residual clamp never
actually clamping on a healthy simulator.
"""

import numpy as np
import pytest

from repro.system.config import ALL_CONFIGS
from repro.system.sim import simulate
from repro.system.stats import breakdown_from_records
from repro.tracing import SpanTracer
from repro.workloads import get_workload

OPS = 600


def components_of(row):
    """(total, queuing, dram, cxl) of one span row, as the analysis sees it."""
    total = row["t_complete"] - row["t_create"]
    if row["llc_hit"]:
        return total, 0.0, 0.0, 0.0
    queuing = row["t_mc_issue"] - row["t_mc_enqueue"]
    dram = row["t_dram_done"] - row["t_mc_issue"]
    return total, queuing, dram, row["cxl_delay"]


@pytest.mark.parametrize("cfg", ["ddr-baseline", "coaxial-4x"])
def test_components_sum_to_total_without_clamping(cfg):
    tracer = SpanTracer(span_capacity=8192)
    r = simulate(ALL_CONFIGS[cfg](), get_workload("mcf"), ops_per_core=OPS,
                 validate="strict", tracing=tracer)
    rows = r.extras["trace"]["spans"]
    assert 0 < len(rows) == r.extras["trace"]["requests"]
    for row in rows:
        total, queuing, dram, cxl = components_of(row)
        residual = total - queuing - dram - cxl
        # The residual is the on-chip component; it must be non-negative
        # (within float tolerance), i.e. the max(0, ...) clamp in
        # MemRequest.onchip_time never fires on a healthy run.
        assert residual >= -1e-6, row
        if cfg == "ddr-baseline":
            assert row["cxl_delay"] == 0.0


@pytest.mark.parametrize("cfg", ["ddr-baseline", "coaxial-4x"])
def test_aggregate_breakdown_sums_to_mean_latency(cfg):
    r = simulate(ALL_CONFIGS[cfg](), get_workload("mcf"), ops_per_core=OPS,
                 validate="strict")
    parts = r.avg_onchip + r.avg_queuing + r.avg_dram + r.avg_cxl
    assert parts == pytest.approx(r.avg_miss_latency, rel=1e-9)


class TestBreakdownFromRecords:
    def test_empty(self):
        bd = breakdown_from_records([])
        assert bd == {"n": 0, "total": 0.0, "onchip": 0.0, "queuing": 0.0,
                      "dram": 0.0, "cxl": 0.0, "p90": 0.0}

    def test_single_record(self):
        bd = breakdown_from_records([(100.0, 20.0, 30.0, 40.0, 10.0)])
        assert bd["n"] == 1
        assert bd["total"] == 100.0
        assert bd["onchip"] == 20.0
        assert bd["queuing"] == 30.0
        assert bd["dram"] == 40.0
        assert bd["cxl"] == 10.0
        # p90 of one sample is that sample.
        assert bd["p90"] == 100.0

    def test_means_and_p90(self):
        recs = [(float(t), float(t), 0.0, 0.0, 0.0) for t in range(1, 101)]
        bd = breakdown_from_records(recs)
        assert bd["total"] == pytest.approx(50.5)
        assert bd["p90"] == pytest.approx(np.percentile([r[0] for r in recs], 90))
