"""Tests for the simulation driver (warmup/measurement protocol)."""

import pytest

from repro.system import sim
from repro.system.config import baseline_config, coaxial_config
from repro.system.sim import simulate
from repro.workloads import get_workload


class TestSimulate:
    def test_basic_run_produces_sane_result(self):
        r = simulate(baseline_config(), get_workload("mcf"), ops_per_core=600)
        assert r.config_name == "ddr-baseline"
        assert r.workload_name == "mcf"
        assert r.ipc > 0
        assert len(r.core_ipcs) == 12
        assert r.n_misses > 0
        assert r.avg_miss_latency > 0
        assert 0 <= r.bandwidth_utilization <= 1
        assert r.llc_mpki > 0

    def test_breakdown_components_sum_to_total(self):
        r = simulate(baseline_config(), get_workload("PageRank"), ops_per_core=600)
        parts = r.avg_onchip + r.avg_queuing + r.avg_dram + r.avg_cxl
        assert parts == pytest.approx(r.avg_miss_latency, rel=0.02)

    def test_baseline_has_no_cxl_delay(self):
        r = simulate(baseline_config(), get_workload("lbm"), ops_per_core=500)
        assert r.avg_cxl == 0.0

    def test_coaxial_has_cxl_delay(self):
        r = simulate(coaxial_config(), get_workload("lbm"), ops_per_core=500)
        assert r.avg_cxl > 40.0

    def test_deterministic_across_runs(self):
        a = simulate(baseline_config(), get_workload("BFS"), ops_per_core=500)
        b = simulate(baseline_config(), get_workload("BFS"), ops_per_core=500)
        assert a.ipc == pytest.approx(b.ipc)
        assert a.n_misses == b.n_misses

    def test_active_cores_subset(self):
        r = simulate(baseline_config(active_cores=2),
                     get_workload("stream-copy"), ops_per_core=500)
        assert len(r.core_ipcs) == 2
        # 2 cores on a full channel: almost no queuing pressure.
        assert r.bandwidth_utilization < 0.5

    def test_explicit_trace_list(self):
        traces = [get_workload("mcf").generate(300, seed=i) for i in range(12)]
        r = simulate(baseline_config(), traces)
        assert r.workload_name == "mix"
        assert r.instructions > 0

    def test_trace_list_length_mismatch(self):
        traces = [get_workload("mcf").generate(300, seed=1)]
        with pytest.raises(ValueError):
            simulate(baseline_config(), traces)

    @pytest.mark.parametrize("ops", [0, -5])
    def test_op_count_below_one_rejected(self, ops):
        with pytest.raises(ValueError, match="ops_per_core must be >= 1"):
            simulate(baseline_config(), get_workload("mcf"), ops_per_core=ops)

    def test_default_op_count(self):
        # None is the workload's default length, scaled by REPRO_SCALE.
        wl = get_workload("mcf")
        traces, _, _ = sim._workload_traces(baseline_config(), wl, None, 1)
        assert {len(t) for t in traces} == {int(wl.default_ops * sim._SCALE)}

    def test_speedup_over(self):
        wl = get_workload("stream-copy")
        base = simulate(baseline_config(), wl, ops_per_core=800)
        coax = simulate(coaxial_config(), wl, ops_per_core=800)
        assert coax.speedup_over(base) == pytest.approx(coax.ipc / base.ipc)

    def test_summary_is_one_line(self):
        r = simulate(baseline_config(), get_workload("mcf"), ops_per_core=400)
        assert "\n" not in r.summary()
        assert "mcf" in r.summary()


class TestPaperHeadlines:
    """Miniature versions of the paper's headline comparisons."""

    def test_stream_speedup_on_coaxial(self):
        wl = get_workload("stream-copy")
        base = simulate(baseline_config(), wl, ops_per_core=1500)
        coax = simulate(coaxial_config(), wl, ops_per_core=1500)
        assert coax.speedup_over(base) > 1.5

    def test_queuing_collapses_on_coaxial(self):
        wl = get_workload("stream-copy")
        base = simulate(baseline_config(), wl, ops_per_core=1500)
        coax = simulate(coaxial_config(), wl, ops_per_core=1500)
        assert coax.avg_queuing < base.avg_queuing / 2

    def test_utilization_drops_despite_more_traffic(self):
        wl = get_workload("PageRank")
        base = simulate(baseline_config(), wl, ops_per_core=1500)
        coax = simulate(coaxial_config(), wl, ops_per_core=1500)
        assert coax.bandwidth_gbps >= base.bandwidth_gbps * 0.9
        assert coax.bandwidth_utilization < base.bandwidth_utilization

    def test_low_mpki_workload_can_lose(self):
        wl = get_workload("raytrace")
        base = simulate(baseline_config(), wl, ops_per_core=1200)
        coax = simulate(coaxial_config(), wl, ops_per_core=1200)
        assert coax.speedup_over(base) < 1.05
