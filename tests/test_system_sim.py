"""Tests for the simulation driver (warmup/measurement protocol)."""

import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from repro.obs import ObsCollector, prometheus_text
from repro.system import sim
from repro.system.config import ALL_CONFIGS, baseline_config, coaxial_config
from repro.system.sim import simulate
from repro.tracing import SpanTracer
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


#: Observer settings the lifetime guard covers: all off, and all on.
OBSERVERS = {"off": dict(validate="off", obs="off", tracing="off"),
             "on": dict(validate="on", obs="on", tracing="on")}


@pytest.fixture
def chip_refs(monkeypatch):
    """Weak references to the chips ``simulate()`` builds in this case.

    The cyclic collector is flushed first and paused for the case, so
    only reference counting can free a chip."""
    refs = []
    build = sim.build_system

    def build_system(cfg, sim=None):
        built = build(cfg, sim)
        refs.append(weakref.ref(built[1]))
        return built

    monkeypatch.setattr(sim, "build_system", build_system)
    gc.collect()
    gc.disable()
    try:
        yield refs
    finally:
        gc.enable()


def assert_freed(refs):
    """Every chip is dead, and a collection finds no ``repro`` object."""
    assert refs and all(ref() is None for ref in refs)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        left = sorted({f"{type(o).__module__}.{type(o).__qualname__}"
                       for o in gc.garbage
                       if type(o).__module__.startswith("repro")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left == []


def without_req_ids(trace):
    """A trace payload minus each span row's ``req_id`` (process-global)."""
    return {**trace, "spans": [{k: v for k, v in row.items() if k != "req_id"}
                               for row in trace["spans"]]}


class TestChipLifetime:
    """``simulate()`` leaves nothing of its chip for the cyclic collector."""

    @pytest.mark.parametrize("observers", sorted(OBSERVERS))
    @pytest.mark.parametrize("name", sorted(ALL_CONFIGS))
    def test_chip_freed_on_return(self, chip_refs, name, observers):
        simulate(ALL_CONFIGS[name](), get_workload("mcf"), ops_per_core=20,
                 **OBSERVERS[observers])
        assert_freed(chip_refs)

    @pytest.mark.parametrize("overrides, kwargs", [
        ({}, dict(obs="profile", tracing="kernel")),
        ({}, dict(kernel="reference")),
        (dict(calm_policy="ideal"), {}),
        (dict(prefetcher="stride", replacement="srrip"), {}),
    ], ids=["profile-kernel", "reference-loop", "ideal-calm", "stride-srrip"])
    def test_chip_freed_with_other_parts(self, chip_refs, overrides, kwargs):
        simulate(ALL_CONFIGS["coaxial-4x"]().replace(**overrides),
                 get_workload("mcf"), ops_per_core=20, **kwargs)
        assert_freed(chip_refs)

    @pytest.mark.parametrize("observers", sorted(OBSERVERS))
    def test_chip_freed_when_the_run_raises(self, chip_refs, monkeypatch,
                                            observers):
        # Too short a drain limit: the run raises with events still queued.
        monkeypatch.setattr(sim, "MAX_NS", 50.0)
        with pytest.raises(RuntimeError, match="did not drain") as info:
            simulate(ALL_CONFIGS["coaxial-4x"](), get_workload("mcf"),
                     ops_per_core=20, **OBSERVERS[observers])
        del info    # its traceback holds simulate()'s frame
        assert_freed(chip_refs)

    def test_kept_observers_release_the_chip(self, chip_refs):
        cfg, wl = ALL_CONFIGS["coaxial-4x"](), get_workload("mcf")
        collector, tracer = ObsCollector(mode="on"), SpanTracer(mode="on")
        kept = simulate(cfg, wl, ops_per_core=20, obs=collector,
                        tracing=tracer)
        assert_freed(chip_refs)
        made = simulate(cfg, wl, ops_per_core=20, obs="on", tracing="on")
        assert kept.extras["obs"] == made.extras["obs"]
        assert without_req_ids(kept.extras["trace"]) == without_req_ids(
            made.extras["trace"])
        # The kept observers still export after the chip is gone.
        assert collector.snapshot(with_profile=True) == kept.extras["obs"]
        assert "repro_l2_misses_total" in prometheus_text(collector.snapshot())
        assert tracer.snapshot() == kept.extras["trace"]


def test_first_simulate_loads_no_job_plane_module():
    # With every observer off, a process's first simulate() imports no
    # observer it does not run and nothing of the job plane: no result
    # cache or runner, no checker or tracer, no process pool or logging.
    src = str(Path(sim.__file__).resolve().parents[2])
    code = (
        "import sys\n"
        "from repro.system.config import ALL_CONFIGS\n"
        "from repro.system.sim import simulate\n"
        "from repro.workloads import get_workload\n"
        "simulate(ALL_CONFIGS['ddr-baseline'](), get_workload('stream-copy'),"
        " ops_per_core=20, validate=False, obs=False, tracing=False)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in"
        " ('multiprocessing', 'concurrent', 'logging') or m.startswith("
        "('repro.exec', 'repro.tracing', 'repro.validate'))))\n")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
