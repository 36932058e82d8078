"""Registry integrity and tolerance math for the parity harness."""

import pytest

from repro.analysis.tables import SuiteResult
from repro.parity import (
    METRICS, REGISTRY, ParityContext, ParitySuite, Tolerance, get_metric,
)
from repro.parity.registry import BASELINE_CONFIG
from repro.system.config import ALL_CONFIGS
from repro.system.stats import SimResult


def mk_result(config="ddr-baseline", workload="wl", ipc=1.0,
              miss=200.0, onchip=30.0, queue=120.0, dram=50.0, cxl=0.0,
              bw=15.0, rd=12.0, wr=3.0, peak=30.0, calm=0.0) -> SimResult:
    # A span-trace payload whose sums mirror the breakdown averages over
    # the 100 misses, like a real traced run's would.
    trace = {"schema": 1, "mode": "on", "trace_id": None, "requests": 100,
             "attribution": {"n": 100, "hits": 0, "misses": 100,
                             "total": 100 * miss, "onchip": 100 * onchip,
                             "queuing": 100 * queue, "service": 100 * dram,
                             "serialization": 100 * cxl, "migration": 0.0},
             "spans": []}
    return SimResult(
        config_name=config, workload_name=workload, ipc=ipc, core_ipcs=[ipc],
        instructions=1000, elapsed_ns=1000.0, n_misses=100,
        avg_miss_latency=miss, avg_onchip=onchip, avg_queuing=queue,
        avg_dram=dram, avg_cxl=cxl, p90_miss_latency=2 * miss,
        bandwidth_gbps=bw, read_bandwidth_gbps=rd, write_bandwidth_gbps=wr,
        peak_bandwidth_gbps=peak, llc_mpki=10.0, llc_hit_rate=0.5,
        calm_fraction=calm, extras={"trace": trace})


def mk_context(workloads=("a", "b")) -> ParityContext:
    """A fabricated five-config context with known, distinct numbers."""
    suites = {}
    for i, name in enumerate(ALL_CONFIGS):
        cfg = ALL_CONFIGS[name]()
        # Monotonically faster, less queued, better-fed configs.
        results = {
            w: mk_result(config=name, workload=w, ipc=1.0 + 0.3 * i,
                         miss=200.0 - 20 * i, queue=120.0 / (1 + i),
                         cxl=0.0 if i == 0 else 40.0,
                         bw=15.0 + i, peak=30.0 * (1 + i),
                         calm=0.0 if i == 0 else 0.7)
            for w in workloads
        }
        suites[name] = SuiteResult(config=cfg, results=results)
    return ParityContext(suites)


class TestTolerance:
    def test_pass_within_rel_warn(self):
        t = Tolerance(rel_warn=0.05, rel_fail=0.15)
        assert t.verdict(1.04, 1.0) == "pass"
        assert t.verdict(0.96, 1.0) == "pass"

    def test_warn_between_bands(self):
        t = Tolerance(rel_warn=0.05, rel_fail=0.15)
        assert t.verdict(1.10, 1.0) == "warn"
        assert t.verdict(0.90, 1.0) == "warn"

    def test_fail_beyond_fail_band(self):
        t = Tolerance(rel_warn=0.05, rel_fail=0.15)
        assert t.verdict(1.20, 1.0) == "fail"
        assert t.verdict(0.80, 1.0) == "fail"

    def test_boundaries(self):
        # Just inside each band (exact boundaries are float-sensitive).
        t = Tolerance(rel_warn=0.05, rel_fail=0.15)
        assert t.verdict(1.049, 1.0) == "pass"
        assert t.verdict(1.051, 1.0) == "warn"
        assert t.verdict(1.149, 1.0) == "warn"
        assert t.verdict(1.151, 1.0) == "fail"

    def test_abs_tolerance_rescues_small_denominators(self):
        # 0.001 vs 0.004 is 300% relative drift but tiny absolutely.
        t = Tolerance(rel_warn=0.05, rel_fail=0.15,
                      abs_warn=0.01, abs_fail=0.05)
        assert t.verdict(0.004, 0.001) == "pass"
        assert t.verdict(0.03, 0.001) == "warn"
        assert t.verdict(0.2, 0.001) == "fail"

    def test_zero_golden_does_not_crash(self):
        t = Tolerance()
        assert t.verdict(0.0, 0.0) == "pass"
        assert t.verdict(1.0, 0.0) == "fail"


class TestRegistry:
    def test_ids_unique_and_indexed(self):
        ids = [m.id for m in REGISTRY]
        assert len(ids) == len(set(ids))
        assert set(METRICS) == set(ids)

    def test_get_metric_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown parity metric"):
            get_metric("nope.nothing")

    def test_bands_are_ordered(self):
        for m in REGISTRY:
            lo, hi = m.band
            assert lo < hi, m.id

    def test_paper_values_inside_bands(self):
        for m in REGISTRY:
            if m.paper is not None:
                assert m.in_band(m.paper), (
                    f"{m.id}: paper value {m.paper} outside band {m.band}")

    def test_tolerances_ordered(self):
        for m in REGISTRY:
            assert 0 <= m.tol.rel_warn <= m.tol.rel_fail, m.id
            assert 0 <= m.tol.abs_warn <= m.tol.abs_fail, m.id

    def test_every_extractor_runs_on_fabricated_context(self):
        ctx = mk_context()
        for m in REGISTRY:
            v = float(m.extract(ctx))
            assert v == v, f"{m.id} produced NaN"  # not NaN

    def test_speedup_extractor_math(self):
        ctx = mk_context()
        m = get_metric("fig5.geomean_speedup.coaxial-4x")
        # coaxial-4x is index 2 in ALL_CONFIGS: ipc 1.6 vs baseline 1.0.
        assert m.extract(ctx) == pytest.approx(1.6)

    def test_queuing_share_extractor_math(self):
        ctx = mk_context()
        m = get_metric("fig2b.queuing_share.ddr-baseline")
        assert m.extract(ctx) == pytest.approx(120.0 / 200.0)

    def test_span_attribution_extractor_uses_trace_payload(self):
        # Same Fig 2b share, recomputed from the span-tracer sums the
        # fabricated results carry in extras["trace"].
        ctx = mk_context()
        m = get_metric("fig2b.span_attribution.ddr-baseline")
        assert m.extract(ctx) == pytest.approx(120.0 / 200.0)

    def test_trace_attribution_without_payload_needs_suite(self):
        ctx = mk_context()
        for suite in ctx.suites.values():
            for r in suite.results.values():
                r.extras.pop("trace", None)
        with pytest.raises(ValueError, match="no trace payload"):
            ctx.trace_attribution(BASELINE_CONFIG, "a")


class TestParitySuite:
    def test_json_round_trip(self):
        s = ParitySuite(workloads=("mcf", "gcc"), ops=700, seed=3)
        assert ParitySuite.from_json(s.to_json()) == s

    def test_defaults_cover_the_paper_configs(self):
        # The default suite is the PAPER grid goldens/parity.json records;
        # scenario configs have their own suite (repro.parity.scenarios).
        from repro.parity.scenarios import SCENARIO_CONFIGS, SCENARIO_SUITE
        from repro.system.config import PAPER_CONFIGS
        s = ParitySuite()
        assert set(s.configs) == set(PAPER_CONFIGS)
        assert BASELINE_CONFIG in s.configs
        assert len(s.workloads) >= 10
        # Together the two suites cover every named config family.
        scen = SCENARIO_SUITE
        assert scen.configs == SCENARIO_CONFIGS
        assert set(s.configs) | set(scen.configs) == set(ALL_CONFIGS)
