"""Tests for the observability subsystem (repro.obs).

Covers the streaming primitives (histogram accuracy and mergeability,
time-series compaction), the registry, exporters (Prometheus round-trip,
JSONL, CSV, and the audit-trace export), the collector's
zero-perturbation guarantee, and the fleet aggregation layer.
"""

import json

import numpy as np
import pytest

from repro.engine.kernel import KERNEL_MODES
from repro.obs import (
    Counter,
    Gauge,
    KernelProfiler,
    MetricRegistry,
    ObsCollector,
    StreamingHistogram,
    TimeSeries,
    export_csv,
    export_jsonl,
    export_snapshot,
    load_jsonl,
    parse_prometheus,
    prometheus_text,
    render_report,
    sparkline,
)
from repro.system.config import baseline_config, coaxial_config
from repro.system.sim import simulate
from repro.workloads import get_workload


def _fast_result(obs=None, cfg=None, workload="mcf", ops=400, seed=3):
    return simulate(cfg if cfg is not None else baseline_config(),
                    get_workload(workload), ops_per_core=ops,
                    seed=seed, obs=obs)


# -- StreamingHistogram --------------------------------------------------------
class TestStreamingHistogram:
    def test_quantile_relative_error_bound(self):
        rng = np.random.default_rng(7)
        data = rng.lognormal(mean=5.0, sigma=1.2, size=5000)
        h = StreamingHistogram(alpha=0.01)
        for v in data:
            h.record(float(v))
        for q in (0.5, 0.9, 0.99, 0.999):
            exact = float(np.quantile(data, q))
            approx = h.quantile(q)
            assert abs(approx - exact) / exact <= 0.025, (q, exact, approx)

    def test_count_sum_min_max_exact(self):
        h = StreamingHistogram()
        vals = [3.0, 1.5, 99.0, 42.0]
        for v in vals:
            h.record(v)
        assert h.count == len(vals)
        assert h.total == pytest.approx(sum(vals))
        assert h.min == pytest.approx(min(vals))
        assert h.max == pytest.approx(max(vals))

    def test_quantile_clamped_to_min_max(self):
        h = StreamingHistogram()
        for v in (10.0, 20.0, 30.0):
            h.record(v)
        assert h.quantile(0.0) >= h.min
        assert h.quantile(1.0) <= h.max

    def test_nonpositive_values_go_to_zero_bucket(self):
        h = StreamingHistogram()
        h.record(0.0)
        h.record(-5.0)
        h.record(10.0)
        assert h.zero_count == 2
        assert h.count == 3
        assert h.quantile(0.0) == h.min == -5.0  # exact min survives
        assert h.quantile(0.5) <= 0.0            # median lands in zero bucket
        assert h.quantile(1.0) == 10.0

    def test_empty_histogram(self):
        h = StreamingHistogram()
        assert h.count == 0
        assert h.quantile(0.5) == 0.0
        assert h.summary()["p99"] == 0.0

    def test_merge_associative_and_commutative(self):
        rng = np.random.default_rng(11)
        chunks = [rng.exponential(100.0, size=300) for _ in range(3)]
        hs = []
        for chunk in chunks:
            h = StreamingHistogram()
            for v in chunk:
                h.record(float(v))
            hs.append(h)

        left = StreamingHistogram()      # (a + b) + c
        for h in hs:
            left.merge(h)
        right = StreamingHistogram()     # c + b + a
        for h in reversed(hs):
            right.merge(h)
        # one pass over all samples
        flat = StreamingHistogram()
        for chunk in chunks:
            for v in chunk:
                flat.record(float(v))

        for h in (left, right):
            assert h.buckets == flat.buckets
            assert h.count == flat.count
            assert h.total == pytest.approx(flat.total)
            assert h.min == pytest.approx(flat.min)
            assert h.max == pytest.approx(flat.max)

    def test_merge_alpha_mismatch_rejected(self):
        with pytest.raises(ValueError):
            StreamingHistogram(alpha=0.01).merge(StreamingHistogram(alpha=0.05))

    def test_dict_round_trip(self):
        h = StreamingHistogram()
        for v in (1.0, 2.0, 0.0, 1e9):
            h.record(v)
        d = h.to_dict()
        json.loads(json.dumps(d))  # JSON-safe
        h2 = StreamingHistogram.from_dict(d)
        assert h2.buckets == h.buckets
        assert h2.count == h.count
        assert h2.quantile(0.9) == h.quantile(0.9)

    def test_empty_dict_round_trip(self):
        d = StreamingHistogram().to_dict()
        assert d["min"] is None and d["max"] is None
        assert StreamingHistogram.from_dict(d).count == 0


# -- Counter / Gauge / TimeSeries ---------------------------------------------
class TestScalars:
    def test_counter_monotonic(self):
        c = Counter("reqs")
        c.inc()
        c.inc(4.0)
        assert c.value == 5.0
        with pytest.raises(ValueError):
            c.inc(-1.0)
        c.set_total(9.0)
        with pytest.raises(ValueError):
            c.set_total(2.0)

    def test_gauge_free_moving(self):
        g = Gauge("depth")
        g.set(5.0)
        g.set(1.0)
        assert g.value == 1.0

    def test_timeseries_backfills_missing_columns(self):
        ts = TimeSeries(interval_ns=100.0)
        ts.append(100.0, {"a": 1.0})
        ts.append(200.0, {"a": 2.0, "b": 7.0})
        assert ts.columns["b"] == [0.0, 7.0]
        assert len(ts.t) == 2

    def test_timeseries_compaction_halves_and_doubles_interval(self):
        ts = TimeSeries(interval_ns=10.0, max_windows=8)
        ts.sum_cols = {"s"}
        for i in range(9):  # 9th append triggers compaction
            ts.append(10.0 * (i + 1), {"s": 1.0, "g": float(i)})
        assert ts.interval_ns == 20.0
        assert len(ts.t) <= 8
        # sum column preserved in total; gauge column averaged
        assert sum(ts.columns["s"]) == pytest.approx(9.0)
        assert max(ts.columns["g"]) <= 8.0


# -- registry ------------------------------------------------------------------
class TestRegistry:
    def test_same_name_labels_returns_same_instrument(self):
        reg = MetricRegistry()
        a = reg.counter("x", {"ch": "0"})
        b = reg.counter("x", {"ch": "0"})
        c = reg.counter("x", {"ch": "1"})
        assert a is b
        assert a is not c

    def test_kind_clash_raises(self):
        reg = MetricRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_snapshot_shape(self):
        reg = MetricRegistry()
        reg.counter("c").inc(2.0)
        reg.gauge("g").set(1.5)
        reg.histogram("h").record(10.0)
        snap = reg.snapshot()
        assert snap["counters"] == [{"name": "c", "labels": {}, "value": 2.0}]
        assert snap["gauges"][0]["value"] == 1.5
        assert snap["histograms"][0]["count"] == 1


# -- exporters -----------------------------------------------------------------
class TestExporters:
    def _snapshot(self):
        reg = MetricRegistry()
        reg.counter("repro_reqs_total", {"ch": "0"}).inc(10.0)
        reg.counter("repro_reqs_total", {"ch": "1"}).inc(3.0)
        reg.gauge("repro_depth").set(2.5)
        h = reg.histogram("repro_lat_ns")
        for v in (0.0, 10.0, 100.0, 1000.0):
            h.record(v)
        return {"mode": "on", "t0_ns": 0.0,
                "series": {"interval_ns": 100.0, "t": [], "columns": {}},
                "metrics": reg.snapshot()}

    def test_prometheus_round_trip(self):
        snap = self._snapshot()
        parsed = parse_prometheus(prometheus_text(snap))
        assert parsed["repro_reqs_total"]["type"] == "counter"
        vals = {lbl["ch"]: v for (_n, lbl, v)
                in parsed["repro_reqs_total"]["samples"]}
        assert vals["0"] == 10.0
        assert vals["1"] == 3.0
        assert parsed["repro_depth"]["samples"][0][2] == 2.5

    def test_prometheus_histogram_cumulative(self):
        parsed = parse_prometheus(prometheus_text(self._snapshot()))
        ent = parsed["repro_lat_ns"]
        assert ent["type"] == "histogram"
        buckets = [v for (n, _lbl, v) in ent["samples"]
                   if n == "repro_lat_ns_bucket"]
        count = [v for (n, _lbl, v) in ent["samples"]
                 if n == "repro_lat_ns_count"][0]
        assert buckets == sorted(buckets)
        assert buckets[-1] == count == 4
        total = [v for (n, _lbl, v) in ent["samples"]
                 if n == "repro_lat_ns_sum"][0]
        assert total == pytest.approx(1110.0)

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_prometheus("this is { not prometheus\n")

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "deep" / "obs.jsonl"
        export_jsonl(path, self._snapshot(), meta={"config": "x"})
        export_jsonl(path, self._snapshot(), meta={"config": "y"})  # append
        runs = load_jsonl(path)
        assert len(runs) == 2
        assert runs[0]["meta"]["config"] == "x"
        assert runs[1]["meta"]["config"] == "y"
        hists = runs[0]["metrics"]["histograms"]
        assert any(h["name"] == "repro_lat_ns" for h in hists)

    def test_csv_export(self, tmp_path):
        snap = self._snapshot()
        snap["series"] = {"interval_ns": 100.0, "t": [100.0, 200.0],
                          "columns": {"b.x": [1.0, 2.0], "a.y": [3.0, 4.0]}}
        path = tmp_path / "s.csv"
        export_csv(path, snap)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t_ns,a.y,b.x"
        assert lines[1] == "100.0,3.0,1.0"

    def test_export_snapshot_dispatch_and_unknown_suffix(self, tmp_path):
        snap = self._snapshot()
        export_snapshot(tmp_path / "a.prom", snap)
        assert "# TYPE" in (tmp_path / "a.prom").read_text()
        export_snapshot(tmp_path / "a.jsonl", snap)
        assert load_jsonl(tmp_path / "a.jsonl")
        with pytest.raises(ValueError, match="unknown metrics export"):
            export_snapshot(tmp_path / "a.xml", snap)


# -- collector integration -----------------------------------------------------
class TestCollectorIntegration:
    def test_obs_off_is_default_and_leaves_no_payload(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        r = _fast_result()
        assert "obs" not in r.extras

    def test_obs_on_populates_extras(self):
        r = _fast_result(obs="on")
        snap = r.extras["obs"]
        assert snap["mode"] == "on"
        assert "profile" not in snap  # wall-times are never in extras
        names = {c["name"] for c in snap["metrics"]["counters"]}
        assert "repro_llc_misses_total" in names
        assert any(n == "repro_ddr_bytes_total" for n in names)
        gauges = {g["name"] for g in snap["metrics"]["gauges"]}
        assert "repro_elapsed_ns" in gauges
        hists = {h["name"] for h in snap["metrics"]["histograms"]}
        assert "repro_miss_latency_ns" in hists

    def test_observation_does_not_perturb_results(self):
        a = _fast_result(obs="off")
        b = _fast_result(obs="on")
        assert b.elapsed_ns == a.elapsed_ns
        assert b.ipc == a.ipc
        assert b.n_misses == a.n_misses
        assert b.p90_miss_latency == a.p90_miss_latency

    @pytest.mark.parametrize("kernel", KERNEL_MODES)
    def test_observers_schedule_no_events(self, kernel, monkeypatch):
        # The obs series is sampled between run slices, so with every
        # observer on the simulator schedules and fires exactly the events
        # of an observer-free run, and an obs-on cache entry can replay
        # events_fired to obs-off callers.
        import repro.system.sim as sim_mod

        built = []
        build = sim_mod.build_system

        def capture(cfg, sim=None):
            built.append(build(cfg, sim))
            return built[-1]

        monkeypatch.setattr(sim_mod, "build_system", capture)
        collector = ObsCollector(mode="on")
        runs = [simulate(baseline_config(), get_workload("mcf"),
                         ops_per_core=300, seed=1, kernel=kernel, **kw)
                for kw in ({}, {"validate": "on", "obs": collector,
                                "tracing": "on"})]
        (plain, _), (seen, _) = built
        assert seen.queue._seq == plain.queue._seq
        assert seen.events_fired == plain.events_fired
        assert (runs[1].extras["events_fired"]
                == runs[0].extras["events_fired"])
        assert len(collector.series.to_dict()["t"]) > 0

    def test_miss_latency_histogram_counts_misses(self):
        r = _fast_result(obs="on")
        hist = [h for h in r.extras["obs"]["metrics"]["histograms"]
                if h["name"] == "repro_miss_latency_ns"][0]
        assert hist["count"] == r.n_misses

    def test_series_sampled_with_cxl_columns(self):
        r = _fast_result(obs="on", cfg=coaxial_config())
        series = r.extras["obs"]["series"]
        assert len(series["t"]) >= 1
        assert any(c.startswith("cxl0.") for c in series["columns"])
        assert any(c.startswith("ddr0.") for c in series["columns"])

    def test_profile_mode_via_collector_instance(self):
        collector = ObsCollector(mode="profile")
        r = simulate(baseline_config(), get_workload("mcf"),
                     ops_per_core=300, seed=3, obs=collector)
        snap = collector.snapshot(with_profile=True)
        assert snap["profile"]  # {event_qualname: {count, wall_s}}
        assert sum(e["count"] for e in snap["profile"].values()) > 0
        assert all(e["wall_s"] >= 0.0 for e in snap["profile"].values())
        # but the result payload still carries no wall-times
        assert "profile" not in r.extras["obs"]

    def test_profiler_disabled_by_default(self):
        from repro.system.builder import build_system
        sim, _ = build_system(baseline_config())
        assert sim.event_hook is None

    def test_profiler_hook_is_shared(self):
        from repro.engine import Simulator

        sim = Simulator()
        sim.event_hook = print                   # a foreign hook is replaced
        prof = KernelProfiler.hook(sim)
        assert sim.event_hook is prof
        assert KernelProfiler.hook(sim) is prof  # a second observer shares it

    def test_profiler_charges_time_since_previous_dispatch(self, monkeypatch):
        import repro.obs.profiler as profiler_mod
        from repro.engine import Simulator

        ticks = iter([10.0, 10.5, 12.0, 12.25])
        monkeypatch.setattr(profiler_mod, "perf_counter", lambda: next(ticks))

        def a():
            pass

        def b():
            pass

        sim = Simulator()
        prof = KernelProfiler.hook(sim)          # armed at t=10.0
        for t, fn in ((1.0, a), (2.0, b), (3.0, a)):
            sim.schedule(t, fn)
        sim.run()
        wall = {k.rsplit(".", 1)[-1]: v for k, v in prof.data.items()}
        assert wall == {"a": [2, 0.5 + 0.25], "b": [1, 1.5]}

    def test_kernel_profiler_rows_sorted_by_wall(self):
        p = KernelProfiler()
        p.data["a"] = [3, 0.5]
        p.data["b"] = [10, 2.0]
        rows = p.rows()
        assert rows[0]["event"] == "b"
        assert rows[0]["wall_frac"] == pytest.approx(0.8)
        assert p.total_events == 13
        d = p.to_dict(with_wall=False)
        assert all("wall_s" not in e for e in d.values())


# -- SimResult latency quantiles (satellite: histogram-backed p50/p99/p99.9) ---
class TestResultQuantiles:
    def test_quantiles_ordered_and_bracket_mean(self):
        r = _fast_result()
        assert r.n_misses > 0
        assert 0 < r.p50_miss_latency <= r.p90_miss_latency
        assert r.p90_miss_latency <= r.p99_miss_latency <= r.p999_miss_latency
        assert r.p999_miss_latency >= r.avg_miss_latency


# -- report rendering ----------------------------------------------------------
class TestReport:
    def test_sparkline_shape(self):
        s = sparkline([0.0, 1.0, 2.0, 3.0], width=4)
        assert len(s) == 4
        assert s[0] == "▁" and s[-1] == "█"
        assert sparkline([], width=8) == ""
        assert len(sparkline(list(range(100)), width=10)) == 10

    def test_render_report_sections(self, tmp_path):
        collector = ObsCollector(mode="profile")
        simulate(baseline_config(), get_workload("mcf"),
                 ops_per_core=400, seed=3, obs=collector)
        path = tmp_path / "obs.jsonl"
        export_jsonl(path, collector.snapshot(with_profile=True),
                     meta={"config": "ddr-baseline", "workload": "mcf",
                           "seed": 3})
        run = load_jsonl(path)[0]
        text = render_report(run)
        assert "ddr-baseline" in text
        assert "Kernel profile" in text
        assert "Latency distributions" in text
        assert "repro_miss_latency_ns" in text
        assert "p99" in text

    def _series_run(self, columns, windows=1):
        return {"series": {"t": list(range(windows)), "interval_ns": 250.0,
                           "columns": columns}}

    def test_empty_column_renders_no_row(self):
        """Regression: an empty column used to raise on max([]) /
        render a bare label; now it is simply skipped."""
        text = render_report(self._series_run(
            {"ddr0.bytes": [64.0, 128.0], "ddr0.rq": []}, windows=2))
        assert "ddr0 GB/s" in text
        assert "readq" not in text

    def test_single_point_series_renders_padded(self):
        """Regression: a one-window run must still render aligned
        mean/peak columns, not a ragged one-char line."""
        text = render_report(self._series_run({"ddr0.bytes": [64.0],
                                               "mshr": [3.0]}))
        rows = [ln for ln in text.splitlines() if "mean" in ln]
        assert len(rows) == 2
        assert len({ln.index("mean") for ln in rows}) == 1  # aligned
        assert "Time series (1 windows" in text

    def test_one_sided_calm_columns(self):
        """Regression: only one of calm.go/calm.suppress present (or
        non-zero) must not KeyError; the empty side is skipped."""
        text = render_report(self._series_run({"calm.go": [5.0, 7.0]},
                                              windows=2))
        assert "calm go" in text and "calm suppress" not in text

    def test_all_empty_series_section_dropped(self):
        """Regression: every column empty used to leave a dangling
        'Time series' header with no rows."""
        text = render_report(self._series_run(
            {"ddr0.bytes": [], "calm.go": []}, windows=2))
        assert "Time series" not in text

    def test_no_series_at_all(self):
        assert "Time series" not in render_report({"series": {}})


# -- audit trace export (the span ring through export_trace) -------------------
class TestTraceExport:
    def _snapshot(self):
        from types import SimpleNamespace
        from repro.request import READ, MemRequest
        from repro.tracing import SpanTracer
        tracer = SpanTracer(span_capacity=8)
        tracer.attach(None, SimpleNamespace(measuring=True, meas_start=0.0))
        req = MemRequest(64, READ, core_id=0)
        req.t_create = 0.0
        req.t_complete = 10.0
        tracer.on_complete(req)
        return tracer.finish(None, 0.0)

    def test_export_creates_parent_dirs(self, tmp_path):
        from repro.tracing import export_trace
        snap = self._snapshot()
        deep = tmp_path / "a" / "b" / "trace.jsonl"
        assert export_trace(snap, deep) == deep and deep.exists()
        deep_npy = tmp_path / "c" / "d" / "trace.npy"
        arr = np.load(export_trace(snap, deep_npy))
        # Stages the request never reached keep the -1.0 sentinel.
        assert arr["t_mc_enqueue"].tolist() == [-1.0]

    def test_export_unknown_suffix_raises(self, tmp_path):
        from repro.tracing import export_trace
        snap = self._snapshot()
        with pytest.raises(ValueError, match="suffix"):
            export_trace(snap, tmp_path / "trace.jsnl")
        # explicit fmt still works regardless of suffix
        assert export_trace(snap, tmp_path / "trace.jsnl",
                            fmt="jsonl").exists()


# -- fleet aggregation ---------------------------------------------------------
class TestFleetSummary:
    def test_fleet_section_in_bench_record(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        from repro.exec.runner import LocalExecutor
        from repro.exec.perf import bench_record, fleet_summary
        from repro.exec.spec import expand_specs
        specs = expand_specs(["ddr-baseline"], ["mcf"], seeds=[1, 2],
                             ops=300, obs="on")
        results = LocalExecutor(workers=1).run(specs)
        fleet = fleet_summary(results)
        assert len(fleet["slowest_jobs"]) == 2
        assert fleet["events_per_s"]["max"] >= fleet["events_per_s"]["min"]
        assert fleet["cache_hit_rate"] == 0.0
        assert fleet["miss_latency_ns"]["count"] > 0
        rec = bench_record(results, total_wall_s=1.0, workers=1)
        assert rec["fleet"]["slowest_jobs"]

    def test_fleet_without_obs_has_no_latency_merge(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        from repro.exec.runner import LocalExecutor
        from repro.exec.perf import fleet_summary
        from repro.exec.spec import expand_specs
        specs = expand_specs(["ddr-baseline"], ["mcf"], seeds=[1], ops=300)
        fleet = fleet_summary(LocalExecutor(workers=1).run(specs))
        assert "miss_latency_ns" not in fleet
