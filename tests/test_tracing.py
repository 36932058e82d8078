"""Tests for the causal span tracer (`repro.tracing`).

Covers the zero-perturbation contract on both dispatch loops (alone and
together with the obs profiler) and the fuzz oracle that enforces it,
snapshot structure and its reconciliation with the always-on latency
breakdown, critical-path coverage semantics, the Perfetto / JSONL /
``.npy`` exporters (round trip through ``load_trace``), the shared
suffix-dispatch helper, and trace-id propagation through the sweep
runner, fleet specs, and the serve job store. The span ring as the
per-request audit trace is tested in ``test_validate_checker.py``.
"""

import dataclasses
import json

import pytest

from repro.engine.kernel import KERNEL_MODES
from repro.exportutil import dispatch_export
from repro.obs import ObsCollector
from repro.serve.jobs import BadRequest, JobStore, parse_job_request
from repro.exec.runner import SweepJob, _simulate_job
from repro.exec.spec import TaskSpec, expand_specs
from repro.system.config import ALL_CONFIGS
from repro.system.sim import simulate
from repro.tracing import (
    ATTRIBUTION_COMPONENTS,
    TRACE_SCHEMA_VERSION,
    SpanTracer,
    attribution_table,
    critical_path,
    export_trace,
    format_critical_path,
    load_trace,
    path_attribution,
    slowest,
)
from repro.workloads import get_workload

OPS = 300


def run(config="coaxial-4x", workload="mcf", ops=OPS, **kw):
    return simulate(ALL_CONFIGS[config](), get_workload(workload),
                    ops_per_core=ops, seed=1, **kw)


@pytest.fixture(scope="module")
def traced():
    return run(tracing="on")


@pytest.fixture(scope="module")
def snap(traced):
    return traced.extras["trace"]


# -- mode resolution -----------------------------------------------------------

class TestResolveMode:
    # The spellings themselves: tests/test_observer.py::test_resolve_mode.
    def test_env_enables_tracing_end_to_end(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACING", "1")
        r = run(config="ddr-baseline", ops=100)
        assert "trace" in r.extras and r.extras["trace"]["mode"] == "on"

    def test_tracer_rejects_bad_args(self):
        with pytest.raises(ValueError, match="mode"):
            SpanTracer(mode="off")
        with pytest.raises(ValueError, match="span_capacity"):
            SpanTracer(span_capacity=0)


# -- zero perturbation ---------------------------------------------------------

class TestZeroPerturbation:
    @pytest.mark.parametrize("kernel", KERNEL_MODES)
    def test_bit_identical_with_tracing_on(self, kernel):
        base = run(ops=200, kernel=kernel)
        on = run(ops=200, kernel=kernel, tracing="on")
        d = dataclasses.asdict(on)
        trace = d["extras"].pop("trace")
        assert d == dataclasses.asdict(base)
        # Including the fired-event count: the tracer schedules nothing.
        assert on.extras["events_fired"] == base.extras["events_fired"]
        assert trace["attribution"]["n"] > 0

    def test_off_by_default_leaves_no_payload(self):
        assert "trace" not in run(ops=100).extras

    def test_kernel_mode_counts_identical_across_kernels(self):
        counts = [run(ops=150, kernel=k, tracing="kernel")
                  .extras["trace"]["kernel_events"]
                  for k in KERNEL_MODES]
        assert counts[0] and counts[0] == counts[1]

    @pytest.mark.parametrize("kernel", KERNEL_MODES)
    def test_profile_and_kernel_tracing_together(self, kernel):
        # What `repro run --obs x.jsonl --tracing kernel` does: obs
        # profile mode and the tracer's kernel mode share one hook.
        collector = ObsCollector(mode="profile")
        both = run(ops=150, kernel=kernel, obs=collector, tracing="kernel")
        profile = collector.snapshot(with_profile=True)["profile"]
        counts = both.extras["trace"]["kernel_events"]
        assert profile and counts
        assert {k: e["count"] for k, e in profile.items()} == counts
        d = dataclasses.asdict(both)
        plain = dataclasses.asdict(run(ops=150, kernel=kernel))
        d.pop("extras")
        plain.pop("extras")
        assert d == plain


# -- snapshot + attribution ----------------------------------------------------

class TestSnapshot:
    def test_structure(self, snap):
        assert snap["schema"] == TRACE_SCHEMA_VERSION
        assert snap["mode"] == "on" and snap["trace_id"] is None
        att = snap["attribution"]
        assert att["n"] == att["hits"] + att["misses"] > 0
        for comp in ATTRIBUTION_COMPONENTS:
            assert att[comp] >= 0.0
        assert snap["requests"] == att["n"]
        assert snap["spans"] and len(snap["spans"]) <= 512
        row = snap["spans"][0]
        for key in ("req_id", "core", "addr", "t_create", "t_complete",
                    "total", "spans"):
            assert key in row

    def test_components_cover_total(self, snap):
        att = snap["attribution"]
        parts = sum(att[c] for c in ATTRIBUTION_COMPONENTS)
        # Clamped residuals can only push the sum above the total.
        assert parts >= att["total"] - 1e-6 * att["total"]

    def test_reconciles_with_latency_breakdown(self, traced, snap):
        """The span-derived sums must mirror the always-on breakdown:
        att["queuing"] is avg_queuing over exactly the measured misses,
        so the Fig 2b queuing share recomputed from spans matches."""
        att = snap["attribution"]
        assert att["queuing"] == pytest.approx(
            traced.avg_queuing * att["misses"], rel=1e-12)
        assert att["service"] == pytest.approx(
            traced.avg_dram * att["misses"], rel=1e-12)

    def test_ring_bounds_memory(self):
        r = run(ops=600, tracing="on")
        snap = r.extras["trace"]
        assert snap["requests"] >= len(snap["spans"])
        assert len(snap["spans"]) <= 512

    def test_attribution_table_renders(self, snap):
        text = attribution_table(snap)
        assert "requests :" in text and "total" in text
        for comp in ATTRIBUTION_COMPONENTS:
            assert comp in text


# -- critical path -------------------------------------------------------------

class TestCriticalPath:
    def test_exact_coverage(self, snap):
        for row in snap["spans"][:50]:
            segs = critical_path(row)
            assert segs[0]["t0"] == row["t_create"]
            assert segs[-1]["t1"] == row["t_complete"]
            for a, b in zip(segs, segs[1:]):
                assert b["t0"] == a["t1"]          # contiguous, no overlap
            assert sum(s["dur"] for s in segs) == pytest.approx(
                row["total"], abs=1e-6)

    def test_path_attribution_sums_to_total(self, snap):
        row = snap["spans"][0]
        att = path_attribution(row)
        assert set(att) == set(ATTRIBUTION_COMPONENTS)
        assert sum(att.values()) == pytest.approx(row["total"], abs=1e-6)

    def test_gap_charged_to_onchip(self):
        row = {"req_id": 1, "core": 0, "addr": 0, "calm": False,
               "llc_hit": False, "t_create": 0.0, "t_complete": 10.0,
               "total": 10.0,
               "spans": [{"name": "mc.queue", "component": "queuing",
                          "t0": 2.0, "t1": 5.0}]}
        segs = critical_path(row)
        assert [(s["name"], s["dur"]) for s in segs] == [
            ("onchip", 2.0), ("mc.queue", 3.0), ("onchip", 5.0)]

    def test_overlap_charged_to_earlier_span(self):
        row = {"req_id": 1, "core": 0, "addr": 0, "calm": False,
               "llc_hit": False, "t_create": 0.0, "t_complete": 6.0,
               "total": 6.0,
               "spans": [{"name": "a", "component": "queuing",
                          "t0": 0.0, "t1": 4.0},
                         {"name": "b", "component": "service",
                          "t0": 2.0, "t1": 6.0}]}
        segs = critical_path(row)
        assert [(s["name"], s["t0"], s["t1"]) for s in segs] == [
            ("a", 0.0, 4.0), ("b", 4.0, 6.0)]

    def test_mshr_wait_clipped_before_create(self):
        """Pre-t_create spans delay the start, not the latency."""
        row = {"req_id": 1, "core": 0, "addr": 0, "calm": False,
               "llc_hit": False, "t_create": 5.0, "t_complete": 8.0,
               "total": 3.0,
               "spans": [{"name": "mshr.wait", "component": "queuing",
                          "t0": 1.0, "t1": 5.0},
                         {"name": "llc.lookup", "component": "onchip",
                          "t0": 5.0, "t1": 8.0}]}
        segs = critical_path(row)
        assert [s["name"] for s in segs] == ["llc.lookup"]

    def test_slowest_sorted_and_limited(self, snap):
        top = slowest(snap, n=5)
        assert len(top) == 5
        totals = [r["total"] for r in top]
        assert totals == sorted(totals, reverse=True)
        assert totals[0] == max(r["total"] for r in snap["spans"])

    def test_format_critical_path(self, snap):
        text = format_critical_path(snap["spans"][0])
        assert text.startswith("req ") and " ns" in text

    def test_migration_span_present_on_tiered_config(self):
        r = run(config="tiered-lru", ops=400, tracing="on")
        att = r.extras["trace"]["attribution"]
        assert att["migration"] > 0.0
        names = {s["name"] for row in r.extras["trace"]["spans"]
                 for s in row["spans"]}
        assert "tiering.migration" in names


# -- exporters -----------------------------------------------------------------

class TestExporters:
    def test_perfetto_round_trip(self, snap, tmp_path):
        out = export_trace(snap, tmp_path / "t.json")
        doc = json.loads(out.read_text())
        assert doc["traceEvents"] and {e["ph"] for e in
                                       doc["traceEvents"]} <= {"X", "M"}
        back = load_trace(out)
        assert back["schema"] == snap["schema"]
        assert back["attribution"] == snap["attribution"]
        assert len(back["spans"]) == len(snap["spans"])

    def test_jsonl_round_trip(self, snap, tmp_path):
        out = export_trace(snap, tmp_path / "t.jsonl")
        back = load_trace(out)
        assert back["attribution"] == snap["attribution"]
        assert back["spans"] == snap["spans"]

    def test_trace_id_survives_export(self, snap, tmp_path):
        stamped = dict(snap, trace_id="abc123")
        for name in ("t.json", "t.jsonl"):
            assert load_trace(export_trace(
                stamped, tmp_path / name))["trace_id"] == "abc123"

    def test_unknown_suffix_and_fmt_raise(self, snap, tmp_path):
        with pytest.raises(ValueError, match="cannot infer span trace"):
            export_trace(snap, tmp_path / "t.xml")
        with pytest.raises(ValueError, match="unknown span trace format"):
            export_trace(snap, tmp_path / "t.json", fmt="pb")
        # An explicit fmt works regardless of suffix.
        assert export_trace(snap, tmp_path / "t.dat", fmt="npy").name == (
            "t.dat.npy")

    def test_exports_write_in_place(self, snap, tmp_path):
        # A trace is a report, not a golden: an ordinary open(path, "w")
        # keeps an existing file's inode and mode (a renamed tempfile
        # would be a new 0600 file).
        for name in ("t.json", "t.jsonl"):
            out = tmp_path / name
            out.write_text("old")
            out.chmod(0o644)
            inode = out.stat().st_ino
            export_trace(snap, out)
            assert out.stat().st_ino == inode
            assert out.stat().st_mode & 0o777 == 0o644

    def test_creates_parent_dirs(self, snap, tmp_path):
        for name in ("t.json", "t.jsonl", "t.npy"):
            out = export_trace(snap, tmp_path / "deep" / "nest" / name)
            assert out.exists()

    def test_load_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"no": "kind"}\n')
        with pytest.raises(ValueError, match="neither a Perfetto"):
            load_trace(bad)

    def test_dispatch_export_shared_helper(self, tmp_path):
        """The suffix policy export_trace rides."""
        calls = []
        exporters = {"json": lambda p: calls.append(("json", p)) or p,
                     "jsonl": lambda p: calls.append(("jsonl", p)) or p}
        out = dispatch_export(tmp_path / "x.JSON", None, exporters)
        assert out == tmp_path / "x.JSON" and calls == [("json", out)]
        dispatch_export(tmp_path / "y.bin", "jsonl", exporters)
        assert calls[-1][0] == "jsonl"
        with pytest.raises(ValueError, match="use a .json/.jsonl path"):
            dispatch_export(tmp_path / "z.bin", None, exporters)


# -- propagation: runner, fleet specs, serve -----------------------------------

class TestPropagation:
    def test_expand_grid_threads_tracing(self):
        jobs = [s.build_job() for s in expand_specs(
            ["ddr-baseline", "coaxial-4x"], ["mcf"], ops=100, seeds=[1, 2],
            tracing="on", trace_id="tid1")]
        assert len(jobs) == 4
        assert all(j.tracing == "on" and j.trace_id == "tid1" for j in jobs)

    def test_sweep_job_stamps_trace_id_into_result(self):
        job = SweepJob(config=ALL_CONFIGS["ddr-baseline"](), workload="mcf",
                       ops=100, seed=1, tracing="on", trace_id="deadbeef")
        result, _, _ = _simulate_job(job)
        assert result.extras["trace"]["trace_id"] == "deadbeef"

    def test_task_spec_wire_round_trip(self):
        spec = TaskSpec(base="coaxial-4x", workload="mcf", ops=100,
                        tracing="on", trace_id="tid2")
        d = json.loads(json.dumps(spec.to_dict()))
        assert d["tracing"] == "on" and d["trace_id"] == "tid2"
        assert TaskSpec.from_dict(d) == spec
        # Untraced specs stay wire-compatible with old brokers.
        assert "tracing" not in TaskSpec(workload="mcf").to_dict()

    def test_expand_specs_threads_tracing(self):
        specs = expand_specs(["ddr-baseline"], ["mcf"], ops=100,
                             tracing="kernel", trace_id="tid3")
        job = specs[0].build_job()
        assert job.tracing == "kernel" and job.trace_id == "tid3"

    def test_serve_validates_tracing_field(self):
        with pytest.raises(BadRequest, match="'tracing' must be one of"):
            parse_job_request({"configs": "ddr-baseline", "workloads": "mcf",
                               "tracing": "verbose"})

    def test_serve_mints_and_stamps_trace_id(self):
        parsed = parse_job_request({"configs": "ddr-baseline",
                                    "workloads": "mcf", "ops": 100,
                                    "tracing": "on"})
        store = JobStore()
        job = store.create(parsed)
        other = store.create(parse_job_request(
            {"configs": "ddr-baseline", "workloads": "mcf", "ops": 100}))
        assert job.trace_id and len(job.trace_id) == 32
        assert job.trace_id != other.trace_id
        assert all(t.trace_id == job.trace_id for t in job.tasks)
        assert all(t.tracing == "on" for t in job.tasks)
        assert job.summary()["trace_id"] == job.trace_id


# -- fuzz oracle ---------------------------------------------------------------

class TestTracingOracle:
    # Tracing's no-perturbation and attribution checks ride in the
    # ``observers`` oracle, next to validate and obs.
    def test_clean_on_generated_case(self):
        from repro.fuzz.gen import generate_cases
        from repro.fuzz.oracles import run_oracle
        [case] = generate_cases(1, seed=5)
        assert run_oracle("observers", case) is None

    def test_registered(self):
        from repro.fuzz.gen import generate_cases
        from repro.fuzz.oracles import ORACLES, applicable_oracles
        assert ORACLES["observers"].default
        assert all("observers" in applicable_oracles(case)
                   for case in generate_cases(5, seed=5))
