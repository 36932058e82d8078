"""Unit tests for the invariant checker and its per-request audit trace."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cli import main
from repro.request import MemRequest, READ
from repro.tracing import SpanTracer, export_trace
from repro.validate import InvariantChecker, InvariantError


def make_miss_req(t0=100.0, calm=False):
    """A well-formed completed LLC-miss read."""
    req = MemRequest(0x1000, READ, core_id=0)
    req.t_create = t0
    req.t_llc_done = t0 + 10.0
    req.t_mc_enqueue = t0 + 15.0
    req.t_mc_issue = t0 + 30.0
    req.t_dram_done = t0 + 70.0
    req.t_complete = t0 + 90.0
    req.llc_hit = False
    req.calm = calm
    req.cxl_delay = 5.0
    return req


def make_hit_req(t0=100.0):
    req = MemRequest(0x2000, READ, core_id=1)
    req.t_create = t0
    req.t_llc_done = t0 + 12.0
    req.t_complete = t0 + 20.0
    req.llc_hit = True
    return req


class TestPerRequestChecks:
    def test_clean_requests_no_violations(self):
        ck = InvariantChecker()
        ck.on_complete(make_miss_req())
        ck.on_complete(make_hit_req())
        ck.on_complete(make_miss_req(calm=True))
        assert ck.n_violations == 0
        assert ck.checked == 3

    def test_non_monotonic_timestamps(self):
        ck = InvariantChecker()
        req = make_miss_req()
        req.t_mc_issue = req.t_mc_enqueue - 5.0   # issue before enqueue
        ck.on_complete(req)
        assert ck.counts.get("non_monotonic", 0) >= 1
        v = ck.violations[0]
        assert v.req_id == req.req_id
        assert v.timeline["t_mc_issue"] == req.t_mc_issue

    def test_missing_stage_on_miss(self):
        ck = InvariantChecker()
        req = make_miss_req()
        req.t_dram_done = -1.0
        ck.on_complete(req)
        assert ck.counts == {"missing_stage": 1}

    def test_hit_ignores_memory_timestamps(self):
        # A wasted CALM fetch may set memory timestamps after t_complete;
        # that is legal for an LLC hit.
        ck = InvariantChecker()
        req = make_hit_req()
        req.calm = True
        req.t_mc_enqueue = req.t_complete + 50.0
        req.t_mc_issue = req.t_complete + 60.0
        req.t_dram_done = req.t_complete + 80.0
        ck.on_complete(req)
        assert ck.n_violations == 0

    def test_calm_miss_allows_llc_after_enqueue(self):
        ck = InvariantChecker()
        req = make_miss_req(calm=True)
        req.t_llc_done = req.t_mc_issue + 1.0  # LLC raced memory and lost
        req.t_complete = max(req.t_complete, req.t_llc_done)
        ck.on_complete(req)
        assert ck.n_violations == 0
        # The serial path treats the same ordering as a bug.
        ck2 = InvariantChecker()
        req2 = make_miss_req(calm=False)
        req2.t_llc_done = req2.t_mc_enqueue + 1.0
        ck2.on_complete(req2)
        assert ck2.counts.get("non_monotonic", 0) >= 1

    def test_negative_residual(self):
        ck = InvariantChecker()
        req = make_miss_req()
        req.cxl_delay = 1e6  # components now far exceed total latency
        ck.on_complete(req)
        assert ck.counts.get("negative_residual", 0) == 1
        assert "components exceed total latency" in ck.violations[-1].message

    def test_negative_component(self):
        ck = InvariantChecker()
        req = make_miss_req()
        req.cxl_delay = -3.0
        ck.on_complete(req)
        assert ck.counts.get("negative_component", 0) == 1

    def test_double_complete(self):
        ck = InvariantChecker()
        req = make_miss_req()
        ck.on_complete(req)
        ck.on_complete(req)
        assert ck.counts.get("double_complete", 0) == 1

    def test_strict_raises(self):
        ck = InvariantChecker(strict=True)
        req = make_miss_req()
        req.t_complete = req.t_create - 1.0
        with pytest.raises(InvariantError, match="non_monotonic"):
            ck.on_complete(req)

    def test_violation_recording_is_bounded(self):
        from repro.validate.checker import MAX_RECORDED
        ck = InvariantChecker()
        for _ in range(MAX_RECORDED + 25):
            req = make_miss_req()
            req.cxl_delay = 1e6
            ck.on_complete(req)
        assert len(ck.violations) == MAX_RECORDED
        assert ck.n_violations == MAX_RECORDED + 25  # counters keep counting

    def test_report_shape(self):
        ck = InvariantChecker()
        req = make_miss_req()
        req.cxl_delay = 1e6
        ck.on_complete(req)
        rep = ck.report()
        assert rep["count"] == 1
        assert rep["checked_requests"] == 1
        assert rep["by_kind"] == {"negative_residual": 1}
        assert rep["violations"][0]["req_id"] == req.req_id
        json.dumps(rep)  # must be JSON-serializable (cache round-trip)

    def test_read_conservation(self):
        ck = InvariantChecker()
        req = make_miss_req()
        ck.on_mem_submit(req, req.t_llc_done, 0.0)
        # no response recorded -> finish flags the imbalance

        class _Chip:
            ddr_channels = ()
            ports = ()
            stats = {}

        ck.finish(_Chip(), elapsed_ns=100.0)
        assert ck.counts.get("read_conservation", 0) == 1


class TestSystemChecks:
    def _chip(self):
        from repro.system.builder import build_system
        from repro.system.config import ALL_CONFIGS
        return build_system(ALL_CONFIGS["ddr-baseline"]())

    def test_clean_chip_passes(self):
        _sim, chip = self._chip()
        ck = InvariantChecker()
        ck.finish(chip, elapsed_ns=1000.0)
        assert ck.n_violations == 0

    def test_corrupted_byte_counters_flagged(self):
        _sim, chip = self._chip()
        ch = chip.ddr_channels[0]
        ch.stats["bytes"] = 1000.0
        ch.stats["bytes_rd"] = 100.0    # != bytes - bytes_wr
        ck = InvariantChecker()
        ck.finish(chip, elapsed_ns=1000.0)
        assert ck.counts.get("stats_inconsistent", 0) >= 1

    def test_negative_counter_flagged(self):
        _sim, chip = self._chip()
        chip.ddr_channels[0].stats["num_rd"] = -5.0
        ck = InvariantChecker()
        ck.finish(chip, elapsed_ns=1000.0)
        assert ck.counts.get("negative_counter", 0) >= 1

    def test_bandwidth_over_peak_flagged(self):
        _sim, chip = self._chip()
        ch = chip.ddr_channels[0]
        nbytes = ch.peak_bandwidth_gbps * 1000.0 * 2  # 2x peak over 1000 ns
        ch.stats["bytes"] = nbytes
        ch.stats["bytes_rd"] = nbytes
        ck = InvariantChecker()
        ck.finish(chip, elapsed_ns=1000.0)
        assert ck.counts.get("bandwidth_exceeds_peak", 0) == 1

    def test_queue_watermark_over_cap_flagged(self):
        _sim, chip = self._chip()
        ch = chip.ddr_channels[0]
        ch.subs[0].read_q_hiwat = ch.read_q_cap + 1
        ck = InvariantChecker()
        ck.finish(chip, elapsed_ns=1000.0)
        assert ck.counts.get("queue_cap_exceeded", 0) == 1

    def test_cxl_link_over_goodput_flagged(self):
        from repro.system.builder import build_system
        from repro.system.config import ALL_CONFIGS
        _sim, chip = build_system(ALL_CONFIGS["coaxial-4x"]())
        port = chip.ports[0]
        port.rx.bytes_moved = port.rx.goodput_gbps * 1000.0 * 2
        ck = InvariantChecker()
        ck.finish(chip, elapsed_ns=1000.0)
        assert ck.counts.get("bandwidth_exceeds_peak", 0) == 1



def audit_trace(reqs, capacity=512):
    """The audit trace of ``reqs``: the span-ring snapshot that
    ``repro run --validate strict --trace-out`` exports."""
    tracer = SpanTracer(span_capacity=capacity)
    tracer.attach(None, SimpleNamespace(measuring=True, meas_start=0.0))
    for req in reqs:
        tracer.on_complete(req)
    return tracer.finish(None, 0.0)


class TestTraceRecorder:
    def test_ring_wraps_oldest_first(self):
        reqs = [make_miss_req(t0=100.0 * i) for i in range(10)]
        snap = audit_trace(reqs, capacity=4)
        assert snap["requests"] == 10
        assert [row["req_id"] for row in snap["spans"]] == [
            r.req_id for r in reqs[-4:]]

    def test_rows_carry_request_timelines(self):
        miss, hit = make_miss_req(), make_hit_req(t0=300.0)
        rows = audit_trace([miss, hit])["spans"]
        for row, req in zip(rows, (miss, hit)):
            timeline = req.timeline()
            for key in ("req_id", "addr", "calm", "t_create", "t_llc_done",
                        "t_mc_enqueue", "t_mc_issue", "t_dram_done",
                        "t_complete", "cxl_delay"):
                assert row[key] == timeline[key], key
            assert row["llc_hit"] is bool(req.llc_hit)
        assert rows[1]["t_mc_enqueue"] == -1.0   # a hit never visited the MC

    def test_find(self, tmp_path, capsys):
        miss = make_miss_req()
        out = export_trace(audit_trace([miss, make_hit_req()]),
                           tmp_path / "t.jsonl")
        assert main(["trace", "critpath", str(out),
                     "--req", str(miss.req_id)]) == 0
        assert capsys.readouterr().out.startswith(f"req {miss.req_id} ")
        assert main(["trace", "critpath", str(out), "--req", "-1"]) == 1
        assert "not in the retained ring" in capsys.readouterr().err

    def test_bad_capacity(self):
        for capacity in (0, -1):
            with pytest.raises(ValueError, match="span_capacity"):
                SpanTracer(span_capacity=capacity)

    def test_timeline_roundtrip(self):
        req = make_miss_req()
        tl = req.timeline()
        assert tl["req_id"] == req.req_id
        assert tl["t_dram_done"] == req.t_dram_done
        assert json.loads(json.dumps(tl)) == tl

    def test_export_jsonl(self, tmp_path):
        miss, hit = make_miss_req(), make_hit_req()
        out = export_trace(audit_trace([miss, hit]), tmp_path / "t.jsonl")
        lines = [json.loads(ln) for ln in out.read_text().splitlines()]
        assert [ln["kind"] for ln in lines] == ["header", "request", "request"]
        assert lines[1]["t_dram_done"] == miss.t_dram_done
        assert lines[2]["llc_hit"] is True
        assert lines[2]["t_mc_enqueue"] == -1.0

    def test_export_npy(self, tmp_path):
        miss, hit = make_miss_req(), make_hit_req()
        snap = audit_trace([miss, hit])
        arr = np.load(export_trace(snap, tmp_path / "t.npy"))
        assert len(arr) == 2
        for name in arr.dtype.names:
            assert arr[name].tolist() == [
                row[name] for row in snap["spans"]], name
        assert arr["req_id"][0] == miss.req_id
        assert arr["llc_hit"].tolist() == [False, True]
        assert arr["t_complete"][1] == hit.t_complete

    def test_export_format_by_suffix_and_override(self, tmp_path):
        snap = audit_trace([make_miss_req()])
        p = export_trace(snap, tmp_path / "x.dat", fmt="jsonl")
        assert json.loads(p.read_text().splitlines()[1])["kind"] == "request"
        assert export_trace(snap, tmp_path / "x.npy").suffix == ".npy"
        with pytest.raises(ValueError):
            export_trace(snap, tmp_path / "x.dat", fmt="csv")
