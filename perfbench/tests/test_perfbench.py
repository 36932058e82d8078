"""Tests of the benchmark's own machinery.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import http.server
import itertools
import json
import sys
import threading
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from jobs import Checker, Job, digest  # noqa: E402
from layers import LayerTracer, self_times_from_spans  # noqa: E402
from service import wait_terminal  # noqa: E402
from stats import percentile  # noqa: E402


def test_nested_self_time_sums_to_wall():
    ticks = itertools.count()
    tr = LayerTracer(clock=lambda: float(next(ticks)))

    # cpu -> cache -> cpu (re-entry opens a new cpu span) -> cpu (same
    # layer: no span) and a sibling dram call.
    inner_cpu = tr.wrap(lambda: tr.wrap(lambda: None, "cpu")(), "cpu")
    cache = tr.wrap(lambda: inner_cpu(), "cache")
    dram = tr.wrap(lambda: None, "dram")

    def job():
        cache()
        dram()
        return "ok"

    cpu_job = tr.wrap(job, "cpu")
    assert tr.run_job(cpu_job) == "ok"
    assert sum(tr.self_s) == pytest.approx(tr.wall_s)
    assert tr.wall_s > 0
    by_name = dict(zip(tr.names, tr.self_s))
    assert all(v >= 0 for v in by_name.values())
    assert tr.calls[tr.names.index("cpu")] == 2       # outer job + re-entry
    assert tr.calls[tr.names.index("cache")] == 1
    assert tr.calls[tr.names.index("dram")] == 1
    offline = self_times_from_spans(tr)
    for name, value in by_name.items():
        assert offline.get(name, 0.0) == pytest.approx(value)
    assert tr.coverage() == pytest.approx(1 - by_name["sim"] / tr.wall_s)


def test_span_stack_survives_an_exception():
    tr = LayerTracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tr.run_job(tr.wrap(boom, "dram"))
    assert tr._stack == [] and tr._st[0] == 0
    assert sum(tr.self_s) == pytest.approx(tr.wall_s)


def test_dispatch_hook_only_on_coverage_check_rounds():
    from repro.system.config import ALL_CONFIGS

    tr = LayerTracer()
    tr.install()
    try:
        import repro.system.sim as sim_mod

        sim, _ = sim_mod.build_system(ALL_CONFIGS["ddr-baseline"]())
        assert sim.event_hook is None      # timed rounds run the fast loop
        tr.check_dispatch = True
        sim, _ = sim_mod.build_system(ALL_CONFIGS["ddr-baseline"]())
        assert sim.event_hook == tr._observe
    finally:
        tr.uninstall()


def test_digest_check_flags_one_perturbed_field():
    result = {"ipc": 0.5, "core_ipcs": [0.5, 0.5],
              "extras": {"events_fired": 10.0, "channel_bytes": [64.0, 128.0]}}
    job = Job("ddr-baseline", "mcf", 100, 1)
    checker = Checker({job.label: digest(result)})
    assert checker.check(job, json.loads(json.dumps(result)))
    perturbed = json.loads(json.dumps(result))
    perturbed["extras"]["channel_bytes"][1] = 128.00000000000003
    assert not checker.check(job, perturbed)
    assert not checker.check(job, None)
    assert (checker.attempted, checker.failed) == (3, 2)


def test_percentile_reports_count_and_refuses_thin_tails():
    p = percentile(list(range(1, 101)), 0.9)
    assert (p.value, p.n, p.beyond) == (90, 100, 10)
    assert percentile(list(range(20)), 0.5).n == 20
    with pytest.raises(ValueError, match="beyond"):
        percentile(list(range(99)), 0.9)
    with pytest.raises(ValueError):
        percentile(list(range(19)), 0.5)


class _StreamHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    release = threading.Event()

    def do_GET(self):  # noqa: N802 - http.server naming
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        for kind in ("queued", "started", "task", "finished"):
            line = (json.dumps({"event": kind, "job": "job-1"}) + "\n").encode()
            self.wfile.write(f"{len(line):x}\r\n".encode() + line + b"\r\n")
            self.wfile.flush()
        # Hold the stream open: the waiter must not need it to close.
        self.release.wait(timeout=30)

    def log_message(self, *args):
        pass


def test_stream_waiter_returns_on_terminal_event():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _StreamHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        t0 = time.perf_counter()
        _, event = wait_terminal(server.server_address[1], "job-1")
        assert event["event"] == "finished"
        assert time.perf_counter() - t0 < 10
    finally:
        _StreamHandler.release.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)
    assert not thread.is_alive()
