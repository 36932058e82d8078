"""Tests for the ``repro serve`` async simulation job server.

A real server runs on a background thread with its own event loop and is
driven over actual sockets with ``http.client`` — the same path any
external client takes. Small ops counts keep submissions sub-second;
``pool_workers=1`` runs sweeps inline in the job thread (no subprocesses)
except where the pool's deadline machinery is the thing under test.
"""

import asyncio
import http.client
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.exec import runner
from repro.exec.cache import ResultCache
from repro.exec.spec import expand_specs
from repro.obs.export import parse_prometheus
from repro.serve import ServeApp
from repro.serve.broker import FleetBroker
from repro.serve.jobs import BadRequest, parse_job_request

OPS = 200


# -- harness -------------------------------------------------------------------

class ServerHarness:
    """One ServeApp on a daemon thread; synchronous client helpers."""

    def __init__(self, **app_kwargs):
        self.app = ServeApp(**app_kwargs)
        self.loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        assert self._started.wait(10), "server failed to start"

    def _run(self):
        asyncio.set_event_loop(self.loop)

        async def boot():
            await self.app.start(host="127.0.0.1", port=0)
            self._started.set()

        self.loop.run_until_complete(boot())
        self.loop.run_forever()
        self.loop.close()

    def stop(self, drain_s=10.0):
        fut = asyncio.run_coroutine_threadsafe(
            self.app.shutdown(drain_s), self.loop)
        stats = fut.result(timeout=drain_s + 10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        assert not self.thread.is_alive(), "server thread failed to exit"
        return stats

    # -- client helpers --------------------------------------------------------
    def request(self, method, path, body=None, headers=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.app.port,
                                          timeout=30)
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload, headers=headers or {})
        resp = conn.getresponse()
        data = resp.read()
        conn.close()
        return resp.status, data

    def json(self, method, path, body=None, headers=None):
        status, data = self.request(method, path, body=body, headers=headers)
        return status, json.loads(data)

    def submit(self, body, headers=None, expect=202):
        status, payload = self.json("POST", "/jobs", body=body,
                                    headers=headers)
        assert status == expect, payload
        return payload["job"] if status == 202 else payload

    def wait_job(self, job_id, timeout=60.0):
        deadline = time.time() + timeout
        while time.time() < deadline:
            status, payload = self.json("GET", f"/jobs/{job_id}")
            assert status == 200, payload
            job = payload["job"]
            if job["state"] not in ("queued", "running"):
                return job
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} did not finish in {timeout}s")


@pytest.fixture
def server(tmp_path):
    harness = ServerHarness(pool_workers=1, cache=ResultCache(
        root=tmp_path / "cache"))
    yield harness
    harness.stop()


SPEC = {"configs": ["ddr-baseline"], "workloads": ["mcf"],
        "ops": OPS, "seeds": [1]}


# -- submission validation (no sockets needed) ---------------------------------

class TestParseJobRequest:
    def test_valid_expands_grid(self):
        parsed = parse_job_request({"configs": ["ddr-baseline", "coaxial-4x"],
                                    "workloads": ["mcf", "BFS"],
                                    "ops": 100, "seeds": [1, 2]})
        assert len(parsed["tasks"]) == 8
        assert parsed["tenant"] == "default" and parsed["priority"] == 0

    def test_comma_strings_accepted(self):
        parsed = parse_job_request({"configs": "ddr-baseline,coaxial-4x",
                                    "workloads": "mcf"})
        assert len(parsed["tasks"]) == 2

    @pytest.mark.parametrize("payload, match", [
        ({}, "configs"),
        ({"configs": ["nope"], "workloads": ["mcf"]}, "nope"),
        ({"configs": ["ddr-baseline"], "workloads": ["no-such"]}, "no-such"),
        ({"configs": ["ddr-baseline"], "workloads": ["mcf"], "ops": -1},
         "ops"),
        ({"configs": ["ddr-baseline"], "workloads": ["mcf"],
          "bogus": 1}, "bogus"),
        ({"configs": ["ddr-baseline"], "workloads": ["mcf"],
          "kernel": "warp"}, "kernel"),
    ])
    def test_rejections(self, payload, match):
        with pytest.raises(BadRequest, match=match):
            parse_job_request(payload)


# -- end-to-end over sockets ---------------------------------------------------

class TestSubmitRoundTrip:
    def test_submit_status_result(self, server):
        job = server.submit(SPEC)
        assert job["state"] in ("queued", "running")
        assert job["total_tasks"] == 1
        final = server.wait_job(job["id"])
        assert final["state"] == "done"
        assert final["done_tasks"] == 1 and final["failed_tasks"] == 0
        status, payload = server.json("GET", f"/jobs/{job['id']}/result")
        assert status == 200
        (task,) = payload["job"]["tasks"]
        assert task["config"] == "ddr-baseline"
        assert task["result"]["ipc"] > 0
        assert task["error"] is None

    def test_result_conflict_before_done_and_404(self, server):
        status, _ = server.json("GET", "/jobs/job-999999")
        assert status == 404
        job = server.submit({**SPEC, "ops": 2000})
        status, _ = server.json("GET", f"/jobs/{job['id']}/result")
        assert status == 409
        server.wait_job(job["id"])

    def test_cache_hit_dedupe(self, server):
        first = server.wait_job(server.submit(SPEC)["id"])
        assert first["cached_tasks"] == 0
        second = server.wait_job(server.submit(SPEC)["id"])
        # Identical submission: every task settles from the shared
        # content-addressed cache, without touching the pool.
        assert second["state"] == "done"
        assert second["cached_tasks"] == second["total_tasks"] == 1
        status, payload = server.json("GET",
                                      f"/jobs/{second['id']}/result")
        assert payload["job"]["tasks"][0]["cached"] is True

    def test_bad_submission_rejected(self, server):
        server.submit({"configs": ["nope"], "workloads": ["mcf"]},
                      expect=400)

    def test_events_stream_jsonl(self, server):
        job = server.submit(SPEC)
        conn = http.client.HTTPConnection("127.0.0.1", server.app.port,
                                          timeout=30)
        conn.request("GET", f"/jobs/{job['id']}/events")
        resp = conn.getresponse()
        events = [json.loads(line) for line in resp.read().splitlines()]
        conn.close()
        kinds = [e["event"] for e in events]
        assert kinds[0] == "queued" and kinds[-1] == "finished"
        assert "task" in kinds
        task_events = [e for e in events if e["event"] == "task"]
        assert task_events[-1]["done"] == 1
        assert events[-1]["state"] == "done"


class TestQuotasAndPriorities:
    def test_tenant_quota_rejection(self, tmp_path):
        server = ServerHarness(pool_workers=1, tenant_max_jobs=1,
                               cache=ResultCache(root=tmp_path / "c"))
        try:
            slow = server.submit({**SPEC, "ops": 5000},
                                 headers={"X-Tenant": "alice"})
            # Same tenant while job 1 is live: over quota -> 429.
            payload = server.submit(SPEC, headers={"X-Tenant": "alice"},
                                    expect=429)
            assert "quota" in payload["error"]
            # A different tenant is unaffected.
            other = server.submit(SPEC, headers={"X-Tenant": "bob"})
            assert server.wait_job(other["id"])["state"] == "done"
            server.wait_job(slow["id"])
        finally:
            server.stop()

    def test_priority_orders_queue_and_cancel(self, tmp_path):
        server = ServerHarness(pool_workers=1,
                               cache=ResultCache(root=tmp_path / "c"))
        try:
            blocker = server.submit({**SPEC, "ops": 5000})
            low = server.submit({**SPEC, "workloads": ["BFS"],
                                 "priority": 0})
            high = server.submit({**SPEC, "workloads": ["gcc"],
                                  "priority": 5})
            # Cancel the low-priority job while it is still queued.
            status, payload = server.json("DELETE", f"/jobs/{low['id']}")
            assert status == 200 and payload["cancelled"] is True
            assert payload["job"]["state"] == "cancelled"
            done_high = server.wait_job(high["id"])
            assert done_high["state"] == "done"
            server.wait_job(blocker["id"])
            status, payload = server.json("GET", f"/jobs/{low['id']}")
            assert payload["job"]["state"] == "cancelled"
        finally:
            server.stop()


class TestMetricsEndpoint:
    def test_metrics_round_trip_prometheus(self, server):
        server.wait_job(server.submit(SPEC)["id"])
        server.wait_job(server.submit(SPEC)["id"])     # cache hit
        status, text = server.request("GET", "/metrics")
        assert status == 200
        parsed = parse_prometheus(text.decode())
        def value(name):
            (sample,) = [v for n, _, v in parsed[name]["samples"]
                         if n == name]
            return sample
        assert value("repro_serve_jobs_accepted_total") == 2
        assert value("repro_serve_jobs_completed_total") == 2
        assert value("repro_serve_tasks_cached_total") == 1
        assert value("repro_serve_cache_hits_total") == 1
        assert value("repro_serve_queue_depth") == 0
        assert parsed["repro_serve_job_wall_seconds"]["type"] == "histogram"
        http_counts = parsed["repro_serve_http_requests_total"]["samples"]
        assert any(labels.get("code") == "2xx" for _, labels, _ in
                   http_counts)

    def test_health(self, server):
        status, payload = server.json("GET", "/healthz")
        assert status == 200 and payload["status"] == "ok"


class TestTimeoutAndShutdown:
    def test_job_timeout_reported_server_keeps_serving(self, tmp_path):
        # ops large enough (~40s of simulation) that the run cannot finish
        # inside the deadline; pool_workers=2 exercises the real
        # process-pool path where the hung worker is killed and replaced.
        # The deadline runs from submission, so it must also cover pool
        # spawn + worker import (~0.7s) for the follow-up job to pass.
        server = ServerHarness(pool_workers=2, job_timeout_s=2.5,
                               retries=0,
                               cache=ResultCache(root=tmp_path / "c"))
        try:
            hung = server.submit({**SPEC, "ops": 50_000})
            final = server.wait_job(hung["id"], timeout=60)
            assert final["state"] == "timed_out"
            assert final["timed_out_tasks"] == 1
            assert "deadline" in final["error"]
            # The server is still healthy and still runs new jobs.
            status, payload = server.json("GET", "/healthz")
            assert status == 200 and payload["status"] == "ok"
            ok = server.wait_job(server.submit(SPEC)["id"])
            assert ok["state"] == "done"
            status, text = server.request("GET", "/metrics")
            parsed = parse_prometheus(text.decode())
            (sample,) = [v for n, _, v
                         in parsed["repro_serve_jobs_timed_out_total"]
                         ["samples"]]
            assert sample == 1
        finally:
            server.stop()

    def test_shutdown_cancels_queue_and_joins(self, tmp_path):
        server = ServerHarness(pool_workers=1,
                               cache=ResultCache(root=tmp_path / "c"))
        blocker = server.submit({**SPEC, "ops": 5000})
        queued = server.submit({**SPEC, "workloads": ["BFS"]})
        stats = server.stop(drain_s=60)
        assert stats["cancelled"] == 1
        assert stats["abandoned"] == 0
        assert server.app.store.get(queued["id"]).state == "cancelled"
        assert server.app.store.get(blocker["id"]).state == "done"


class TestTaskQueue:
    """The broker state machine serve and the fleet share: priorities,
    requeue order and cancel, with no sockets and no simulation."""

    @staticmethod
    def specs(n):
        return expand_specs(["ddr-baseline"],
                            ["mcf", "gcc", "BFS", "lbm"][:n], ops=OPS)

    def test_priority_order_with_fifo_ties(self):
        broker = FleetBroker()
        low = broker.submit(self.specs(2), priority=0)
        high = broker.submit(self.specs(2), priority=5)
        mid = broker.submit(self.specs(1), priority=1)
        leased = broker.lease("w", max_tasks=5)
        assert [t.id for t in leased] == high + mid + low
        assert [t.priority for t in leased] == [5, 5, 1, 0, 0]

    def test_requeue_goes_behind_its_priority(self):
        now = [0.0]
        broker = FleetBroker(lease_s=5.0, retries=3, now_fn=lambda: now[0])
        first, second = broker.submit(self.specs(2), priority=1)
        assert [t.id for t in broker.lease("w", 1)] == [first]
        (other,) = broker.submit(self.specs(1), priority=1)
        (low,) = broker.submit(self.specs(1), priority=0)
        # An error settle and an expired lease each requeue their task
        # behind the tasks of its priority already queued.
        assert broker.settle("w", first, error="boom") == "requeued"
        assert [t.id for t in broker.lease("w", 1)] == [second]
        now[0] += 6.0
        assert broker.expire() == [second]
        order = [t.id for t in broker.lease("w", 4)]
        assert order == [other, first, second, low]

    def test_cancel_drops_queued_and_refuses_leased(self):
        broker = FleetBroker(retries=0)
        a, b, c = broker.submit(self.specs(3))
        broker.lease("w", 1)                    # a
        assert broker.cancel([a, b]) == [b]
        assert broker.task(a).state == "leased"
        with pytest.raises(KeyError):
            broker.task(b)
        assert [t.id for t in broker.lease("w", 5)] == [c]
        assert broker.counts()["queued"] == 0
        # A finished task is forgotten; the holder's settle still landed.
        assert broker.settle("w", a, error="boom") == "failed"
        assert broker.cancel([a]) == [a]
        assert broker.counts()["total"] == 1


@pytest.fixture
def simulated(monkeypatch):
    """Every job simulated in this process, in order, recorded through
    ``runner._simulate_job``, the name perfbench/serve_traced.py wraps."""
    ran = []
    simulate = runner._simulate_job

    def traced(job):
        ran.append(job)
        return simulate(job)

    monkeypatch.setattr(runner, "_simulate_job", traced)
    return ran


class TestServeOnTheBroker:
    """Serve's jobs run as broker tasks; what perfbench's job-service
    workload relies on is pinned here."""

    def test_task_runs_in_process_through_simulate_job(self, server,
                                                       simulated):
        # A task at pool_workers=1 runs in this process, through the
        # module-level name looked up per call.
        final = server.wait_job(server.submit(SPEC)["id"])
        assert final["state"] == "done"
        assert [j.label() for j in simulated] == [
            f"ddr-baseline/mcf/ops={OPS}/seed=1"]

    def test_cache_hit_summary_has_all_times(self, server):
        server.wait_job(server.submit(SPEC)["id"])
        hit = server.submit(SPEC)      # the runner is idle: done at once
        assert hit["state"] == "done" and hit["cached_tasks"] == 1
        # The traced job-service leg subtracts these for every job.
        t = [hit[k] for k in ("submitted_at", "started_at", "finished_at")]
        assert all(isinstance(x, float) for x in t)
        assert t == sorted(t)

    def test_retried_task_reports_every_attempt(self, tmp_path, monkeypatch):
        simulate = runner._simulate_job
        calls = []

        def flaky(job):
            calls.append(job.label())
            if len(calls) == 1:
                raise RuntimeError("transient")
            return simulate(job)

        monkeypatch.setattr(runner, "_simulate_job", flaky)
        server = ServerHarness(pool_workers=1, retries=1)
        try:
            final = server.wait_job(server.submit(SPEC)["id"])
            _, payload = server.json("GET", f"/jobs/{final['id']}/result")
        finally:
            server.stop()
        assert final["state"] == "done" and len(calls) == 2
        (task,) = payload["job"]["tasks"]
        assert task["attempts"] == 2 and task["error"] is None

    def test_higher_priority_job_runs_first(self, server, simulated):
        blocker = server.submit({**SPEC, "ops": 2000})
        low = server.submit({**SPEC, "workloads": ["BFS", "lbm"]})
        high = server.submit({**SPEC, "workloads": ["gcc"], "priority": 5})
        for job in (blocker, low, high):
            assert server.wait_job(job["id"])["state"] == "done"
        assert [j.workload for j in simulated] == ["mcf", "gcc", "BFS", "lbm"]

    def test_finished_and_evicted_jobs_leave_the_broker(self, server):
        server.app.store.keep_finished = 1
        first = server.wait_job(server.submit(SPEC)["id"])
        second = server.wait_job(server.submit(
            {**SPEC, "workloads": ["gcc", "BFS"]})["id"])
        broker = server.app.scheduler.broker
        # A finished job keeps its results; its tasks left the broker.
        assert broker.counts()["total"] == 0
        status, payload = server.json("GET", f"/jobs/{second['id']}/result")
        assert status == 200 and len(payload["job"]["tasks"]) == 2
        # The next submission (a cache hit) evicts the oldest finished job.
        assert server.submit(SPEC)["state"] == "done"
        assert server.app.store.get(first["id"]) is None
        assert broker.counts()["total"] == 0
        assert server.app.scheduler._job_of == {}


def test_serve_boot_loads_no_fleet_module():
    # repro.fleet builds on repro.serve, never the reverse: loading the
    # CLI and the job server imports no fleet module.
    src = str(Path(repro.__file__).resolve().parents[1])
    code = ("import sys, repro.cli, repro.serve; "
            "print([m for m in sys.modules if m.startswith('repro.fleet')])")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
