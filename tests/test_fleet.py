"""Tests for the ``repro.fleet`` distributed sweep fleet.

Three layers, matching the module structure:

* the :class:`FleetBroker` state machine with an injected clock — lease
  expiry, requeue, worker death, duplicate/stale settles, attempt
  exhaustion, deterministic result ordering — no sockets, no sleeps;
* the :class:`BrokerApp` HTTP facade on a background event-loop thread
  driven with real workers over ``http.client``, asserting that a
  2-worker fleet produces results bit-identical to a single-pool sweep
  of the same specs;
* the campaign driver, on a fake executor for the halving logic and on
  the real local executor for one tiny end-to-end search.
"""

import asyncio
import dataclasses
import http.client
import json
import math
import threading
import time

import pytest

from repro.exec import runner
from repro.exec.cache import ResultCache
from repro.exec.runner import (
    JobResult, LocalExecutor, SweepRunner, _simulate_job,
)
from repro.exec.spec import SpecError, TaskSpec, build_config, expand_specs
from repro.fleet import (
    BrokerApp, Campaign, CampaignFailed, Candidate, FleetBroker, FleetClient,
    FleetError, FleetWorker, parse_search,
)
from repro.system.config import ALL_CONFIGS

OPS = 200


def make_specs(n=2, ops=OPS):
    workloads = ["mcf", "stream-copy", "gcc", "bfs"][:n]
    return expand_specs(["ddr-baseline"], workloads, ops=ops)


def run_and_wire(spec):
    """Simulate one spec inline and return (JobResult, settle payload)."""
    job = spec.build_job()
    result, wall, events = _simulate_job(job)
    jr = JobResult(job=job, result=result, wall_s=wall, events=events,
                   attempts=1)
    return jr, jr.to_wire()


class Clock:
    """Injectable monotonic clock for deterministic expiry tests."""

    def __init__(self):
        self.t = 1000.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


# -- protocol ------------------------------------------------------------------

class TestTaskSpec:
    def test_round_trip(self):
        spec = TaskSpec(base="coaxial-4x", overrides={"cxl": "asym"},
                        workload="mcf", ops=300, seed=7, obs="on")
        assert TaskSpec.from_dict(spec.to_dict()) == spec
        assert TaskSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_round_trip_omits_defaults(self):
        d = TaskSpec(workload="bfs").to_dict()
        assert "overrides" not in d and "obs" not in d

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown task spec"):
            TaskSpec.from_dict({"base": "ddr-baseline", "bogus": 1})

    def test_build_job_materializes_base(self):
        job = TaskSpec(base="coaxial-4x", workload="mcf", ops=100).build_job()
        assert job.config.name == "coaxial-4x" and job.ops == 100

    def test_overrides_apply(self):
        cfg = build_config("coaxial-4x",
                           {"cxl": "asym", "calm_policy": "calm_90"})
        assert cfg.cxl_params.lanes_rx != cfg.cxl_params.lanes_tx
        assert cfg.calm_policy == "calm_90"

    def test_n_cores_implies_active_cores(self):
        cfg = build_config("ddr-baseline", {"n_cores": 4})
        assert cfg.n_cores == 4 and cfg.active_cores == 4

    def test_bad_base_and_override_rejected(self):
        with pytest.raises(SpecError, match="'base' must name a config"):
            TaskSpec(base="nope").build_job()
        with pytest.raises(SpecError, match="'cxl' must be one of"):
            TaskSpec(base="coaxial-4x", overrides={"cxl": "nope"}).build_job()

    def test_result_wire_round_trip(self):
        spec = make_specs(1)[0]
        jr, payload = run_and_wire(spec)
        back = JobResult.from_wire(jr.job, json.loads(json.dumps(payload)))
        assert dataclasses.asdict(back.result) == dataclasses.asdict(jr.result)
        assert ((back.wall_s, back.events, back.cached)
                == (jr.wall_s, jr.events, jr.cached))


# -- broker state machine ------------------------------------------------------

class TestBroker:
    def test_fifo_lease_order(self):
        broker = FleetBroker()
        ids = broker.submit(make_specs(3))
        granted = broker.lease("w1", max_tasks=3)
        assert [t.id for t in granted] == ids
        assert all(t.worker == "w1" and t.attempts == 1 for t in granted)

    def test_settle_then_results_in_task_order(self):
        broker = FleetBroker()
        ids = broker.submit(make_specs(2))
        tasks = broker.lease("w1", max_tasks=2)
        # settle out of order; results still come back in task order
        for task in reversed(tasks):
            _, payload = run_and_wire(task.spec)
            assert broker.settle("w1", task.id, payload=payload) == "ok"
        results = broker.results(ids)
        assert ([r.job.workload for r in results]
                == [t.spec.workload for t in tasks])

    def test_results_refuse_partial_fleet(self):
        broker = FleetBroker()
        ids = broker.submit(make_specs(2))
        with pytest.raises(RuntimeError, match="queued"):
            broker.results(ids)

    def test_lease_expiry_requeues(self):
        clock = Clock()
        broker = FleetBroker(lease_s=10.0, retries=2, now_fn=clock)
        (tid,) = broker.submit(make_specs(1))
        broker.lease("w1", 1)
        clock.advance(9.0)
        assert broker.expire() == []            # lease still live
        clock.advance(2.0)
        assert broker.expire() == [tid]         # now past the deadline
        task = broker.task(tid)
        assert task.state == "queued" and task.requeues == 1

    def test_renew_extends_lease(self):
        clock = Clock()
        broker = FleetBroker(lease_s=10.0, now_fn=clock)
        (tid,) = broker.submit(make_specs(1))
        broker.lease("w1", 1)
        clock.advance(8.0)
        assert broker.renew("w1", [tid]) == 1
        clock.advance(8.0)                      # 16s total, renewed at 8s
        assert broker.expire() == []
        assert broker.renew("w2", [tid]) == 0   # not the holder

    def test_worker_death_mid_lease_migrates_task(self):
        clock = Clock()
        broker = FleetBroker(lease_s=5.0, retries=2, now_fn=clock)
        (tid,) = broker.submit(make_specs(1))
        broker.lease("dead-worker", 1)
        clock.advance(6.0)                      # dead-worker never settles
        [granted] = broker.lease("live-worker", 1)
        assert granted.id == tid and granted.attempts == 2
        _, payload = run_and_wire(granted.spec)
        assert broker.settle("live-worker", tid, payload=payload) == "ok"
        assert broker.task(tid).requeues == 1 and broker.done()

    def test_attempts_exhausted_fails_task(self):
        clock = Clock()
        broker = FleetBroker(lease_s=5.0, retries=1, now_fn=clock)
        (tid,) = broker.submit(make_specs(1))
        for _ in range(2):                      # 1 + retries attempts
            broker.lease("w1", 1)
            clock.advance(6.0)
            broker.expire()
        task = broker.task(tid)
        assert task.state == "failed" and "lease expired" in task.error
        [jr] = broker.results([tid])
        assert jr.result is None and jr.attempts == 2

    def test_error_settle_requeues_then_fails(self):
        broker = FleetBroker(retries=1)
        (tid,) = broker.submit(make_specs(1))
        broker.lease("w1", 1)
        assert broker.settle("w1", tid, error="boom") == "requeued"
        broker.lease("w2", 1)
        assert broker.settle("w2", tid, error="boom again") == "failed"
        assert broker.task(tid).error == "boom again"

    def test_late_settle_after_requeue_still_wins(self):
        # w1's lease expires, the task requeues — but w1 finishes anyway.
        # First completion wins; the task never runs twice.
        clock = Clock()
        broker = FleetBroker(lease_s=5.0, retries=3, now_fn=clock)
        (tid,) = broker.submit(make_specs(1))
        [task] = broker.lease("w1", 1)
        clock.advance(6.0)
        broker.expire()
        _, payload = run_and_wire(task.spec)
        assert broker.settle("w1", tid, payload=payload) == "ok"
        assert broker.task(tid).state == "done"
        assert broker.lease("w2", 1) == []      # nothing left to steal

    def test_duplicate_settle_dropped(self):
        broker = FleetBroker()
        (tid,) = broker.submit(make_specs(1))
        [task] = broker.lease("w1", 1)
        _, payload = run_and_wire(task.spec)
        assert broker.settle("w1", tid, payload=payload) == "ok"
        assert broker.settle("w2", tid, payload=payload) == "duplicate"
        assert broker.task(tid).settles == 2
        assert broker.metrics.duplicate_settles.value == 1

    def test_stale_error_settle_does_not_charge_attempt(self):
        clock = Clock()
        broker = FleetBroker(lease_s=5.0, retries=3, now_fn=clock)
        (tid,) = broker.submit(make_specs(1))
        broker.lease("w1", 1)
        clock.advance(6.0)
        broker.expire()                         # requeued; w1 is stale now
        before = broker.task(tid).attempts
        assert broker.settle("w1", tid, error="late crash") == "stale"
        task = broker.task(tid)
        assert task.state == "queued" and task.attempts == before

    def test_cache_hit_settles_at_submit(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        spec = make_specs(1)[0]
        jr, _ = run_and_wire(spec)
        job = jr.job
        cache.put(job.config, job.workload, job.ops, job.seed, jr.result)
        broker = FleetBroker(cache=cache)
        (tid,) = broker.submit([spec])
        task = broker.task(tid)
        assert task.state == "done" and task.result.cached
        assert broker.lease("w1", 1) == []
        assert (dataclasses.asdict(task.result.result)
                == dataclasses.asdict(jr.result))

    def test_uploaded_result_written_back_to_cache(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        broker = FleetBroker(cache=cache)
        spec = make_specs(1)[0]
        (tid,) = broker.submit([spec])
        [task] = broker.lease("w1", 1)
        _, payload = run_and_wire(task.spec)
        broker.settle("w1", tid, payload=payload)
        # resubmission settles instantly from the written-back result
        (tid2,) = broker.submit([spec])
        assert broker.task(tid2).state == "done"
        assert broker.task(tid2).result.cached

    def test_duplicate_settle_via_shared_cache(self, tmp_path):
        # Worker A simulates and stores into the shared cache, then dies
        # before settling. Its lease expires; worker B leases the requeue,
        # hits the cache, settles instantly. A's late settle is dropped,
        # and the fleet result is bit-identical to A's original.
        clock = Clock()
        cache = ResultCache(root=tmp_path / "shared")
        broker = FleetBroker(cache=cache, lease_s=5.0, retries=2,
                             now_fn=clock)
        spec = TaskSpec(base="coaxial-4x", workload="mcf", ops=OPS)
        (tid,) = broker.submit([spec])
        [task] = broker.lease("worker-a", 1)
        jr_a, payload_a = run_and_wire(task.spec)
        job = jr_a.job
        cache.put(job.config, job.workload, job.ops, job.seed, jr_a.result)
        clock.advance(6.0)                      # A dies before settling
        broker.expire()
        [steal] = broker.lease("worker-b", 1)
        hit = cache.get(job.config, job.workload, job.ops, job.seed)
        payload_b = JobResult(job=job, result=hit, cached=True).to_wire()
        assert broker.settle("worker-b", tid, payload=payload_b) == "ok"
        late = broker.settle("worker-a", tid, payload=payload_a)
        assert late == "duplicate"
        [final] = broker.results([tid])
        assert final.cached
        assert (dataclasses.asdict(final.result)
                == dataclasses.asdict(jr_a.result))

    def test_drain_flags_closing(self):
        broker = FleetBroker()
        assert not broker.closing
        broker.drain()
        assert broker.closing

    def test_unknown_task_raises(self):
        broker = FleetBroker()
        with pytest.raises(KeyError):
            broker.settle("w1", 99, error="x")
        with pytest.raises(KeyError):
            broker.task(99)

    def test_settle_requires_payload_or_error(self):
        broker = FleetBroker()
        (tid,) = broker.submit(make_specs(1))
        broker.lease("w1", 1)
        with pytest.raises(ValueError, match="payload or an error"):
            broker.settle("w1", tid)


class TestBrokerDeterminism:
    """Results are identical whatever the worker count or interleaving."""

    def simulate_fleet(self, n_workers, specs):
        broker = FleetBroker()
        ids = broker.submit(specs)
        workers = [f"w{i}" for i in range(n_workers)]
        # round-robin leasing: workers interleave differently per count
        while not broker.done(ids):
            for w in workers:
                for task in broker.lease(w, 1):
                    _, payload = run_and_wire(task.spec)
                    broker.settle(w, task.id, payload=payload)
        return broker.results(ids)

    def test_bit_identical_across_worker_counts(self):
        specs = make_specs(3)
        baseline = self.simulate_fleet(1, specs)
        for n in (2, 3):
            results = self.simulate_fleet(n, specs)
            assert ([dataclasses.asdict(r.result) for r in results]
                    == [dataclasses.asdict(r.result) for r in baseline])

    def test_matches_single_pool_sweep(self):
        specs = make_specs(2)
        fleet = self.simulate_fleet(2, specs)
        pool = SweepRunner(workers=1).run([s.build_job() for s in specs])
        assert ([dataclasses.asdict(r.result) for r in fleet]
                == [dataclasses.asdict(r.result) for r in pool])


# -- HTTP facade + real workers ------------------------------------------------

class BrokerHarness:
    """One BrokerApp on a daemon thread; synchronous client helpers."""

    def __init__(self, **broker_kwargs):
        self.app = BrokerApp(**broker_kwargs)
        self.loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        assert self._started.wait(10), "broker failed to start"

    def _run(self):
        asyncio.set_event_loop(self.loop)

        async def boot():
            await self.app.start(host="127.0.0.1", port=0)
            self._started.set()

        self.loop.run_until_complete(boot())
        self.loop.run_forever()
        self.loop.close()

    def stop(self):
        fut = asyncio.run_coroutine_threadsafe(self.app.shutdown(), self.loop)
        fut.result(timeout=10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        assert not self.thread.is_alive(), "broker thread failed to exit"

    @property
    def url(self):
        return f"http://127.0.0.1:{self.app.port}"

    def json(self, method, path, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.app.port,
                                          timeout=30)
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload)
        resp = conn.getresponse()
        data = resp.read()
        conn.close()
        return resp.status, json.loads(data) if data else {}


def run_on_fleet(url, specs, workers, progress=None):
    """Run ``specs`` through a :class:`FleetClient` while ``workers`` serve
    the broker on threads; drain and join them afterwards."""
    threads = [threading.Thread(target=w.run, daemon=True) for w in workers]
    for t in threads:
        t.start()
    client = FleetClient(url, job_timeout_s=120.0, poll_s=0.05)
    results = client.run(specs, progress=progress)
    client.drain()
    for t in threads:
        t.join(timeout=30)
    return results


@pytest.fixture
def broker_http(tmp_path):
    harness = BrokerHarness(cache=ResultCache(root=tmp_path / "cache"),
                            lease_s=30.0, retries=2)
    yield harness
    harness.stop()


class TestBrokerHttp:
    def test_health_and_submit_validation(self, broker_http):
        status, payload = broker_http.json("GET", "/healthz")
        assert status == 200 and payload["status"] == "ok"
        status, payload = broker_http.json("POST", "/tasks", {"specs": []})
        assert status == 400
        status, payload = broker_http.json(
            "POST", "/tasks", {"specs": [{"base": "nope"}]})
        assert status == 400 and "invalid task spec" in payload["error"]

    def test_lease_validation(self, broker_http):
        assert broker_http.json("POST", "/lease", {"worker": ""})[0] == 400
        assert broker_http.json("POST", "/lease",
                                {"worker": "w", "max": 0})[0] == 400

    def test_results_409_until_settled(self, broker_http):
        status, payload = broker_http.json(
            "POST", "/tasks", {"specs": [s.to_dict() for s in make_specs(1)]})
        assert status == 202
        ids = payload["ids"]
        status, _ = broker_http.json(
            "GET", f"/results?ids={ids[0]}")
        assert status == 409

    def test_results_follow_requested_id_order(self, broker_http):
        specs = make_specs(2)                   # task 1 mcf, task 2 stream-copy
        status, payload = broker_http.json(
            "POST", "/tasks", {"specs": [s.to_dict() for s in specs]})
        assert status == 202 and payload["ids"] == [1, 2]
        _, lease = broker_http.json("POST", "/lease",
                                    {"worker": "w", "max": 2})
        for ent in lease["tasks"]:
            _, wire = run_and_wire(TaskSpec.from_dict(ent["spec"]))
            status, _ = broker_http.json(
                "POST", "/settle", {"worker": "w", "id": ent["id"],
                                    "payload": wire})
            assert status == 200
        status, payload = broker_http.json("GET", "/results?ids=2,1")
        assert status == 200
        got = [(e["id"], e["spec"]["workload"], e["result"]["workload_name"])
               for e in payload["results"]]
        assert got == [(2, "stream-copy", "stream-copy"), (1, "mcf", "mcf")]

    def test_metrics_exposition(self, broker_http):
        broker_http.json("POST", "/tasks",
                         {"specs": [s.to_dict() for s in make_specs(1)]})
        conn = http.client.HTTPConnection("127.0.0.1", broker_http.app.port,
                                          timeout=30)
        conn.request("GET", "/metrics")
        resp = conn.getresponse()
        text = resp.read().decode()
        conn.close()
        assert resp.status == 200
        assert "repro_fleet_tasks_submitted_total 1" in text
        assert "repro_fleet_queue_depth 1" in text

    def test_two_workers_match_single_pool(self, broker_http, tmp_path):
        """The acceptance-criteria identity, at unit scale: a 2-worker
        fleet over HTTP produces results bit-identical to one pool."""
        specs = make_specs(2)
        workers = [FleetWorker(broker_http.url, worker_id=f"w{i}",
                               poll_s=0.05) for i in range(2)]
        fleet = run_on_fleet(broker_http.url, specs, workers)
        pool = SweepRunner(workers=1, cache=ResultCache(
            root=tmp_path / "pool-cache")).run([s.build_job() for s in specs])
        assert ([dataclasses.asdict(r.result) for r in fleet]
                == [dataclasses.asdict(r.result) for r in pool])

    def test_client_progress_sees_every_settle(self, broker_http):
        seen = []
        worker = FleetWorker(broker_http.url, worker_id="wp", poll_s=0.05)
        specs = make_specs(2)
        results = run_on_fleet(
            broker_http.url, specs, [worker],
            progress=lambda done, total, jr: seen.append(
                (done, total, jr.job.workload)))
        assert [(d, t) for d, t, _ in seen] == [(1, 2), (2, 2)]
        assert ({w for _, _, w in seen}
                == {r.job.workload for r in results}
                == {s.workload for s in specs})

    def test_client_deadline_fails_unsettled_tasks(self, broker_http):
        # No worker ever leases: past the per-job deadline the task comes
        # back failed with a timeout, as a pool job past its deadline does.
        client = FleetClient(broker_http.url, job_timeout_s=0.3,
                             poll_s=0.05)
        [jr] = client.run(make_specs(1))
        assert jr.result is None and jr.error == "timeout after 0.3s"

    def test_worker_cache_hit_settles_without_simulating(self, broker_http,
                                                         tmp_path):
        spec = make_specs(1)[0]
        shared = ResultCache(root=tmp_path / "shared")
        jr, _ = run_and_wire(spec)
        shared.put(jr.job.config, jr.job.workload, jr.job.ops, jr.job.seed,
                   jr.result)
        worker = FleetWorker(broker_http.url, worker_id="wc", cache=shared,
                             poll_s=0.05)
        [result] = run_on_fleet(broker_http.url, [spec], [worker])
        assert worker.tasks_cached == 1 and worker.tasks_run == 0
        assert result.cached
        assert (dataclasses.asdict(result.result)
                == dataclasses.asdict(jr.result))

    def test_worker_with_own_cache_fills_broker_cache(self, broker_http,
                                                      tmp_path):
        # Broker and worker keep separate cache directories: the broker
        # still stores each settled result, so a resubmission settles at
        # submit instead of being leased again.
        specs = make_specs(2)
        worker = FleetWorker(broker_http.url, worker_id="wb", poll_s=0.05,
                             cache=ResultCache(root=tmp_path / "worker"))
        run_on_fleet(broker_http.url, specs, [worker])
        assert worker.tasks_run == 2
        cache = broker_http.app.broker.cache
        for job in (s.build_job() for s in specs):
            assert cache.get(job.config, job.workload, job.ops,
                             job.seed) is not None
        status, payload = broker_http.json(
            "POST", "/tasks", {"specs": [specs[0].to_dict()]})
        assert status == 202
        _, tasks = broker_http.json("GET", "/tasks")
        [task] = [t for t in tasks["tasks"] if t["id"] == payload["ids"][0]]
        assert task["state"] == "done"

    def test_trace_id_propagates_broker_to_settle(self):
        """Unit leg of distributed tracing: a traced spec's trace id
        survives submit -> lease -> simulate -> settle -> results, and
        the settled result's span payload carries it."""
        broker = FleetBroker(now_fn=Clock())
        specs = expand_specs(["ddr-baseline"], ["mcf"], ops=OPS,
                             tracing="on", trace_id="feedface" * 4)
        ids = broker.submit(specs)
        [task] = broker.lease("w1", max_tasks=1)
        assert task.spec.tracing == "on"
        assert task.spec.trace_id == "feedface" * 4
        _, payload = run_and_wire(task.spec)
        assert broker.settle("w1", task.id, payload=payload) == "ok"
        [result] = broker.results(ids)
        trace = result.result.extras["trace"]
        assert trace["trace_id"] == "feedface" * 4
        assert trace["attribution"]["n"] > 0

    def test_worker_exports_perfetto_trace(self, broker_http, tmp_path,
                                           capsys):
        """Real-worker leg: a worker with --trace-dir exports one
        Perfetto file per traced task, named by trace id, and
        `repro trace view` recovers the id from the file."""
        from repro.cli import main as cli_main
        from repro.tracing import load_trace

        trace_dir = tmp_path / "traces"
        tid = "a" * 32
        specs = expand_specs(["ddr-baseline"], ["mcf"], ops=OPS,
                             tracing="on", trace_id=tid)
        worker = FleetWorker(broker_http.url, worker_id="wt", poll_s=0.05,
                             trace_dir=trace_dir)
        run_on_fleet(broker_http.url, specs, [worker])
        # The broker is fresh, so the grid's one task is task 1.
        path = trace_dir / f"trace-{tid}-task1.json"
        assert path.exists(), list(trace_dir.glob("*"))
        assert load_trace(path)["trace_id"] == tid
        assert cli_main(["trace", "view", str(path)]) == 0
        assert tid in capsys.readouterr().out

    def test_worker_skips_export_for_untraced_tasks(self, broker_http,
                                                    tmp_path):
        trace_dir = tmp_path / "traces"
        worker = FleetWorker(broker_http.url, worker_id="wu", poll_s=0.05,
                             trace_dir=trace_dir)
        run_on_fleet(broker_http.url, make_specs(1), [worker])
        assert not list(trace_dir.glob("*.json"))

    def test_worker_settles_a_simulation_error(self, monkeypatch):
        # A RuntimeError from the simulation (a strict-mode InvariantError
        # is one) is the task's error: each lease settles it at once, and
        # the broker's attempt budget fails the task with that message.
        # No lease expires, so this takes well under the 60 s lease.
        def fail(job):
            raise RuntimeError("measurement did not drain within 5e8 ns")

        monkeypatch.setattr(runner, "_simulate_job", fail)
        harness = BrokerHarness(lease_s=60.0, retries=2)
        try:
            t0 = time.monotonic()
            harness.json("POST", "/tasks",
                         {"specs": [s.to_dict() for s in make_specs(1)]})
            harness.json("POST", "/drain", {})
            worker = FleetWorker(harness.url, worker_id="wf", poll_s=0.05)
            assert worker.run() == 0
            _, payload = harness.json("GET", "/tasks")
            (task,) = payload["tasks"]
            assert time.monotonic() - t0 < 30.0
        finally:
            harness.stop()
        assert task["state"] == "failed"
        assert task["error"] == ("RuntimeError: measurement did not drain "
                                 "within 5e8 ns")
        assert (task["attempts"], task["settles"], task["requeues"]) == (3, 3, 2)
        assert worker.tasks_failed == 3

    def test_client_error_reporting(self, broker_http):
        client = FleetClient(broker_http.url)
        with pytest.raises(FleetError, match="-> 400"):
            client.submit([])
        dead = FleetClient("http://127.0.0.1:9")      # discard port; closed
        with pytest.raises(FleetError, match="unreachable"):
            dead.health()


# -- campaign driver -----------------------------------------------------------

class FakeExecutor:
    """Deterministic fake results keyed by (overrides, workload).

    ``metric_fn(overrides, workload) -> dict`` of SimResult field
    overrides, or an error string to fail that job; the base result comes
    from one real tiny simulation so every other field is plausible. Fake
    search knobs never have to be real config fields because jobs are
    materialized from the base alone.
    """

    _template = None

    def __init__(self, metric_fn):
        self.metric_fn = metric_fn
        self.calls = []

    def run(self, specs, progress=None):
        if FakeExecutor._template is None:
            jr, _ = run_and_wire(TaskSpec(workload="mcf", ops=50))
            FakeExecutor._template = jr.result
        self.calls.append([s.label() for s in specs])
        out = []
        for s in specs:
            job = TaskSpec(base=s.base, workload=s.workload, ops=s.ops,
                           seed=s.seed).build_job()
            metrics = self.metric_fn(s.overrides, s.workload)
            if isinstance(metrics, str):
                out.append(JobResult(job=job, result=None, attempts=1,
                                     error=metrics))
                continue
            fake = dataclasses.replace(FakeExecutor._template, **metrics)
            out.append(JobResult(job=job, result=fake, wall_s=0.01,
                                 events=1, attempts=1))
        return out


class TestCampaign:
    def test_parse_search(self):
        cands = parse_search("a=1,2;b=x,0.5")
        assert [c.overrides for c in cands] == [
            {"a": 1, "b": "x"}, {"a": 1, "b": 0.5},
            {"a": 2, "b": "x"}, {"a": 2, "b": 0.5}]

    @pytest.mark.parametrize("bad", ["", "a=", "=1", "a"])
    def test_parse_search_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_search(bad)

    def test_halving_keeps_best_and_grows_budget(self):
        # score = the knob value; objective ipc keeps the largest
        ex = FakeExecutor(lambda ov, w: {"ipc": float(ov["k"])})
        cands = [Candidate("ddr-baseline", {"k": k}) for k in (1, 2, 3, 4)]
        res = Campaign(ex, cands, ["mcf"], objective="ipc", ops0=100,
                       eta=2, max_rungs=3).run()
        assert res.winner.overrides == {"k": 4}
        assert [len(call) for call in ex.calls] == [4, 2]   # 4 -> 2 -> winner
        assert [r["ops"] for r in res.rungs] == [100, 200]
        kept0 = [c["label"] for c in res.rungs[0]["candidates"] if c["kept"]]
        assert kept0 == ["ddr-baseline[k=4]", "ddr-baseline[k=3]"]

    def test_miss_latency_minimizes(self):
        ex = FakeExecutor(
            lambda ov, w: {"avg_miss_latency": float(ov["ports"]) * 100.0})
        cands = [Candidate("ddr-baseline", {"ports": p}) for p in (2, 4)]
        res = Campaign(ex, cands, ["mcf"], objective="miss_latency",
                       ops0=50, eta=2, max_rungs=1).run()
        assert res.winner.overrides == {"ports": 2}

    def test_ties_break_by_label(self):
        ex = FakeExecutor(lambda ov, w: {"ipc": 1.0})
        cands = [Candidate("ddr-baseline", {"k": k}) for k in (3, 1, 2)]
        res = Campaign(ex, cands, ["mcf"], objective="ipc", ops0=50,
                       eta=3, max_rungs=1).run()
        assert res.winner.overrides == {"k": 1}

    def test_speedup_baseline_rides_along(self):
        ex = FakeExecutor(
            lambda ov, w: {"ipc": 2.0 if ov.get("k") == "fast" else 1.0})
        cands = [Candidate("ddr-baseline", {"k": k})
                 for k in ("fast", "slow")]
        res = Campaign(ex, cands, ["mcf"], objective="speedup", ops0=50,
                       eta=2, max_rungs=1).run()
        assert res.winner.overrides == {"k": "fast"}
        assert res.winner_score == pytest.approx(2.0)
        # the unmodified baseline ran alongside the two candidates
        assert len(ex.calls[0]) == 3

    def test_all_failed_candidate_loses(self):
        class Failing:
            def run(self, specs, progress=None):
                out = []
                for s in specs:
                    job = TaskSpec(base=s.base, workload=s.workload,
                                   ops=s.ops, seed=s.seed).build_job()
                    if s.overrides.get("k") == "bad":
                        out.append(JobResult(job=job, result=None,
                                             error="boom"))
                    else:
                        jr, _ = run_and_wire(
                            TaskSpec(base=s.base, workload=s.workload,
                                     ops=s.ops, seed=s.seed))
                        out.append(jr)
                return out

        cands = [Candidate("ddr-baseline", {"k": k}) for k in ("bad", "ok")]
        res = Campaign(Failing(), cands, ["mcf"], objective="ipc", ops0=OPS,
                       eta=2, max_rungs=1).run()
        assert res.winner.overrides == {"k": "ok"}
        bad = [c for c in res.rungs[0]["candidates"]
               if c["label"] == "ddr-baseline[k=bad]"]
        assert bad[0]["score"] is None and not bad[0]["kept"]

    @pytest.mark.parametrize("objective", ["ipc", "miss_latency", "speedup"])
    def test_every_candidate_failing_names_first_error(self, objective):
        # No winner when nothing scored: the campaign raises with the
        # first job error instead of crowning an ipc=-inf candidate.
        ex = FakeExecutor(lambda ov, w: f"boom {ov.get('k')}/{w}")
        cands = [Candidate("ddr-baseline", {"k": k}) for k in ("a", "b")]
        with pytest.raises(CampaignFailed,
                           match="every candidate failed; first error: "
                                 "boom a/mcf"):
            Campaign(ex, cands, ["mcf", "gcc"], objective=objective,
                     ops0=50, eta=2, max_rungs=2).run()

    def test_validates_inputs(self):
        ex = FakeExecutor(lambda ov, w: {"ipc": 1.0})
        with pytest.raises(ValueError, match="objective"):
            Campaign(ex, [Candidate("ddr-baseline")], ["mcf"],
                     objective="nope")
        with pytest.raises(ValueError, match="candidate"):
            Campaign(ex, [], ["mcf"])
        with pytest.raises(ValueError, match="eta"):
            Campaign(ex, [Candidate("ddr-baseline")], ["mcf"], eta=1)

    def test_end_to_end_on_local_executor(self, tmp_path):
        ex = LocalExecutor(workers=1,
                           cache=ResultCache(root=tmp_path / "cache"))
        cands = [Candidate("coaxial-4x", {"cxl": name})
                 for name in ("x8", "asym")]
        res = Campaign(ex, cands, ["mcf"], objective="ipc", ops0=OPS,
                       eta=2, max_rungs=2).run()
        assert res.winner.overrides["cxl"] in ("x8", "asym")
        assert res.total_jobs == 2              # one rung settles the search
        assert not math.isinf(res.winner_score)
