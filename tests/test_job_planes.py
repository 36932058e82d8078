"""The cross-plane harness: one spec list through every job plane.

The same five specs, the first one twice, run on three backends:

* :class:`~repro.exec.runner.LocalExecutor`, the reference;
* ``POST /jobs`` on an in-process ``ServeApp(pool_workers=1)``;
* a :class:`~repro.fleet.BrokerApp` with two in-process
  :class:`~repro.fleet.FleetWorker`\\ s, read through
  :class:`~repro.fleet.FleetClient` and through ``GET /results`` with the
  ids asked for in forward and in reversed order.

Each backend runs the list twice on fresh cache directories. The fleet's
caches are laid out ``none`` (no cache anywhere), ``shared`` (broker and
workers share one directory), ``private`` (broker and each worker have
their own) or ``broker-only``; serve and the local executor have one
cache, on or off. Every backend must return the reference's
``dataclasses.asdict(result)`` and ``JobResult.to_wire()`` record apart
from ``wall_s``, settle each task exactly once, and answer the second run
from its cache wherever a cache holds the first run's results.

The two copies of the first spec are the fleet's first two tasks, and
the first two simulations start together, so each worker runs one copy
and neither finds the other in a worker cache. That hit would be a
correct answer, but with ``cached: true`` where the local executor, whose
cache pass precedes every run, says ``false``; without the gate thread
timing would pick which record the fleet returns.
"""

import asyncio
import dataclasses
import http.client
import itertools
import json
import threading

import pytest

from repro.exec import runner
from repro.exec.cache import ResultCache
from repro.exec.runner import JobResult, LocalExecutor
from repro.exec.spec import expand_specs
from repro.fleet import BrokerApp, FleetClient, FleetWorker
from repro.serve import ServeApp

CONFIGS = ["coaxial-4x", "coaxial-4x", "ddr-baseline", "cxl-ssd",
           "tiered-epoch"]
WORKLOADS = ["mcf"]
OPS = 200
SPECS = expand_specs(CONFIGS, WORKLOADS, ops=OPS)
LABELS = [s.build_job().label() for s in SPECS]
LAYOUTS = ("none", "shared", "private", "broker-only")


def wire(rec):
    """A ``to_wire`` record (or a ``JobResult``) without ``wall_s``."""
    if isinstance(rec, JobResult):
        rec = rec.to_wire()
    keys = JobResult(job=None, result=None).to_wire().keys() - {"wall_s"}
    return {k: rec[k] for k in keys}


class AppThread:
    """One job-plane app on a background event loop, with a JSON client."""

    def __init__(self, app):
        self.app = app
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def run():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(app.start(host="127.0.0.1", port=0))
            started.set()
            self.loop.run_forever()
            self.loop.close()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        assert started.wait(10), "app failed to start"

    @property
    def url(self):
        return f"http://127.0.0.1:{self.app.port}"

    def request(self, method, path, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.app.port,
                                          timeout=60)
        try:
            conn.request(method, path, body=None if body is None
                         else json.dumps(body).encode())
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def json(self, method, path, body=None):
        status, data = self.request(method, path, body)
        return status, json.loads(data)

    def stop(self, shutdown):
        asyncio.run_coroutine_threadsafe(shutdown(), self.loop).result(30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        assert not self.thread.is_alive(), "app thread failed to exit"


def start_together(simulate):
    """``simulate``, its first two calls held until both have begun."""
    gate = threading.Barrier(2)
    calls = itertools.count()

    def first_two_at_once(job):
        if next(calls) < 2:
            gate.wait(timeout=60)
        return simulate(job)

    return first_two_at_once


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The local executor's records: ``{cache on?: (first, again)}``."""
    out = {}
    for cached in (False, True):
        cache = (ResultCache(root=tmp_path_factory.mktemp("local"))
                 if cached else None)
        ex = LocalExecutor(workers=1, cache=cache)
        runs = []
        for _ in range(2):
            ticks = []
            results = ex.run(SPECS, progress=lambda d, t, jr: ticks.append(d))
            assert ticks == list(range(1, len(SPECS) + 1))
            assert [r.job.label() for r in results] == LABELS
            runs.append(results)
        out[cached] = runs
    fresh, again = out[True]
    assert not any(r.cached for r in fresh)
    assert all(r.cached for r in again)       # the cache holds every result
    assert not any(r.cached for r in out[False][1])
    return {k: tuple([wire(r) for r in run] for run in runs)
            for k, runs in out.items()} | {"asdict": [
                dataclasses.asdict(r.result) for r in out[False][0]]}


def check_results(records, reference, cached, again):
    """A run's wire records against the local executor's."""
    assert [r["result"] for r in records] == reference["asdict"]
    assert [wire(r) for r in records] == reference[cached][1 if again else 0]


# -- serve ---------------------------------------------------------------------

def serve_run(srv):
    """One ``POST /jobs`` of the spec list: its result's task records."""
    status, body = srv.json("POST", "/jobs", {
        "configs": CONFIGS, "workloads": WORKLOADS, "ops": OPS})
    assert status == 202, body
    job_id = body["job"]["id"]
    status, data = srv.request("GET", f"/jobs/{job_id}/events")
    assert status == 200
    events = [json.loads(line) for line in data.splitlines()]
    status, body = srv.json("GET", f"/jobs/{job_id}/result")
    assert status == 200 and body["job"]["state"] == "done", body
    # Every task settles exactly once: one task event each.
    ticks = [e for e in events if e["event"] == "task"]
    assert sorted(e["label"] for e in ticks) == sorted(LABELS)
    assert [e["done"] for e in ticks] == list(range(1, len(SPECS) + 1))
    tasks = body["job"]["tasks"]
    assert [t["label"] for t in tasks] == LABELS
    return tasks


@pytest.mark.parametrize("cached", [False, True], ids=["none", "cache"])
def test_serve_matches_local(reference, cached, tmp_path):
    srv = AppThread(ServeApp(pool_workers=1, cache=ResultCache(
        root=tmp_path / "serve") if cached else None))
    try:
        first, again = serve_run(srv), serve_run(srv)
    finally:
        srv.stop(lambda: srv.app.shutdown(10.0))
    check_results(first, reference, cached, again=False)
    check_results(again, reference, cached, again=True)


# -- fleet ---------------------------------------------------------------------

def layout_caches(layout, tmp_path):
    """``(broker cache, [worker caches])`` of one fleet cache layout."""
    def cache(name):
        return ResultCache(root=tmp_path / name)

    if layout == "none":
        return None, [None, None]
    if layout == "shared":
        return cache("shared"), [cache("shared"), cache("shared")]
    if layout == "private":
        return cache("broker"), [cache("w0"), cache("w1")]
    return cache("broker"), [None, None]


def fleet_run(brk, client):
    """Run the spec list on the fleet; returns its ids, results and the
    tasks' lifecycle summaries."""
    ticks = []
    results = client.run(SPECS, progress=lambda d, t, jr: ticks.append(d))
    assert ticks == list(range(1, len(SPECS) + 1))  # one call per spec
    assert [r.job.label() for r in results] == LABELS
    _, body = brk.json("GET", "/tasks")
    tasks = body["tasks"][-len(SPECS):]
    ids = [t["id"] for t in tasks]
    for order in (ids, ids[::-1]):
        status, body = brk.json(
            "GET", "/results?ids=" + ",".join(map(str, order)))
        assert status == 200
        got = body["results"]
        assert [e["id"] for e in got] == order
        for e in got:
            i = ids.index(e["id"])
            assert e["spec"] == SPECS[i].to_dict()
            assert wire(e) == wire(results[i])
    return [r.to_wire() for r in results], tasks


@pytest.mark.parametrize("layout", LAYOUTS)
def test_fleet_matches_local(reference, layout, tmp_path, monkeypatch):
    broker_cache, worker_caches = layout_caches(layout, tmp_path)
    brk = AppThread(BrokerApp(cache=broker_cache, lease_s=30.0, retries=2))
    workers = [FleetWorker(brk.url, worker_id=f"w{i}", cache=c, poll_s=0.02,
                           oneshot=False)
               for i, c in enumerate(worker_caches)]
    threads = [threading.Thread(target=w.run, daemon=True) for w in workers]
    client = FleetClient(brk.url, job_timeout_s=120.0, poll_s=0.02)
    try:
        for t in threads:
            t.start()
        with monkeypatch.context() as m:
            m.setattr(runner, "_simulate_job",
                      start_together(runner._simulate_job))
            first, first_tasks = fleet_run(brk, client)
        again, again_tasks = fleet_run(brk, client)
    finally:
        for w in workers:
            w.stop()
        for t in threads:
            t.join(30)
        brk.stop(brk.app.shutdown)
    cached = broker_cache is not None
    check_results(first, reference, cached, again=False)
    check_results(again, reference, cached, again=True)
    # Every leased task settled exactly once, on its first lease; with a
    # broker cache the resubmission settled at submit, never leased.
    for t in first_tasks + (again_tasks if not cached else []):
        assert (t["state"], t["settles"], t["attempts"]) == ("done", 1, 1), t
    for t in again_tasks if cached else []:
        assert (t["state"], t["settles"], t["attempts"]) == ("done", 0, 0), t
    assert {t["worker"] for t in first_tasks} == {"w0", "w1"}
