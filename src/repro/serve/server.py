"""The ``repro serve`` application: routes and wiring on the shared shell.

Endpoints (all JSON unless noted)::

    GET    /healthz            liveness + queue/active summary
    GET    /metrics            Prometheus text exposition (scrape me)
    POST   /jobs               submit a sweep job; 202 with the job summary
    GET    /jobs               all known jobs (newest last)
    GET    /jobs/{id}          one job's status summary
    GET    /jobs/{id}/result   full per-task results (409 until terminal)
    GET    /jobs/{id}/events   JSONL progress stream (chunked; replays the
                               event log, then tails until the job ends)
    DELETE /jobs/{id}          cancel a queued job (409 if running)

Submission body: ``{"configs": [...], "workloads": [...], "ops": N,
"seeds": [...], "priority": P, "tenant": "...", "validate": ...,
"tracing": ...}`` — the same vocabulary as ``repro sweep`` flags. The
tenant may also ride in an ``X-Tenant`` header; an explicit body field
wins.
"""

from __future__ import annotations

import json
import time
from typing import AsyncIterator, Optional

from repro.exec.cache import ResultCache, cache_from_flags
from repro.serve.http import App, HttpError, Request, Response, run_app
from repro.serve.jobs import (
    TERMINAL_STATES, BadRequest, Job, JobStore, parse_job_request,
)
from repro.serve.metrics import ServerMetrics
from repro.serve.scheduler import QuotaExceeded, Scheduler

__all__ = ["ServeApp", "run_server"]


class ServeApp(App):
    """One server instance: store + scheduler + metrics behind a router."""

    def __init__(self, pool_workers: int = 2,
                 job_timeout_s: Optional[float] = None,
                 retries: int = 1,
                 max_queue: int = 256,
                 tenant_max_jobs: int = 8,
                 cache: Optional[ResultCache] = None):
        super().__init__(ServerMetrics(), cache)
        self.store = JobStore()
        self.scheduler = Scheduler(
            self.store, self.metrics, cache=cache,
            pool_workers=pool_workers, job_timeout_s=job_timeout_s,
            retries=retries, max_queue=max_queue,
            tenant_max_jobs=tenant_max_jobs)
        r = self.router
        r.add("GET", "/healthz", self.handle_health)
        r.add("POST", "/jobs", self.handle_submit)
        r.add("GET", "/jobs", self.handle_list)
        r.add("GET", "/jobs/{job_id}", self.handle_status)
        r.add("GET", "/jobs/{job_id}/result", self.handle_result)
        r.add("GET", "/jobs/{job_id}/events", self.handle_events)
        r.add("DELETE", "/jobs/{job_id}", self.handle_cancel)

    # -- lifecycle -------------------------------------------------------------
    async def shutdown(self, drain_s: float = 30.0) -> dict:
        """Close the listener, drain the scheduler; returns drain stats."""
        await self.close()
        return await self.scheduler.shutdown(drain_s)

    def on_request(self, req: Request, resp: Response) -> None:
        self.metrics.observe_http(resp.status)

    # -- handlers --------------------------------------------------------------
    async def handle_health(self, req: Request) -> Response:
        return Response.json({
            "status": "ok",
            "uptime_s": time.time() - self.metrics.started_at,
            "queued": int(self.metrics.queue_depth.value),
            "active": int(self.metrics.active_jobs.value),
            "jobs_known": len(self.store.jobs()),
        })

    async def handle_submit(self, req: Request) -> Response:
        try:
            parsed = parse_job_request(
                req.json(), default_tenant=req.headers.get("x-tenant",
                                                           "default"))
        except BadRequest as e:
            self.metrics.jobs_rejected.inc()
            raise HttpError(400, str(e)) from None
        try:
            job = self.scheduler.submit(parsed)
        except QuotaExceeded as e:
            self.metrics.jobs_rejected.inc()
            raise HttpError(429, str(e)) from None
        return Response.json({"job": job.summary()}, status=202)

    async def handle_list(self, req: Request) -> Response:
        state = req.first("state")
        jobs = [j.summary() for j in self.store.jobs()
                if state is None or j.state == state]
        return Response.json({"jobs": jobs})

    def _job(self, req: Request) -> Job:
        job = self.store.get(req.params["job_id"])
        if job is None:
            raise HttpError(404, f"unknown job {req.params['job_id']!r}")
        return job

    async def handle_status(self, req: Request) -> Response:
        return Response.json({"job": self._job(req).summary()})

    async def handle_result(self, req: Request) -> Response:
        job = self._job(req)
        if job.state not in TERMINAL_STATES:
            raise HttpError(409, f"job {job.id} is {job.state}; results are "
                                 f"available once it finishes")
        return Response.json({"job": job.result_payload()})

    async def handle_events(self, req: Request) -> Response:
        job = self._job(req)
        return Response(stream=self._event_stream(job),
                        content_type="application/x-ndjson")

    async def _event_stream(self, job: Job) -> AsyncIterator[bytes]:
        cursor = 0
        while True:
            # Capture before draining: everything here runs on the loop
            # thread, so an event appended while a chunk is being written
            # either extends the drain or sets this captured Event.
            changed = job.changed
            while cursor < len(job.events):
                yield (json.dumps(job.events[cursor], sort_keys=True)
                       + "\n").encode("utf-8")
                cursor += 1
            if job.state in TERMINAL_STATES:
                return
            await changed.wait()

    async def handle_cancel(self, req: Request) -> Response:
        job = self._job(req)
        if job.state in TERMINAL_STATES:
            return Response.json({"job": job.summary(), "cancelled": False})
        if not self.scheduler.cancel(job):
            raise HttpError(409, f"job {job.id} is {job.state}; only queued "
                                 f"jobs can be cancelled")
        return Response.json({"job": job.summary(), "cancelled": True})


def run_server(host: str, port: int, pool_workers: int,
               job_timeout_s: Optional[float], retries: int,
               max_queue: int, tenant_max_jobs: int,
               no_cache: bool = False, cache_dir: Optional[str] = None,
               drain_s: float = 30.0) -> int:
    """Blocking entry point for ``repro serve`` (returns an exit code)."""
    cache = cache_from_flags(cache_dir, no_cache)
    app = ServeApp(pool_workers=pool_workers, job_timeout_s=job_timeout_s,
                   retries=retries, max_queue=max_queue,
                   tenant_max_jobs=tenant_max_jobs, cache=cache)

    def banner() -> str:
        return (f"repro serve: listening on http://{host}:{app.port} "
                f"(pool_workers={pool_workers}, "
                f"job_timeout={job_timeout_s}, cache="
                f"{cache.root if cache else 'off'})")

    async def stop() -> None:
        print("repro serve: shutting down ...", flush=True)
        stats = await app.shutdown(drain_s)
        print(f"repro serve: drained (cancelled {stats['cancelled']} queued, "
              f"abandoned {stats['abandoned']} active)", flush=True)

    return run_app(app, host, port, banner, stop)
