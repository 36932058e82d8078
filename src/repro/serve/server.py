"""The ``repro serve`` application: routes, wiring, and the run loop.

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

import asyncio
import json
import signal
import sys
import time
from pathlib import Path
from typing import AsyncIterator, Optional

from repro.exec.cache import ResultCache, disk_cache_enabled
from repro.serve.http import (
    HttpError, Request, Response, Router, serve_connection,
)
from repro.serve.jobs import (
    TERMINAL_STATES, BadRequest, Job, JobStore, parse_job_request,
)
from repro.serve.metrics import ServerMetrics
from repro.serve.scheduler import QuotaExceeded, Scheduler

__all__ = ["ServeApp", "run_server"]


class ServeApp:
    """One server instance: store + scheduler + metrics behind a router."""

    def __init__(self, pool_workers: int = 2,
                 job_timeout_s: Optional[float] = None,
                 retries: int = 1,
                 max_active: int = 1,
                 max_queue: int = 256,
                 tenant_max_jobs: int = 8,
                 cache: Optional[ResultCache] = None):
        self.store = JobStore()
        self.metrics = ServerMetrics()
        self.cache = cache
        self.scheduler = Scheduler(
            self.store, self.metrics, cache=cache,
            pool_workers=pool_workers, job_timeout_s=job_timeout_s,
            retries=retries, max_active=max_active, max_queue=max_queue,
            tenant_max_jobs=tenant_max_jobs)
        self.router = Router()
        r = self.router
        r.add("GET", "/healthz", self.handle_health)
        r.add("GET", "/metrics", self.handle_metrics)
        r.add("POST", "/jobs", self.handle_submit)
        r.add("GET", "/jobs", self.handle_list)
        r.add("GET", "/jobs/{job_id}", self.handle_status)
        r.add("GET", "/jobs/{job_id}/result", self.handle_result)
        r.add("GET", "/jobs/{job_id}/events", self.handle_events)
        r.add("DELETE", "/jobs/{job_id}", self.handle_cancel)
        self._server: Optional[asyncio.base_events.Server] = None

    # -- lifecycle -------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> asyncio.base_events.Server:
        """Start the scheduler and bind the listening socket."""
        self.scheduler.start()
        self._server = await asyncio.start_server(
            self._on_connection, host=host, port=port)
        return self._server

    @property
    def port(self) -> int:
        assert self._server is not None, "start() first"
        return self._server.sockets[0].getsockname()[1]

    async def shutdown(self, drain_s: float = 30.0) -> dict:
        """Close the listener, drain the scheduler; returns drain stats."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        return await self.scheduler.shutdown(drain_s)

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        await serve_connection(
            self.router, reader, writer,
            on_request=lambda req, resp: self.metrics.observe_http(
                resp.status))

    # -- handlers --------------------------------------------------------------
    async def handle_health(self, req: Request) -> Response:
        return Response.json({
            "status": "ok",
            "uptime_s": time.time() - self.metrics.started_at,
            "queued": int(self.metrics.queue_depth.value),
            "active": int(self.metrics.active_jobs.value),
            "jobs_known": len(self.store.jobs()),
        })

    async def handle_metrics(self, req: Request) -> Response:
        return Response.text(self.metrics.render(self.cache),
                             content_type="text/plain; version=0.0.4; "
                                          "charset=utf-8")

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
               max_active: int, max_queue: int, tenant_max_jobs: int,
               no_cache: bool = False, cache_dir: Optional[str] = None,
               drain_s: float = 30.0) -> int:
    """Blocking entry point for ``repro serve`` (returns an exit code)."""
    cache = ResultCache(
        root=Path(cache_dir) if cache_dir else None,
        enabled=not no_cache and disk_cache_enabled())
    app = ServeApp(pool_workers=pool_workers, job_timeout_s=job_timeout_s,
                   retries=retries, max_active=max_active,
                   max_queue=max_queue, tenant_max_jobs=tenant_max_jobs,
                   cache=cache if cache.enabled else None)

    async def main() -> int:
        await app.start(host=host, port=port)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        print(f"repro serve: listening on http://{host}:{app.port} "
              f"(pool_workers={pool_workers}, max_active={max_active}, "
              f"job_timeout={job_timeout_s}, cache="
              f"{'off' if not cache.enabled else cache.root})",
              flush=True)
        await stop.wait()
        print("repro serve: shutting down ...", flush=True)
        stats = await app.shutdown(drain_s)
        print(f"repro serve: drained (cancelled {stats['cancelled']} queued, "
              f"abandoned {stats['abandoned']} active)", flush=True)
        return 0

    try:
        return asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        return 0


def main(argv=None) -> int:  # pragma: no cover - thin CLI shim
    """Allow ``python -m repro.serve.server`` for debugging."""
    from repro.cli import main as cli_main
    return cli_main(["serve"] + list(argv or sys.argv[1:]))
