"""The fleet broker: the shared task broker served over HTTP.

:class:`BrokerApp` puts one :class:`~repro.serve.broker.FleetBroker` —
the state machine ``repro serve`` also runs on, re-exported here —
behind the :class:`repro.serve.http.App` shell for remote workers;
``run_broker`` is the blocking ``repro fleet broker`` entry point.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from repro.exec.cache import cache_from_flags
from repro.exec.spec import SpecError, TaskSpec
from repro.serve.broker import FleetBroker, Task
from repro.serve.http import App, HttpError, Request, Response, run_app
from repro.serve.metrics import BrokerMetrics

__all__ = ["BrokerApp", "BrokerMetrics", "FleetBroker", "Task", "run_broker"]


class BrokerApp(App):
    """HTTP front of one :class:`FleetBroker` (see ``docs/fleet.md``).

    Endpoints (all JSON)::

        GET  /healthz      liveness + task/worker counts
        GET  /metrics      Prometheus text exposition
        POST /tasks        {"specs": [...]} -> {"ids": [...]}; 400 names
                           the first invalid spec field, queuing nothing
        GET  /tasks        every task's lifecycle summary
        POST /lease        {"worker", "max"} -> {"tasks", "lease_s", "closing"}
        POST /renew        {"worker", "ids"} -> {"renewed"}
        POST /settle       {"worker", "id", "payload"| "error"} -> {"status"}
        GET  /results?ids= full wire results (409 until the ids settle)
        POST /drain        flag workers to exit once the queue is dry
    """

    def __init__(self, broker: Optional[FleetBroker] = None, **broker_kwargs):
        self.broker = broker if broker is not None else FleetBroker(**broker_kwargs)
        super().__init__(self.broker.metrics, self.broker.cache)
        r = self.router
        r.add("GET", "/healthz", self.handle_health)
        r.add("POST", "/tasks", self.handle_submit)
        r.add("GET", "/tasks", self.handle_tasks)
        r.add("POST", "/lease", self.handle_lease)
        r.add("POST", "/renew", self.handle_renew)
        r.add("POST", "/settle", self.handle_settle)
        r.add("GET", "/results", self.handle_results)
        r.add("POST", "/drain", self.handle_drain)
        self._expiry_task: Optional[asyncio.Task] = None

    # -- lifecycle -------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0):
        """Bind the listening socket, then start the lease-expiry loop."""
        server = await super().start(host, port)
        self._expiry_task = asyncio.get_running_loop().create_task(
            self._expiry_loop(), name="repro-fleet-expiry")
        return server

    async def shutdown(self) -> None:
        """Stop the lease-expiry loop, then close the listener."""
        if self._expiry_task is not None:
            self._expiry_task.cancel()
            try:
                await self._expiry_task
            except asyncio.CancelledError:
                pass
        await self.close()

    async def _expiry_loop(self) -> None:
        """Requeue expired leases even while no worker is calling in."""
        tick = max(0.05, min(1.0, self.broker.lease_s / 4.0))
        while True:
            await asyncio.sleep(tick)
            self.broker.expire()

    # -- handlers --------------------------------------------------------------
    async def handle_health(self, req: Request) -> Response:
        return Response.json({"status": "ok", "closing": self.broker.closing,
                              **self.broker.counts()})

    async def handle_submit(self, req: Request) -> Response:
        body = req.json()
        raw = body.get("specs")
        if not isinstance(raw, list) or not raw:
            raise HttpError(400, "'specs' must be a non-empty list")
        try:
            ids = self.broker.submit([TaskSpec.from_dict(d) for d in raw])
        except SpecError as e:
            raise HttpError(400, f"invalid task spec: {e}") from None
        return Response.json({"ids": ids}, status=202)

    async def handle_tasks(self, req: Request) -> Response:
        tasks = [self.broker.task(t).summary()
                 for t in sorted(self.broker._tasks)]
        return Response.json({"tasks": tasks, **self.broker.counts()})

    async def handle_lease(self, req: Request) -> Response:
        body = req.json()
        worker = body.get("worker")
        if not isinstance(worker, str) or not worker.strip():
            raise HttpError(400, "'worker' must be a non-empty string")
        max_tasks = body.get("max", 1)
        if not isinstance(max_tasks, int) or max_tasks < 1:
            raise HttpError(400, "'max' must be a positive integer")
        granted = self.broker.lease(worker.strip(), max_tasks)
        return Response.json({
            "tasks": [{"id": t.id, "spec": t.spec.to_dict(),
                       "attempt": t.attempts} for t in granted],
            "lease_s": self.broker.lease_s,
            "closing": self.broker.closing and not granted,
        })

    async def handle_renew(self, req: Request) -> Response:
        body = req.json()
        worker = body.get("worker", "")
        ids = body.get("ids")
        if not isinstance(ids, list) or not all(isinstance(i, int) for i in ids):
            raise HttpError(400, "'ids' must be a list of integers")
        return Response.json({"renewed": self.broker.renew(worker, ids)})

    async def handle_settle(self, req: Request) -> Response:
        body = req.json()
        worker = body.get("worker", "")
        task_id = body.get("id")
        if not isinstance(task_id, int):
            raise HttpError(400, "'id' must be an integer task id")
        payload = body.get("payload")
        error = body.get("error")
        try:
            status = self.broker.settle(worker, task_id, payload=payload,
                                        error=error)
        except KeyError as e:
            raise HttpError(404, str(e).strip("'\"")) from None
        except (ValueError, TypeError) as e:
            raise HttpError(400, str(e)) from None
        return Response.json({"status": status})

    async def handle_results(self, req: Request) -> Response:
        raw = req.first("ids")
        ids = None
        if raw:
            try:
                ids = [int(x) for x in raw.split(",") if x.strip()]
            except ValueError:
                raise HttpError(
                    400, "'ids' must be comma-separated integers") from None
        try:
            results = self.broker.results(ids)
        except KeyError as e:
            raise HttpError(404, str(e).strip("'\"")) from None
        except RuntimeError as e:
            raise HttpError(409, str(e)) from None
        out = []
        for tid, jr in zip(ids if ids is not None
                           else sorted(self.broker._tasks), results):
            out.append({"id": tid, "spec": self.broker.task(tid).spec.to_dict(),
                        **jr.to_wire()})
        return Response.json({"results": out})

    async def handle_drain(self, req: Request) -> Response:
        self.broker.drain()
        return Response.json({"closing": True})


def run_broker(host: str, port: int, lease_s: float, retries: int,
               no_cache: bool = False, cache_dir: Optional[str] = None) -> int:
    """Blocking entry point for ``repro fleet broker`` (returns exit code)."""
    cache = cache_from_flags(cache_dir, no_cache)
    app = BrokerApp(cache=cache, lease_s=lease_s, retries=retries)

    def banner() -> str:
        return (f"repro fleet broker: listening on http://{host}:{app.port} "
                f"(lease={lease_s}s, retries={retries}, cache="
                f"{cache.root if cache else 'off'})")

    async def stop() -> None:
        counts = app.broker.counts()
        print(f"repro fleet broker: shutting down ({counts['done']} done, "
              f"{counts['failed']} failed, {counts['queued']} queued)",
              flush=True)
        await app.shutdown()

    return run_app(app, host, port, banner, stop)
