"""The fleet broker: a work-queue that leases tasks to remote workers.

:class:`FleetBroker` is the pure state machine — no sockets — so every
failure path is unit-testable with an injected clock. Tasks are queued in
submission order and *leased* (not handed over): a lease carries a
deadline, and a task whose lease expires without a settle is requeued and
offered to the next worker that asks — which is what makes the fleet
work-stealing: a dead, hung, or slow worker's tasks migrate to its peers
automatically. Attempt accounting matches :class:`~repro.exec.runner.
PoolRunner`: each lease is one attempt, and a task is failed once
``1 + retries`` attempts are exhausted.

Settlement is idempotent and commutative. Results are content-identical
no matter which worker produced them (simulation is deterministic and
results round-trip through the content-addressed cache serialization), so
the first settle wins, any later duplicate — a worker that missed its
deadline but finished anyway, or two workers racing after a requeue — is
counted and dropped, and results never depend on lease or settle
interleaving.

:class:`BrokerApp` is the HTTP facade over one broker, built on the
:class:`repro.serve.http.App` shell the job server uses; ``run_broker`` is
the blocking ``repro fleet broker`` entry point.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from repro.exec.cache import ResultCache, cache_from_flags
from repro.exec.runner import JobResult
from repro.exec.spec import SpecError, SweepJob, TaskSpec
from repro.serve.http import App, HttpError, Request, Response, run_app
from repro.serve.metrics import PlaneMetrics

__all__ = ["BrokerApp", "BrokerMetrics", "FleetBroker", "Task", "run_broker"]

#: Task lifecycle. ``queued -> leased -> done|failed``; an expired or
#: error-settled lease moves the task back to ``queued`` while attempts
#: remain.
TASK_STATES = ("queued", "leased", "done", "failed")


class BrokerMetrics(PlaneMetrics):
    """Broker-process metrics on the shared obs registry machinery."""

    def __init__(self):
        super().__init__("repro_fleet")
        self.tasks_submitted = self.counter("tasks_submitted_total")
        self.tasks_leased = self.counter("tasks_leased_total")
        self.tasks_settled = self.counter("tasks_settled_total")
        self.tasks_cached = self.counter("tasks_cached_total")
        self.tasks_requeued = self.counter("tasks_requeued_total")
        self.tasks_failed = self.counter("tasks_failed_total")
        self.duplicate_settles = self.counter("duplicate_settles_total")
        self.queue_depth = self.gauge("queue_depth")
        self.leased = self.gauge("leased_tasks")
        self.workers_seen = self.gauge("workers_seen")
        self.task_wall = self.histogram("task_wall_seconds")


@dataclass
class Task:
    """One unit of fleet work and its full lifecycle state."""

    id: int
    spec: TaskSpec
    job: SweepJob                       # materialized once, at submission
    state: str = "queued"
    attempts: int = 0                   # leases granted (cf. PoolRunner)
    worker: Optional[str] = None        # current/last lease holder
    lease_deadline: Optional[float] = None
    requeues: int = 0
    settles: int = 0                    # settle messages received (any kind)
    result: Optional[JobResult] = None
    error: Optional[str] = None

    def summary(self) -> Dict[str, Any]:
        return {"id": self.id, "label": self.spec.label(), "state": self.state,
                "attempts": self.attempts, "worker": self.worker,
                "requeues": self.requeues, "settles": self.settles,
                "cached": bool(self.result.cached) if self.result else False,
                "error": self.error}


class FleetBroker:
    """Lease-based work queue with expiry, requeue, and idempotent settle.

    Parameters
    ----------
    cache:
        Optional shared :class:`ResultCache`. Submitted tasks already in
        the cache settle immediately without ever being leased, and every
        successful settle is written back so a later resubmission (or a
        worker sharing the directory) inherits it — the same dedupe and
        crash-recovery semantics the single-host sweep runner has.
    lease_s:
        Lease duration granted per task. Workers renew mid-task; a lease
        that expires unrenewed is presumed dead and requeued.
    retries:
        Extra attempts after the first lease (expiry and error settles
        both consume attempts).
    now_fn:
        Monotonic clock, injectable for deterministic expiry tests.
    """

    def __init__(self, cache: Optional[ResultCache] = None,
                 lease_s: float = 60.0, retries: int = 2,
                 now_fn: Callable[[], float] = time.monotonic,
                 metrics: Optional[BrokerMetrics] = None):
        if lease_s <= 0:
            raise ValueError(f"lease_s must be positive, got {lease_s}")
        self.cache = cache
        self.lease_s = lease_s
        self.retries = max(0, retries)
        self.now_fn = now_fn
        self.metrics = metrics if metrics is not None else BrokerMetrics()
        self.closing = False
        self._tasks: Dict[int, Task] = {}
        self._queue: List[int] = []      # FIFO of queued task ids (lazy skip)
        self._next_id = 1
        self._workers: Set[str] = set()

    # -- submission ------------------------------------------------------------
    def submit(self, specs: Sequence[TaskSpec]) -> List[int]:
        """Queue tasks; cache hits settle instantly without a lease.

        Every spec is validated first: a :class:`SpecError` queues nothing.
        """
        jobs = [spec.build_job() for spec in specs]
        ids: List[int] = []
        for spec, job in zip(specs, jobs):
            task = Task(id=self._next_id, spec=spec, job=job)
            self._next_id += 1
            self._tasks[task.id] = task
            ids.append(task.id)
            self.metrics.tasks_submitted.inc()
            task.result = JobResult.from_cache(self.cache, job)
            if task.result is not None:
                task.state = "done"
                self.metrics.tasks_settled.inc()
                self.metrics.tasks_cached.inc()
            else:
                self._queue.append(task.id)
        self._refresh_gauges()
        return ids

    # -- leasing ---------------------------------------------------------------
    def lease(self, worker: str, max_tasks: int = 1) -> List[Task]:
        """Grant up to ``max_tasks`` leases to ``worker`` (FIFO order)."""
        self.expire()
        self._workers.add(worker)
        self.metrics.workers_seen.set(len(self._workers))
        granted: List[Task] = []
        while self._queue and len(granted) < max(1, max_tasks):
            task = self._tasks[self._queue.pop(0)]
            if task.state != "queued":
                continue                 # settled or failed while queued
            task.state = "leased"
            task.worker = worker
            task.attempts += 1
            task.lease_deadline = self.now_fn() + self.lease_s
            self.metrics.tasks_leased.inc()
            granted.append(task)
        self._refresh_gauges()
        return granted

    def renew(self, worker: str, task_ids: Sequence[int]) -> int:
        """Extend the lease deadline of tasks still held by ``worker``."""
        renewed = 0
        now = self.now_fn()
        for tid in task_ids:
            task = self._tasks.get(tid)
            if (task is not None and task.state == "leased"
                    and task.worker == worker):
                task.lease_deadline = now + self.lease_s
                renewed += 1
        return renewed

    def expire(self) -> List[int]:
        """Requeue (or fail) every task whose lease deadline has passed."""
        now = self.now_fn()
        moved: List[int] = []
        for task in self._tasks.values():
            if (task.state != "leased" or task.lease_deadline is None
                    or now < task.lease_deadline):
                continue
            moved.append(task.id)
            if task.attempts >= 1 + self.retries:
                self._fail(task, f"lease expired after {task.attempts} "
                                 f"attempt(s) ({self.lease_s}s each)")
            else:
                task.state = "queued"
                task.lease_deadline = None
                task.requeues += 1
                self._queue.append(task.id)
                self.metrics.tasks_requeued.inc()
        if moved:
            self._refresh_gauges()
        return moved

    # -- settlement ------------------------------------------------------------
    def settle(self, worker: str, task_id: int,
               payload: Optional[Dict[str, Any]] = None,
               error: Optional[str] = None) -> str:
        """Record one task outcome; returns the disposition.

        ``"ok"``    — first successful settle; the task is done.
        ``"duplicate"`` — the task was already done (late or racing
        settle); the message is counted and dropped.
        ``"requeued"`` / ``"failed"`` — an error settle consumed an
        attempt and the task was requeued or exhausted.
        """
        task = self._tasks.get(task_id)
        if task is None:
            raise KeyError(f"unknown task {task_id}")
        task.settles += 1
        if task.state in ("done", "failed"):
            self.metrics.duplicate_settles.inc()
            return "duplicate"
        if error is not None:
            # An error settle consumes the attempt its lease granted — but
            # only from the current lease holder. A stale holder (its lease
            # expired and the task was requeued or re-leased) must not
            # charge the task a second attempt for the same lease.
            if task.state != "leased" or task.worker != worker:
                self.metrics.duplicate_settles.inc()
                return "stale"
            disposition = self._settle_error(task, worker, error)
        else:
            if payload is None:
                raise ValueError("settle needs a result payload or an error")
            disposition = self._settle_ok(task, worker, payload)
        self._refresh_gauges()
        return disposition

    def _settle_ok(self, task: Task, worker: str,
                   payload: Dict[str, Any]) -> str:
        jr = JobResult.from_wire(task.job, payload)
        # A settle that raced a requeue is still a completion: first wins.
        if task.id in self._queue and task.state == "queued":
            self._queue.remove(task.id)
        task.state = "done"
        task.worker = worker
        task.lease_deadline = None
        task.result = jr
        self.metrics.tasks_settled.inc()
        if jr.cached:
            self.metrics.tasks_cached.inc()
        if jr.wall_s > 0:
            self.metrics.task_wall.record(jr.wall_s)
        if self.cache is not None and jr.result is not None:
            self.cache.put(task.job.config, task.job.workload, task.job.ops,
                           task.job.seed, jr.result)
        return "ok"

    def _settle_error(self, task: Task, worker: str, error: str) -> str:
        task.lease_deadline = None
        if task.attempts >= 1 + self.retries:
            self._fail(task, error)
            return "failed"
        task.state = "queued"
        task.requeues += 1
        self._queue.append(task.id)
        self.metrics.tasks_requeued.inc()
        return "requeued"

    def _fail(self, task: Task, error: str) -> None:
        task.state = "failed"
        task.lease_deadline = None
        task.error = error
        task.result = JobResult(job=task.job, result=None,
                                attempts=task.attempts, error=error)
        self.metrics.tasks_failed.inc()

    # -- inspection ------------------------------------------------------------
    def task(self, task_id: int) -> Task:
        task = self._tasks.get(task_id)
        if task is None:
            raise KeyError(f"unknown task {task_id}")
        return task

    def counts(self) -> Dict[str, int]:
        by_state = {s: 0 for s in TASK_STATES}
        for task in self._tasks.values():
            by_state[task.state] += 1
        return {"total": len(self._tasks), "workers": len(self._workers),
                **by_state}

    def done(self, task_ids: Optional[Sequence[int]] = None) -> bool:
        """Whether every named task (default: all) reached a terminal state."""
        tasks = ([self.task(t) for t in task_ids] if task_ids is not None
                 else self._tasks.values())
        return all(t.state in ("done", "failed") for t in tasks)

    def results(self, task_ids: Optional[Sequence[int]] = None) -> List[JobResult]:
        """Results in ``task_ids`` order (default: every task, in id order).

        Only meaningful once :meth:`done`; raises if a named task is still
        in flight so a caller can never silently read a partial fleet.
        """
        ids = list(task_ids) if task_ids is not None else sorted(self._tasks)
        out: List[JobResult] = []
        for tid in ids:
            task = self.task(tid)
            if task.result is None:
                raise RuntimeError(f"task {tid} is {task.state}; results are "
                                   f"available once every task settles")
            out.append(task.result)
        return out

    def drain(self) -> None:
        """Tell workers (via lease responses) to exit once the queue is dry."""
        self.closing = True

    def _refresh_gauges(self) -> None:
        counts = self.counts()
        self.metrics.queue_depth.set(counts["queued"])
        self.metrics.leased.set(counts["leased"])


# -- the HTTP facade -----------------------------------------------------------

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
