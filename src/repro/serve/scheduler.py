"""Jobs on the shared task broker, run by one local batch runner.

Every accepted job's tasks go into one embedded
:class:`~repro.serve.broker.FleetBroker` — the state machine the fleet's
workers lease from — at the job's priority.

Whenever it is idle, the local runner leases up to ``pool_workers``
tasks and runs them as one :class:`~repro.exec.runner.SweepRunner`
batch on a daemon thread. With two or more pool workers a hung
simulation times out and its worker is replaced; with one, the
simulation runs inline and ``job_timeout_s`` has no effect. Outcomes
settle on the event loop, so job state stays single-threaded.

A job starts when its first task is leased, with one cache pass over all
its tasks, as ``SweepRunner.run`` makes: every hit settles then, in
queue order, and each fresh result is stored as it settles. It ends
when its last task settles; its tasks then leave the broker.
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from typing import Any, Dict, List, Optional

from repro.exec.cache import ResultCache
from repro.exec.runner import JobResult, SweepRunner
from repro.serve.broker import FleetBroker, Task
from repro.serve.jobs import Job, JobStore
from repro.serve.metrics import ServerMetrics

__all__ = ["QuotaExceeded", "Scheduler"]

#: The local runner's name on the broker.
LOCAL = "local"


class QuotaExceeded(Exception):
    """Submission refused by a quota (maps to HTTP 429)."""


def _is_timeout(jr: JobResult) -> bool:
    return (jr.result is None and jr.error is not None
            and jr.error.startswith("timeout"))


class Scheduler:
    """Quota-gated jobs on one task broker, run by one local runner.

    ``pool_workers`` is the batch size and each batch's process-pool size
    (``1``: inline, no subprocesses, and no ``job_timeout_s`` deadline);
    ``retries`` is the broker's extra attempts per failed or timed-out
    task; ``max_queue`` caps queued jobs and ``tenant_max_jobs`` one
    tenant's queued or running ones.
    """

    def __init__(self, store: JobStore, metrics: ServerMetrics,
                 cache: Optional[ResultCache] = None,
                 pool_workers: int = 2,
                 job_timeout_s: Optional[float] = None,
                 retries: int = 1,
                 max_queue: int = 256,
                 tenant_max_jobs: int = 8):
        self.store = store
        self.metrics = metrics
        self.cache = cache
        self.pool_workers = pool_workers
        self.job_timeout_s = job_timeout_s
        self.max_queue = max_queue
        self.tenant_max_jobs = tenant_max_jobs
        # The local runner dies only with the server: no lease expires.
        self.broker = FleetBroker(lease_s=math.inf, retries=retries)
        self._job_of: Dict[int, Job] = {}        # broker task id -> its job
        self._batch: Optional[asyncio.Future] = None
        self._accepting = True

    # -- lifecycle -------------------------------------------------------------
    async def shutdown(self, drain_s: float = 30.0) -> Dict[str, int]:
        """Stop accepting, cancel queued jobs, run the running ones out.

        Past ``drain_s`` the batch's daemon thread is abandoned (it cannot
        block process exit) and every job still running is failed.
        """
        self._accepting = False
        queued = [j for j in self.store.jobs() if j.state == "queued"]
        for job in queued:
            self.cancel(job, "server shutting down")
        deadline = time.monotonic() + drain_s if drain_s > 0 else None
        while self._batch is not None:
            wait = (None if deadline is None
                    else max(0.0, deadline - time.monotonic()))
            done, _ = await asyncio.wait({self._batch}, timeout=wait)
            if not done:
                self._batch.cancel()
                break
        running = [j for j in self.store.jobs() if j.state == "running"]
        for job in running:
            self._end(job, "failed", self.metrics.jobs_failed,
                      "abandoned at server shutdown")
        return {"cancelled": len(queued), "abandoned": len(running)}

    # -- submission ------------------------------------------------------------
    def submit(self, parsed: Dict[str, Any]) -> Job:
        """Queue one validated submission (see ``parse_job_request``)."""
        if not self._accepting:
            raise QuotaExceeded("server is shutting down")
        queued = sum(1 for j in self.store.jobs() if j.state == "queued")
        if queued >= self.max_queue:
            raise QuotaExceeded(
                f"queue is full ({self.max_queue} jobs); retry later")
        tenant = parsed["tenant"]
        live = self.store.tenant_live(tenant)
        if live >= self.tenant_max_jobs:
            raise QuotaExceeded(
                f"tenant {tenant!r} already has {live} queued/running "
                f"job(s); the quota is {self.tenant_max_jobs}")
        job = self.store.create(parsed)
        self.metrics.jobs_accepted.inc()
        job.add_event("queued", tenant=tenant, priority=job.priority,
                      total_tasks=job.total_tasks)
        job.task_ids = self.broker.submit(parsed["specs"], job.priority,
                                          jobs=job.tasks)
        self._job_of.update(dict.fromkeys(job.task_ids, job))
        self._kick()
        self._refresh()
        return job

    def cancel(self, job: Job, reason: str = "cancelled by client") -> bool:
        """Cancel a queued job (running jobs are not interruptible)."""
        if job.state != "queued":
            return False
        self._end(job, "cancelled", self.metrics.jobs_cancelled, reason)
        return True

    # -- the local runner ------------------------------------------------------
    def _kick(self) -> None:
        """Lease the next batch if the local runner is idle; a leased
        task's job starts, and the job's cache hits leave the batch."""
        if self._batch is not None:
            return
        tasks: List[Task] = []
        while not tasks:
            leased = self.broker.lease(LOCAL, self.pool_workers)
            if not leased:
                return
            for job in [self._job_of[t.id] for t in leased]:
                self._start(job)
            self._refresh()
            tasks = [t for t in leased if t.state == "leased"]
        # A fresh *daemon* thread: the default executor's atexit hook
        # would join a hung sweep and block interpreter exit.
        loop = asyncio.get_running_loop()
        self._batch = batch = loop.create_future()
        batch.add_done_callback(lambda _: self._batch_done(tasks, batch))

        def run() -> None:
            runner = SweepRunner(workers=self.pool_workers, cache=None,
                                 job_timeout_s=self.job_timeout_s, retries=0)
            try:
                outcomes = runner.run([t.job for t in tasks])
            except Exception as e:               # the runner itself failed
                outcomes = [JobResult(job=t.job, result=None, attempts=1,
                                      error=f"{type(e).__name__}: {e}")
                            for t in tasks]
            try:
                loop.call_soon_threadsafe(
                    lambda: batch.done() or batch.set_result(outcomes))
            except RuntimeError:
                pass                             # the loop closed

        threading.Thread(target=run, name="repro-serve-batch",
                         daemon=True).start()

    def _batch_done(self, tasks: List[Task], batch: asyncio.Future) -> None:
        """Store each fresh result, then settle each outcome as the wire
        record a fleet worker sends; an error may requeue its task."""
        if batch.cancelled():
            return                               # abandoned at shutdown
        self._batch = None
        for task, jr in zip(tasks, batch.result()):
            error = jr.error
            if jr.result is not None and self.cache is not None:
                try:
                    self.cache.put(jr.job.config, jr.job.workload,
                                   jr.job.ops, jr.job.seed, jr.result)
                except OSError as e:             # the result cache failed
                    error = f"{type(e).__name__}: {e}"
            if error is None:
                self.broker.settle(LOCAL, task.id, payload=jr.to_wire())
            else:
                self.broker.settle(LOCAL, task.id, error=error)
            if task.state != "queued":
                self._settled(task)
        self._kick()

    # -- job state from task state ---------------------------------------------
    def _start(self, job: Job) -> None:
        """Start a queued job with its cache pass: each hit settles now."""
        if job.state != "queued":
            return
        job.state = "running"
        job.started_at = time.time()
        job.add_event("started", workers=self.pool_workers)
        for task in [self.broker.task(t) for t in job.task_ids]:
            hit = JobResult.from_cache(self.cache, task.job)
            if hit is not None:
                self.broker.settle(LOCAL, task.id, payload=hit.to_wire())
                self._settled(task)

    def _settled(self, task: Task) -> None:
        """Count one finished task into its job; the last one ends it."""
        job = self._job_of[task.id]
        jr = task.result
        job.done_tasks += 1
        m = self.metrics
        m.tasks_completed.inc()
        if jr.cached:
            job.cached_tasks += 1
            m.tasks_cached.inc()
        elif _is_timeout(jr):
            job.timed_out_tasks += 1
            m.tasks_timed_out.inc()
        elif jr.result is None:
            job.failed_tasks += 1
            m.tasks_failed.inc()
        job.add_event("task", done=job.done_tasks, total=job.total_tasks,
                      label=jr.job.label(), cached=jr.cached,
                      wall_s=jr.wall_s, attempts=jr.attempts,
                      ok=jr.result is not None, error=jr.error)
        if job.done_tasks < job.total_tasks:
            return
        job.results = self.broker.results(job.task_ids)
        if job.timed_out_tasks:
            self._end(job, "timed_out", m.jobs_timed_out,
                      f"{job.timed_out_tasks}/{job.total_tasks} task(s) "
                      f"exceeded the {self.job_timeout_s}s deadline")
        elif job.failed_tasks:
            first = next(r for r in job.results
                         if r.result is None and not _is_timeout(r))
            self._end(job, "failed", m.jobs_failed, f"{job.failed_tasks} "
                      f"task(s) failed; first: {first.error}")
        else:
            self._end(job, "done", m.jobs_completed)

    def _end(self, job: Job, state: str, counter,
             error: Optional[str] = None) -> None:
        """Make ``job`` terminal. Its tasks leave the broker; the job
        keeps their results."""
        job.state = state
        job.error = error
        counter.inc()
        self.broker.cancel(job.task_ids)
        for tid in job.task_ids:
            self._job_of.pop(tid, None)
        job.finished_at = time.time()
        if job.started_at is not None:
            self.metrics.job_wall.record(job.finished_at - job.started_at)
        job.add_event("finished", state=job.state,
                      done=job.done_tasks, cached=job.cached_tasks,
                      failed=job.failed_tasks, timed_out=job.timed_out_tasks,
                      error=job.error)
        self._refresh()

    def _refresh(self) -> None:
        states = [j.state for j in self.store.jobs()]
        self.metrics.queue_depth.set(states.count("queued"))
        self.metrics.active_jobs.set(states.count("running"))

