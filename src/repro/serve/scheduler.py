"""Priority scheduling of accepted jobs onto the sweep runner.

One asyncio dispatch loop pops the highest-priority queued job whenever an
active slot frees up and runs its sweep through
:class:`~repro.exec.runner.SweepRunner` — the shared on-disk result cache
settles duplicate configs without pool work, and with two or more pool
workers the PoolRunner deadline semantics time a hung simulation out and
replace its worker rather than wedging the server. With one pool worker
the simulation runs inline in the job thread, where no deadline can
interrupt it: ``job_timeout_s`` then has no effect.

The sweep itself is synchronous, so each active job runs in a dedicated
*daemon* thread (not the default executor: its atexit hook would join a
still-running sweep and block interpreter exit — exactly the hang the
server exists to avoid). Progress callbacks fire on that thread and are
marshalled onto the event loop with ``call_soon_threadsafe``, keeping all
job-state mutation single-threaded.
"""

from __future__ import annotations

import asyncio
import functools
import heapq
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exec.cache import ResultCache
from repro.exec.runner import JobResult, SweepRunner
from repro.serve.jobs import Job, JobStore
from repro.serve.metrics import ServerMetrics

__all__ = ["QuotaExceeded", "Scheduler"]


class QuotaExceeded(Exception):
    """Submission refused by a quota (maps to HTTP 429)."""


def _is_timeout(jr: JobResult) -> bool:
    return (jr.result is None and jr.error is not None
            and jr.error.startswith("timeout"))


class Scheduler:
    """Quota-gated priority queue feeding bounded concurrent sweep runs.

    Parameters
    ----------
    store / metrics / cache:
        Shared job registry, server metrics, and on-disk result cache.
    pool_workers:
        Process-pool size each active job's :class:`SweepRunner` uses
        (``1`` = inline in the job thread — no subprocesses).
    job_timeout_s / retries:
        Per-task deadline and retry budget, passed through to the runner
        (the deadline applies only when ``pool_workers > 1``).
    max_active:
        Concurrent running jobs. Each active job owns a process pool, so
        total worker processes ≈ ``max_active * pool_workers``.
    max_queue:
        Queued-job cap across all tenants.
    tenant_max_jobs:
        Per-tenant cap on jobs that are queued or running.
    """

    def __init__(self, store: JobStore, metrics: ServerMetrics,
                 cache: Optional[ResultCache] = None,
                 pool_workers: int = 2,
                 job_timeout_s: Optional[float] = None,
                 retries: int = 1,
                 max_active: int = 1,
                 max_queue: int = 256,
                 tenant_max_jobs: int = 8):
        self.store = store
        self.metrics = metrics
        self.cache = cache
        self.pool_workers = pool_workers
        self.job_timeout_s = job_timeout_s
        self.retries = retries
        self.max_active = max_active
        self.max_queue = max_queue
        self.tenant_max_jobs = tenant_max_jobs

        self._heap: List[Tuple[int, int, str]] = []   # (-priority, seq, id)
        self._seq = 0
        self._queued = 0
        self._active: Dict[str, asyncio.Task] = {}
        self._wake = asyncio.Event()
        self._loop_task: Optional[asyncio.Task] = None
        self._accepting = True

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> None:
        self._loop_task = asyncio.get_running_loop().create_task(
            self._dispatch_loop(), name="repro-serve-dispatch")

    async def shutdown(self, drain_s: float = 30.0) -> Dict[str, int]:
        """Stop accepting, cancel the queue, wait for active jobs.

        Active sweeps cannot be interrupted mid-simulation, but the runner's
        deadline semantics bound them; past ``drain_s`` their daemon threads
        are abandoned (they cannot block process exit) and the jobs are
        marked failed.
        """
        self._accepting = False
        cancelled = 0
        while self._heap:
            _, _, job_id = heapq.heappop(self._heap)
            job = self.store.get(job_id)
            if job is not None and job.state == "queued":
                self._finish_cancelled(job, "server shutting down")
                cancelled += 1
        self._queued = 0
        self.metrics.queue_depth.set(0)
        self._wake.set()
        active = list(self._active.values())
        abandoned = 0
        if active:
            done, pending = await asyncio.wait(
                active, timeout=drain_s if drain_s > 0 else None)
            for task in pending:
                task.cancel()
            abandoned = len(pending)
        if self._loop_task is not None:
            self._loop_task.cancel()
            try:
                await self._loop_task
            except asyncio.CancelledError:
                pass
        return {"cancelled": cancelled, "abandoned": abandoned}

    # -- submission ------------------------------------------------------------
    def submit(self, parsed: Dict[str, Any]) -> Job:
        """Queue one validated submission (see ``parse_job_request``)."""
        if not self._accepting:
            raise QuotaExceeded("server is shutting down")
        if self._queued >= self.max_queue:
            raise QuotaExceeded(
                f"queue is full ({self.max_queue} jobs); retry later")
        tenant = parsed["tenant"]
        live = self.store.tenant_live(tenant)
        if live >= self.tenant_max_jobs:
            raise QuotaExceeded(
                f"tenant {tenant!r} already has {live} queued/running "
                f"job(s); the quota is {self.tenant_max_jobs}")
        job = self.store.create(parsed)
        self._seq += 1
        heapq.heappush(self._heap, (-job.priority, self._seq, job.id))
        self._queued += 1
        self.metrics.jobs_accepted.inc()
        self.metrics.queue_depth.set(self._queued)
        job.add_event("queued", tenant=tenant, priority=job.priority,
                      total_tasks=job.total_tasks)
        self._wake.set()
        return job

    def cancel(self, job: Job) -> bool:
        """Cancel a queued job (running jobs are not interruptible)."""
        if job.state != "queued":
            return False
        # Lazy heap removal: the dispatch loop skips non-queued entries.
        self._finish_cancelled(job, "cancelled by client")
        self._queued = max(0, self._queued - 1)
        self.metrics.queue_depth.set(self._queued)
        return True

    # -- dispatch --------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            while self._heap and len(self._active) < self.max_active:
                _, _, job_id = heapq.heappop(self._heap)
                job = self.store.get(job_id)
                if job is None or job.state != "queued":
                    continue                      # cancelled while queued
                self._queued = max(0, self._queued - 1)
                self.metrics.queue_depth.set(self._queued)
                task = asyncio.get_running_loop().create_task(
                    self._run_job(job), name=f"repro-serve-{job.id}")
                self._active[job.id] = task

    async def _run_job(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        job.state = "running"
        job.started_at = time.time()
        self.metrics.active_jobs.set(len(self._active))
        job.add_event("started", workers=self.pool_workers)

        def progress(done: int, total: int, jr: JobResult) -> None:
            # Runs on the job thread; marshal onto the loop.
            payload = {"done": done, "total": total,
                       "label": jr.job.label(), "cached": jr.cached,
                       "wall_s": jr.wall_s, "attempts": jr.attempts,
                       "ok": jr.result is not None, "error": jr.error}
            try:
                loop.call_soon_threadsafe(
                    functools.partial(job.add_event, "task", **payload))
            except RuntimeError:
                pass                              # loop closed during drain

        runner = SweepRunner(workers=self.pool_workers, cache=self.cache,
                             job_timeout_s=self.job_timeout_s,
                             retries=self.retries, progress=progress)
        try:
            results = await _in_daemon_thread(
                lambda: runner.run(job.tasks), name=f"sweep-{job.id}")
        except asyncio.CancelledError:
            self._finish_failed(job, "abandoned at server shutdown")
            raise
        except Exception as e:
            self._finish_failed(job, f"{type(e).__name__}: {e}")
        else:
            self._finish_ok(job, results)
        finally:
            self._active.pop(job.id, None)
            self.metrics.active_jobs.set(len(self._active))
            self._wake.set()

    # -- terminal transitions --------------------------------------------------
    def _finish_ok(self, job: Job, results: List[JobResult]) -> None:
        job.results = results
        job.done_tasks = len(results)
        job.cached_tasks = sum(1 for r in results if r.cached)
        job.timed_out_tasks = sum(1 for r in results if _is_timeout(r))
        job.failed_tasks = sum(1 for r in results
                               if r.result is None and not _is_timeout(r))
        m = self.metrics
        m.tasks_completed.inc(len(results))
        m.tasks_cached.inc(job.cached_tasks)
        m.tasks_failed.inc(job.failed_tasks)
        m.tasks_timed_out.inc(job.timed_out_tasks)
        if job.timed_out_tasks:
            job.state = "timed_out"
            job.error = (f"{job.timed_out_tasks}/{job.total_tasks} task(s) "
                         f"exceeded the {self.job_timeout_s}s deadline")
            m.jobs_timed_out.inc()
        elif job.failed_tasks:
            job.state = "failed"
            first = next(r for r in results
                         if r.result is None and not _is_timeout(r))
            job.error = f"{job.failed_tasks} task(s) failed; first: {first.error}"
            m.jobs_failed.inc()
        else:
            job.state = "done"
            m.jobs_completed.inc()
        self._seal(job)

    def _finish_failed(self, job: Job, error: str) -> None:
        job.state = "failed"
        job.error = error
        self.metrics.jobs_failed.inc()
        self._seal(job)

    def _finish_cancelled(self, job: Job, reason: str) -> None:
        job.state = "cancelled"
        job.error = reason
        self.metrics.jobs_cancelled.inc()
        self._seal(job)

    def _seal(self, job: Job) -> None:
        job.finished_at = time.time()
        if job.started_at is not None:
            self.metrics.job_wall.record(job.finished_at - job.started_at)
        job.add_event("finished", state=job.state,
                      done=job.done_tasks, cached=job.cached_tasks,
                      failed=job.failed_tasks, timed_out=job.timed_out_tasks,
                      error=job.error)


async def _in_daemon_thread(fn: Callable[[], Any], name: str) -> Any:
    """Run ``fn`` on a fresh daemon thread and await its result.

    Unlike ``asyncio.to_thread`` / the default executor, a daemon thread is
    never joined at interpreter exit — a sweep that outlives the drain
    window cannot keep the process alive.
    """
    loop = asyncio.get_running_loop()
    fut: asyncio.Future = loop.create_future()

    def deliver(setter: Callable, value: Any) -> None:
        try:
            loop.call_soon_threadsafe(
                lambda: setter(value) if not fut.done() else None)
        except RuntimeError:
            pass                                  # loop already closed

    def target() -> None:
        try:
            result = fn()
        except BaseException as e:
            deliver(fut.set_exception, e)
        else:
            deliver(fut.set_result, result)

    threading.Thread(target=target, name=name, daemon=True).start()
    return await fut
