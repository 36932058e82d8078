"""The task broker both job planes run on: a priority queue with leases.

:class:`FleetBroker` is the pure state machine — no sockets — so every
failure path is unit-testable with an injected clock. ``repro serve``
embeds one for its local runner; :class:`repro.fleet.broker.BrokerApp`
serves one over HTTP to remote workers.

Tasks are queued by priority, higher first and FIFO within a priority,
and *leased*: a lease carries a deadline, and a task whose lease expires
without a settle is requeued behind its priority's queued tasks for the
next worker that asks, so a dead, hung or slow worker's tasks migrate to
its peers. Each lease is one attempt; a task fails once ``1 + retries``
are spent, and a settled result reports every attempt.

Settlement is idempotent. Simulation is deterministic and results
round-trip through the cache serialization, so the first settle wins and
a later duplicate — a worker that missed its deadline but finished
anyway, or two workers racing after a requeue — is counted and dropped.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.exec.cache import ResultCache
from repro.exec.runner import JobResult
from repro.exec.spec import SweepJob, TaskSpec
from repro.serve.metrics import BrokerMetrics

__all__ = ["FleetBroker", "TASK_STATES", "Task"]

#: Task lifecycle. ``queued -> leased -> done|failed``; an expired or
#: error-settled lease moves the task back to ``queued`` while attempts
#: remain.
TASK_STATES = ("queued", "leased", "done", "failed")


@dataclass
class Task:
    """One unit of work and its full lifecycle state."""

    id: int
    spec: TaskSpec
    job: SweepJob                       # materialized once, at submission
    priority: int = 0                   # higher leases first
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
    """Lease-based priority queue with expiry, requeue, and idempotent settle.

    Parameters
    ----------
    cache:
        Optional shared :class:`ResultCache`. A submitted task already in
        it settles at once, never leased, and every successful settle is
        written back for a later resubmission (or a worker sharing the
        directory) to inherit.
    lease_s:
        Lease duration per task; workers renew mid-task, and a lease that
        expires unrenewed is requeued (``math.inf``: never).
    retries:
        Extra attempts after the first lease (expiry and error settles
        both consume attempts).
    now_fn:
        Monotonic clock, injectable for deterministic expiry tests.
    """

    def __init__(self, cache: Optional[ResultCache] = None,
                 lease_s: float = 60.0, retries: int = 2,
                 now_fn: Callable[[], float] = time.monotonic):
        if lease_s <= 0:
            raise ValueError(f"lease_s must be positive, got {lease_s}")
        self.cache = cache
        self.lease_s = lease_s
        self.retries = max(0, retries)
        self.now_fn = now_fn
        self.metrics = BrokerMetrics()
        self.closing = False
        self._tasks: Dict[int, Task] = {}
        #: ``(-priority, seq, id)`` of queued tasks; an entry whose task
        #: left the queue some other way is skipped at lease.
        self._queue: List[Tuple[int, int, int]] = []
        self._seq = 0
        self._next_id = 1
        self._workers: Set[str] = set()

    # -- submission ------------------------------------------------------------
    def submit(self, specs: Sequence[TaskSpec], priority: int = 0,
               jobs: Optional[Sequence[SweepJob]] = None) -> List[int]:
        """Queue tasks at ``priority``; cache hits settle at once.

        Every spec is validated first: a :class:`SpecError` queues nothing.
        A caller that already built the specs' ``jobs`` passes them.
        """
        if jobs is None:
            jobs = [spec.build_job() for spec in specs]
        ids: List[int] = []
        for spec, job in zip(specs, jobs):
            task = Task(id=self._next_id, spec=spec, job=job,
                        priority=priority)
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
                self._enqueue(task)
        self._refresh_gauges()
        return ids

    def _enqueue(self, task: Task) -> None:
        """Queue ``task`` behind every task of its priority already queued."""
        task.state = "queued"
        self._seq += 1
        heapq.heappush(self._queue, (-task.priority, self._seq, task.id))

    def cancel(self, task_ids: Sequence[int]) -> List[int]:
        """Drop the named tasks no worker holds; returns the ids dropped.

        A queued task is cancelled and a finished one forgotten. A leased
        task is refused: it stays, and its holder's settle still lands.
        """
        dropped = [tid for tid in task_ids
                   if tid in self._tasks and self._tasks[tid].state != "leased"]
        for tid in dropped:
            del self._tasks[tid]
        self._refresh_gauges()
        return dropped

    # -- leasing ---------------------------------------------------------------
    def lease(self, worker: str, max_tasks: int = 1) -> List[Task]:
        """Grant up to ``max_tasks`` leases to ``worker``, highest
        priority first."""
        self.expire()
        self._workers.add(worker)
        self.metrics.workers_seen.set(len(self._workers))
        granted: List[Task] = []
        while self._queue and len(granted) < max(1, max_tasks):
            task = self._tasks.get(heapq.heappop(self._queue)[2])
            if task is None or task.state != "queued":
                continue                 # cancelled, or settled while queued
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
                self._requeue(task)
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
            disposition = self._settle_error(task, error)
        else:
            if payload is None:
                raise ValueError("settle needs a result payload or an error")
            disposition = self._settle_ok(task, worker, payload)
        self._refresh_gauges()
        return disposition

    def _settle_ok(self, task: Task, worker: str,
                   payload: Dict[str, Any]) -> str:
        jr = JobResult.from_wire(task.job, payload)
        if not jr.cached:
            jr.attempts = task.attempts          # every lease was an attempt
        # A settle that raced a requeue is still a completion: first wins.
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

    def _settle_error(self, task: Task, error: str) -> str:
        if task.attempts >= 1 + self.retries:
            self._fail(task, error)
            return "failed"
        self._requeue(task)
        return "requeued"

    def _requeue(self, task: Task) -> None:
        task.lease_deadline = None
        task.requeues += 1
        self._enqueue(task)
        self.metrics.tasks_requeued.inc()

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
