"""Process-pool execution: a generic task fan-out, the sweep runner, and
the local executor.

:class:`PoolRunner` is the generic layer: a list of picklable items is
fanned across :class:`ProcessPoolExecutor` workers through one module-level
worker function. Results come back in item order regardless of completion
order, each item gets a deadline measured from its own submission plus
bounded retries (a hung worker is killed and replaced, never left occupying
a pool slot), and ``workers=1`` runs everything inline (no pool, no
pickling — monkeypatches apply, which the fuzzer's mutation tests rely on).

:class:`SweepRunner` specializes it for simulation sweeps — ``(SystemConfig,
workload, ops, seed)`` jobs — adding the on-disk
:class:`~repro.exec.cache.ResultCache` pass that short-circuits jobs already
simulated by *any* previous process. The fuzz harness
(:mod:`repro.fuzz.harness`) drives :class:`PoolRunner` directly.

:class:`LocalExecutor` runs :class:`~repro.exec.spec.TaskSpec`\\ s through
a :class:`SweepRunner`; :class:`repro.fleet.client.FleetClient` runs the
same specs on a fleet broker behind the same ``run(specs, progress)``.

Workers receive the config by value (dataclasses pickle cleanly) and the
workload by catalog name, so nothing process-local leaks into a job and a
job simulated in a worker is bit-identical to the same job simulated
in-process (see ``tests/test_exec_determinism.py``).
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time as _time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as _fut_wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exec.cache import ResultCache
from repro.exec.spec import SweepJob, TaskSpec
from repro.system.stats import SimResult

#: Environment variable setting the default worker count.
ENV_JOBS = "REPRO_JOBS"


def default_workers() -> int:
    """Worker count: ``$REPRO_JOBS`` if set, else the host's CPU count."""
    env = os.environ.get(ENV_JOBS)
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ValueError(f"{ENV_JOBS} must be an integer, got {env!r}") from None
        if n < 1:
            raise ValueError(f"{ENV_JOBS} must be >= 1, got {n}")
        return n
    return os.cpu_count() or 1


@dataclass
class JobResult:
    """Outcome of one job: the result plus execution telemetry."""

    job: SweepJob
    result: Optional[SimResult]          # None iff the job ultimately failed
    wall_s: float = 0.0                  # simulate() wall time in the worker
    events: int = 0                      # kernel events fired by the run
    cached: bool = False                 # served from the on-disk cache
    attempts: int = 0                    # 0 for cache hits
    error: Optional[str] = None

    @property
    def events_per_s(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    @classmethod
    def from_cache(cls, cache: Optional[ResultCache],
                   job: SweepJob) -> Optional["JobResult"]:
        """The job's cached result, or ``None`` on a miss or no cache."""
        hit = None if cache is None else cache.get(
            job.config, job.workload, job.ops, job.seed)
        if hit is None:
            return None
        return cls(job=job, result=hit, cached=True,
                   events=int(hit.extras.get("events_fired", 0)))

    def to_wire(self) -> Dict[str, Any]:
        """The outcome as a JSON-able record; the job travels separately.

        The result is the cache's own serialization (``asdict`` here,
        ``SimResult(**raw)`` in :meth:`from_wire`), so a result sent over
        HTTP is bit-identical to one read from a shared cache directory.
        """
        return {
            "result": (None if self.result is None
                       else dataclasses.asdict(self.result)),
            "wall_s": self.wall_s,
            "events": self.events,
            "cached": self.cached,
            "attempts": self.attempts,
            "error": self.error,
        }

    @classmethod
    def from_wire(cls, job: SweepJob, payload: Dict[str, Any]) -> "JobResult":
        """Rebuild the record :meth:`to_wire` wrote for ``job``."""
        raw = payload.get("result")
        return cls(job=job, result=SimResult(**raw) if raw is not None else None,
                   wall_s=float(payload.get("wall_s", 0.0)),
                   events=int(payload.get("events", 0)),
                   cached=bool(payload.get("cached", False)),
                   attempts=int(payload.get("attempts", 0)),
                   error=payload.get("error"))


def _simulate_job(job: SweepJob) -> Tuple[SimResult, float, int]:
    """Worker entry point: run one job, timing it (module-level: picklable)."""
    from repro.system.sim import simulate
    from repro.workloads.catalog import get_workload

    t0 = _time.perf_counter()
    result = simulate(job.config, get_workload(job.workload),
                      ops_per_core=job.ops, seed=job.seed,
                      validate=job.validate, obs=job.obs, tracing=job.tracing)
    wall = _time.perf_counter() - t0
    if job.trace_id is not None:
        trace = result.extras.get("trace")
        if isinstance(trace, dict):
            trace["trace_id"] = job.trace_id
    events = int(result.extras.get("events_fired", 0))
    return result, wall, events


@dataclass
class TaskOutcome:
    """Outcome of one generic pool task.

    ``value`` is whatever the worker function returned (``None`` iff every
    attempt failed — workers that can legitimately return ``None`` should
    wrap their result).
    """

    index: int
    item: Any
    value: Any = None
    wall_s: float = 0.0                  # wall time of the successful attempt
    attempts: int = 0
    error: Optional[str] = None


@dataclass
class _Attempt:
    """One in-flight pool submission: its future plus timing bookkeeping."""

    future: Future
    submitted: float
    #: Absolute ``perf_counter`` deadline (``None`` when no timeout is set).
    deadline: Optional[float] = None
    #: ``perf_counter`` at completion, stamped by a done-callback so wall
    #: time is completion-relative — never inflated by time the settle loop
    #: spent blocked on earlier indices.
    done_at: Optional[float] = field(default=None)

    def mark_done(self, _fut: Future) -> None:
        self.done_at = _time.perf_counter()


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear down a pool that may hold hung workers, without blocking.

    ``shutdown(cancel_futures=True)`` drops queued work items, but a
    *running* hung task would still wedge ``shutdown(wait=True)`` — and
    interpreter exit — indefinitely, so the worker processes themselves are
    killed. The pool is being discarded entirely; losing its in-flight
    state is the point.

    The process handles must be captured *before* ``shutdown()``: it nulls
    out ``_processes`` unconditionally, even with ``wait=False``. SIGKILL
    (not SIGTERM) because a worker deep in a compute loop must die now —
    once its processes are dead the executor's manager thread observes the
    broken pool and unwinds, so the atexit join cannot block exit.
    """
    procs = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for p in procs:
        try:
            p.kill()
        except Exception:
            pass
    grace = _time.perf_counter() + 5.0
    for p in procs:
        try:
            p.join(timeout=max(0.0, grace - _time.perf_counter()))
        except Exception:
            pass


class PoolRunner:
    """Fan picklable items across a process pool, one worker function each.

    Results are returned in item order regardless of completion order.

    Parameters
    ----------
    worker_fn:
        Module-level function ``(item) -> value`` (must pickle). Called
        inline when ``workers == 1``.
    workers:
        Pool size (default: :func:`default_workers`). ``1`` runs items
        inline in this process — no pool, no pickling.
    job_timeout_s:
        Per-attempt deadline in seconds, measured from *submission* — not
        from when the settle loop happens to wait on the item — so an item
        that exceeds its budget is timed out on schedule even while the
        loop is blocked on an earlier index. A timed-out attempt counts as
        a failure; a retry is resubmitted with a fresh deadline. If the
        timed-out task was already running, its worker process is replaced
        (the pool is torn down and rebuilt; unaffected in-flight items are
        resubmitted without being charged an attempt), so hung workers can
        neither occupy a slot nor wedge pool shutdown. An inline run
        (``workers == 1``) checks no deadline: it cannot be interrupted.
    retries:
        Extra attempts after the first failure/timeout.
    progress:
        Callback ``(done, total, outcome)`` invoked as each item settles.
    """

    def __init__(self, worker_fn: Callable[[Any], Any],
                 workers: Optional[int] = None,
                 job_timeout_s: Optional[float] = None,
                 retries: int = 1,
                 progress: Optional[Callable[[int, int, TaskOutcome], None]] = None):
        self.worker_fn = worker_fn
        self.workers = workers if workers is not None else default_workers()
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        self.job_timeout_s = job_timeout_s
        self.retries = max(0, retries)
        self.progress = progress

    def run(self, items: Sequence[Any]) -> List[TaskOutcome]:
        """Run every item; the returned list is ordered like ``items``."""
        results: List[Optional[TaskOutcome]] = [None] * len(items)
        if self.workers == 1:
            self._run_inline(items, results)
        else:
            self._run_pool(items, results)
        out = [r for r in results if r is not None]
        assert len(out) == len(items)
        return out

    def _settle(self, out: TaskOutcome, results: List[Optional[TaskOutcome]],
                done: int, total: int) -> int:
        results[out.index] = out
        done += 1
        if self.progress:
            self.progress(done, total, out)
        return done

    def _run_inline(self, items: Sequence[Any],
                    results: List[Optional[TaskOutcome]]) -> None:
        done = 0
        for i, item in enumerate(items):
            out = TaskOutcome(index=i, item=item)
            for attempt in range(1 + self.retries):
                out.attempts = attempt + 1
                t0 = _time.perf_counter()
                try:
                    out.value = self.worker_fn(item)
                    out.wall_s = _time.perf_counter() - t0
                    out.error = None
                    break
                except Exception as e:
                    out.error = f"{type(e).__name__}: {e}"
            done = self._settle(out, results, done, len(items))

    def _run_pool(self, items: Sequence[Any],
                  results: List[Optional[TaskOutcome]]) -> None:
        done = 0
        total = len(items)
        attempts: Dict[int, int] = {i: 0 for i in range(total)}
        timeout = self.job_timeout_s
        pending: Dict[int, _Attempt] = {}
        pool = ProcessPoolExecutor(max_workers=self.workers)
        # True once a *running* task has been abandoned on this pool: its
        # worker is presumed hung, so the pool must not receive new work
        # and must not be shut down with wait=True.
        pool_dirty = False

        def submit(i: int) -> None:
            att = _Attempt(future=pool.submit(self.worker_fn, items[i]),
                           submitted=_time.perf_counter())
            if timeout is not None:
                att.deadline = att.submitted + timeout
            att.future.add_done_callback(att.mark_done)
            pending[i] = att

        try:
            for i in range(total):
                submit(i)
            while pending:
                # Settle every completed item, in index order for
                # deterministic retry/progress behaviour; items still *run*
                # concurrently across the pool.
                for i in sorted(pending):
                    att = pending[i]
                    if not att.future.done():
                        continue
                    del pending[i]
                    attempts[i] += 1
                    err = att.future.exception()
                    if err is None:
                        wall = ((att.done_at or _time.perf_counter())
                                - att.submitted)
                        done = self._settle(
                            TaskOutcome(index=i, item=items[i],
                                        value=att.future.result(),
                                        wall_s=wall, attempts=attempts[i]),
                            results, done, total)
                    elif attempts[i] <= self.retries:
                        submit(i)
                    else:
                        done = self._settle(
                            TaskOutcome(index=i, item=items[i],
                                        attempts=attempts[i],
                                        error=f"{type(err).__name__}: {err}"),
                            results, done, total)
                # Expire deadlines, also in index order. Each item's clock
                # started at its own submission.
                now = _time.perf_counter()
                respawn: List[int] = []
                for i in sorted(pending):
                    att = pending[i]
                    if (att.deadline is None or now < att.deadline
                            or att.future.done()):
                        continue
                    del pending[i]
                    attempts[i] += 1
                    if not att.future.cancel():
                        pool_dirty = True       # already running: hung worker
                    if attempts[i] <= self.retries:
                        respawn.append(i)
                    else:
                        done = self._settle(
                            TaskOutcome(index=i, item=items[i],
                                        attempts=attempts[i],
                                        error=f"timeout after {timeout}s"),
                            results, done, total)
                # A dirty pool gets replaced before anything is resubmitted:
                # the hung worker would otherwise keep occupying a slot.
                # Completed-but-unsettled futures keep their results; live
                # ones are casualties of the rebuild and are resubmitted
                # without being charged an attempt.
                if pool_dirty and (respawn or pending):
                    refresh = [i for i in sorted(pending)
                               if not pending[i].future.done()]
                    for i in refresh:
                        del pending[i]
                    _kill_pool(pool)
                    pool = ProcessPoolExecutor(max_workers=self.workers)
                    pool_dirty = False
                    for i in refresh:
                        submit(i)
                for i in respawn:
                    submit(i)
                # Block until something completes or the nearest deadline.
                if not pending or any(a.future.done()
                                      for a in pending.values()):
                    continue
                wait_s = None
                if timeout is not None:
                    nearest = min(a.deadline for a in pending.values())
                    wait_s = max(0.0, nearest - _time.perf_counter())
                _fut_wait([a.future for a in pending.values()],
                          timeout=wait_s, return_when=FIRST_COMPLETED)
        finally:
            if pool_dirty:
                _kill_pool(pool)
            else:
                pool.shutdown(wait=True, cancel_futures=True)


class SweepRunner:
    """Fan jobs across a process pool with caching, timeout, and retries.

    A thin simulation-specific layer over :class:`PoolRunner`: an on-disk
    cache pass settles hits without touching the pool, then uncached jobs
    run through the generic fan-out and the results are written back.

    Parameters
    ----------
    workers:
        Pool size (default: :func:`default_workers`). ``1`` runs jobs
        inline in this process — no pool, no pickling.
    cache:
        Optional :class:`ResultCache` consulted before any job is
        submitted and updated as results arrive.
    job_timeout_s:
        Per-attempt deadline in seconds, measured from the job's own
        submission (see :class:`PoolRunner`). A timed-out attempt is
        resubmitted with a fresh deadline; a hung worker is killed and
        replaced rather than left occupying a pool slot. Ignored when
        ``workers == 1``.
    retries:
        Extra attempts after the first failure/timeout.
    progress:
        Callback ``(done, total, job_result)`` invoked as each job
        settles; use :func:`print_progress` for a stderr ticker.
    """

    def __init__(self, workers: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 job_timeout_s: Optional[float] = None,
                 retries: int = 1,
                 progress: Optional[Callable[[int, int, JobResult], None]] = None):
        self.workers = workers if workers is not None else default_workers()
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        self.cache = cache
        self.job_timeout_s = job_timeout_s
        self.retries = max(0, retries)
        self.progress = progress

    # -- execution -------------------------------------------------------------
    def run(self, jobs: Sequence[SweepJob]) -> List[JobResult]:
        """Run every job; the returned list is ordered like ``jobs``."""
        results: List[Optional[JobResult]] = [None] * len(jobs)
        todo: List[int] = []

        # Cache pass: settle hits without touching the pool.
        done = 0
        for i, job in enumerate(jobs):
            results[i] = JobResult.from_cache(self.cache, job)
            if results[i] is not None:
                done += 1
                if self.progress:
                    self.progress(done, len(jobs), results[i])
            else:
                todo.append(i)

        if todo:
            total = len(jobs)

            def _on_outcome(_done: int, _total: int, out: TaskOutcome) -> None:
                # PoolRunner indexes the todo-sublist; remap onto job indexes.
                nonlocal done
                done = self._settle(todo[out.index], self._to_job_result(out),
                                    results, done, total)

            pool = PoolRunner(_simulate_job, workers=self.workers,
                              job_timeout_s=self.job_timeout_s,
                              retries=self.retries, progress=_on_outcome)
            pool.run([jobs[i] for i in todo])

        out = [r for r in results if r is not None]
        assert len(out) == len(jobs)
        return out

    @staticmethod
    def _to_job_result(out: TaskOutcome) -> JobResult:
        if out.value is None:
            return JobResult(job=out.item, result=None, attempts=out.attempts,
                             error=out.error)
        result, wall, events = out.value
        return JobResult(job=out.item, result=result, wall_s=wall,
                         events=events, attempts=out.attempts)

    def _settle(self, i: int, jr: JobResult,
                results: List[Optional[JobResult]], done: int,
                total: int) -> int:
        results[i] = jr
        if jr.result is not None and self.cache:
            self.cache.put(jr.job.config, jr.job.workload, jr.job.ops,
                           jr.job.seed, jr.result)
        done += 1
        if self.progress:
            self.progress(done, total, jr)
        return done


class ExecutorError(RuntimeError):
    """An executor could not run a batch of specs at all (e.g. its broker
    is unreachable), as opposed to individual jobs failing."""


class LocalExecutor:
    """Run task specs on this host's process pool.

    The in-process twin of :class:`repro.fleet.client.FleetClient`: both
    turn specs into :class:`JobResult`\\ s in spec order through
    ``run(specs, progress)``, calling ``progress(done, total, job_result)``
    as each job settles, so a sweep or a campaign runs on either without
    knowing which. Every spec is validated and materialized before any
    job runs.
    """

    def __init__(self, workers: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 job_timeout_s: Optional[float] = None, retries: int = 1):
        self.runner = SweepRunner(workers=workers, cache=cache,
                                  job_timeout_s=job_timeout_s,
                                  retries=retries)

    def run(self, specs: Sequence[TaskSpec],
            progress: Optional[Callable[[int, int, JobResult], None]] = None,
            ) -> List[JobResult]:
        jobs = [s.build_job() for s in specs]
        self.runner.progress = progress
        return self.runner.run(jobs)


def print_progress(done: int, total: int, jr: JobResult) -> None:
    """Stderr progress ticker for interactive sweeps."""
    tag = "cache" if jr.cached else (
        "FAIL " if jr.result is None else f"{jr.wall_s:5.1f}s")
    print(f"  [{done:3d}/{total}] {tag}  {jr.job.label()}", file=sys.stderr)
