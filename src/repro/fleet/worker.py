"""A fleet worker: lease tasks from a broker, simulate, settle results.

The worker is deliberately synchronous and stdlib-only — one loop that
polls ``POST /lease``, runs each granted task inline through a one-worker
:class:`~repro.exec.runner.SweepRunner` (the path every ``repro serve``
job takes at ``--pool-workers 1``), and settles the outcome back.
Parallelism is achieved by running more workers (on one host or many),
not by threading inside one; each worker is the unit the broker leases
to, times out, and steals from.

Two layers keep long simulations safe:

* the runner consults the (optionally shared) content-addressed result
  cache before simulating and stores into it after, both before the
  settle, so a task whose previous lease holder died *after* finishing
  settles instantly on the next worker — crash recovery is inherited
  from the cache, not reimplemented. Each lease gets one attempt; the
  broker's lease accounting is the only retry;
* while a task runs, a daemon heartbeat thread renews the lease at
  ``lease_s / 3`` intervals, so only a genuinely dead or wedged worker
  lets its lease expire.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from repro.exec.cache import ResultCache, cache_from_flags
from repro.exec.runner import JobResult, SweepRunner
from repro.exec.spec import TaskSpec
from repro.fleet.client import FleetClient

__all__ = ["FleetWorker", "run_worker"]


class BrokerGone(RuntimeError):
    """The broker stopped answering for longer than the grace window."""


class FleetWorker:
    """One lease/simulate/settle loop against a broker URL.

    Parameters
    ----------
    broker_url:
        ``http://host:port`` of a running ``repro fleet broker``.
    worker_id:
        Stable identity in lease/settle messages (default: host + pid).
    cache:
        Local (or shared) :class:`ResultCache`; hits settle without
        simulating and fresh results are stored before settling.
    poll_s:
        Sleep between empty leases.
    max_tasks:
        Tasks requested per lease call (they still run sequentially).
    oneshot:
        Exit once the broker reports ``closing`` with an empty queue
        (otherwise the worker polls until killed).
    broker_grace_s:
        Exit with :class:`BrokerGone` after this long without a
        reachable broker.
    trace_dir:
        When set, every freshly simulated task that carries an
        ``extras["trace"]`` span payload (i.e. was leased with
        ``tracing`` on) is also exported as Perfetto ``trace_event``
        JSON into this directory, named by its trace id and task id —
        the worker-side leg of distributed trace propagation. Cache
        hits are not exported (a stored result has no trace payload
        unless it was traced when stored).
    """

    def __init__(self, broker_url: str, worker_id: Optional[str] = None,
                 cache: Optional[ResultCache] = None, poll_s: float = 0.5,
                 max_tasks: int = 1, oneshot: bool = True,
                 broker_grace_s: float = 30.0,
                 trace_dir: Optional[Path] = None,
                 log: Callable[[str], None] = lambda msg: None):
        self.client = FleetClient(broker_url)
        self.broker_url = self.client.broker_url
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.cache = cache
        self.poll_s = poll_s
        self.max_tasks = max(1, max_tasks)
        self.oneshot = oneshot
        self.broker_grace_s = broker_grace_s
        self.trace_dir = Path(trace_dir) if trace_dir else None
        self.log = log
        self.tasks_run = 0
        self.tasks_cached = 0
        self.tasks_failed = 0
        self._stop = threading.Event()

    def _post(self, path: str, body: Dict[str, Any]) -> Dict[str, Any]:
        return self.client.request("POST", path, body)

    # -- execution -------------------------------------------------------------
    def stop(self) -> None:
        self._stop.set()

    def run(self) -> int:
        """Main loop; returns the number of tasks executed (not cached)."""
        self.log(f"worker {self.worker_id}: polling {self.broker_url}")
        last_contact = time.monotonic()
        while not self._stop.is_set():
            try:
                lease = self._post("/lease", {"worker": self.worker_id,
                                              "max": self.max_tasks})
            except (OSError, RuntimeError) as e:
                if time.monotonic() - last_contact > self.broker_grace_s:
                    raise BrokerGone(
                        f"broker unreachable for >{self.broker_grace_s}s: "
                        f"{e}") from None
                self._stop.wait(self.poll_s)
                continue
            last_contact = time.monotonic()
            tasks = lease.get("tasks", [])
            if not tasks:
                if lease.get("closing") and self.oneshot:
                    self.log(f"worker {self.worker_id}: broker draining; "
                             f"exiting after {self.tasks_run} task(s)")
                    return self.tasks_run
                self._stop.wait(self.poll_s)
                continue
            lease_s = float(lease.get("lease_s", 60.0))
            for ent in tasks:
                if self._stop.is_set():
                    break
                self._run_task(int(ent["id"]),
                               TaskSpec.from_dict(ent["spec"]), lease_s)
        return self.tasks_run

    def _run_task(self, task_id: int, spec: TaskSpec, lease_s: float) -> None:
        job = spec.build_job()
        heartbeat = self._start_heartbeat(task_id, lease_s)
        try:
            try:
                jr = SweepRunner(workers=1, cache=self.cache,
                                 retries=0).run([job])[0]
            except OSError as e:         # the cache directory failed
                jr = JobResult(job=job, result=None,
                               error=f"{type(e).__name__}: {e}")
            if jr.result is None:
                self.tasks_failed += 1
                settle: Dict[str, Any] = {"error": jr.error}
            else:
                if jr.cached:
                    self.tasks_cached += 1
                else:
                    self.tasks_run += 1
                    self._export_trace(task_id, jr)
                settle = {"payload": jr.to_wire()}
            try:
                out = self._post("/settle", {"worker": self.worker_id,
                                             "id": task_id, **settle})
            except (OSError, RuntimeError) as e:
                # Transport trouble mid-settle: the lease will expire and
                # the broker requeues; nothing to do here but log.
                self.log(f"worker {self.worker_id}: task {task_id} "
                         f"settle lost: {e}")
                return
            note = (jr.error if jr.result is None
                    else "cache" if jr.cached else f"{jr.wall_s:.1f}s")
            self.log(f"worker {self.worker_id}: task {task_id} "
                     f"{spec.label()} -> {out.get('status')} ({note})")
        finally:
            heartbeat.set()

    def _export_trace(self, task_id: int, jr: JobResult) -> None:
        """Write a freshly traced result's spans as Perfetto JSON."""
        if self.trace_dir is None or jr.result is None:
            return
        snap = jr.result.extras.get("trace")
        if not isinstance(snap, dict):
            return
        from repro.tracing.export import export_perfetto

        tid = snap.get("trace_id") or "local"
        path = self.trace_dir / f"trace-{tid}-task{task_id}.json"
        try:
            export_perfetto(snap, path)
            self.log(f"worker {self.worker_id}: task {task_id} trace -> {path}")
        except OSError as e:
            self.log(f"worker {self.worker_id}: trace export failed: {e}")

    def _start_heartbeat(self, task_id: int, lease_s: float) -> threading.Event:
        """Renew the lease on a daemon thread until the returned event fires."""
        done = threading.Event()
        interval = max(0.05, lease_s / 3.0)

        def beat() -> None:
            while not done.wait(interval):
                try:
                    self._post("/renew", {"worker": self.worker_id,
                                          "ids": [task_id]})
                except (OSError, RuntimeError):
                    return               # broker gone; let the lease expire

        threading.Thread(target=beat, name=f"heartbeat-{task_id}",
                         daemon=True).start()
        return done


def run_worker(broker_url: str, worker_id: Optional[str], poll_s: float,
               max_tasks: int, oneshot: bool, no_cache: bool = False,
               cache_dir: Optional[str] = None,
               trace_dir: Optional[str] = None) -> int:
    """Blocking entry point for ``repro fleet worker`` (returns exit code)."""
    import signal
    import sys

    worker = FleetWorker(
        broker_url, worker_id=worker_id,
        cache=cache_from_flags(cache_dir, no_cache), poll_s=poll_s,
        max_tasks=max_tasks, oneshot=oneshot,
        trace_dir=Path(trace_dir) if trace_dir else None,
        log=lambda msg: print(msg, file=sys.stderr, flush=True))
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda *_: worker.stop())
    try:
        ran = worker.run()
    except BrokerGone as e:
        print(f"repro fleet worker: {e}", file=sys.stderr)
        return 1
    print(f"repro fleet worker {worker.worker_id}: done "
          f"({ran} executed, {worker.tasks_cached} from cache, "
          f"{worker.tasks_failed} failed)", flush=True)
    return 0
