"""Job model for the simulation job server.

A submitted job is a small sweep: the JSON body names configs, workloads,
ops, and seeds exactly like ``repro sweep`` flags, and expands through
:func:`repro.exec.runner.expand_grid` into :class:`SweepJob` tasks at
submission time — so an invalid config or workload is rejected with a 400
before anything is queued. Each job carries a tenant (for quotas), a
priority (higher runs first), and an append-only event log that the
streaming endpoint replays and tails.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.exec.runner import JobResult, SweepJob, expand_grid
from repro.workloads import workload_names

__all__ = ["Job", "JobStore", "parse_job_request",
           "JOB_STATES", "TERMINAL_STATES"]

#: Lifecycle: queued -> running -> one of the terminal states. ``timed_out``
#: means at least one task exhausted its attempts on the per-job deadline;
#: ``failed`` means a task failed for any other reason.
JOB_STATES = ("queued", "running", "done", "failed", "timed_out", "cancelled")
TERMINAL_STATES = ("done", "failed", "timed_out", "cancelled")

#: Submission caps: a job is one interactive sweep, not a campaign.
MAX_TASKS_PER_JOB = 256
MAX_PRIORITY = 1_000_000


class BadRequest(ValueError):
    """Submission payload rejected (maps to HTTP 400)."""


def parse_job_request(payload: Dict[str, Any],
                      default_tenant: str = "default") -> Dict[str, Any]:
    """Validate a submission body into normalized job fields.

    Returns ``{"tenant", "priority", "spec", "tasks"}`` where ``tasks`` is
    the expanded :class:`SweepJob` list. Raises :class:`BadRequest` with a
    client-facing message on any invalid field.
    """
    if not isinstance(payload, dict):
        raise BadRequest("job submission must be a JSON object")
    known = {"configs", "workloads", "ops", "seeds", "priority", "tenant",
             "validate", "tracing"}
    unknown = set(payload) - known
    if unknown:
        raise BadRequest(f"unknown field(s): {', '.join(sorted(unknown))}; "
                         f"expected a subset of {sorted(known)}")

    def str_list(key: str, required: bool) -> List[str]:
        val = payload.get(key)
        if val is None:
            if required:
                raise BadRequest(f"missing required field {key!r}")
            return []
        if isinstance(val, str):
            val = [v.strip() for v in val.split(",") if v.strip()]
        if (not isinstance(val, list) or not val
                or not all(isinstance(v, str) for v in val)):
            raise BadRequest(f"{key!r} must be a non-empty list of strings")
        return val

    configs = str_list("configs", required=True)
    workloads = str_list("workloads", required=True)
    valid_workloads = set(workload_names())
    bad = [w for w in workloads if w not in valid_workloads]
    if bad:
        raise BadRequest(f"unknown workload(s): {', '.join(bad)}")

    ops = payload.get("ops")
    if ops is not None and (not isinstance(ops, int) or ops < 1):
        raise BadRequest("'ops' must be a positive integer")
    seeds = payload.get("seeds", [1])
    if isinstance(seeds, int):
        seeds = [seeds]
    if (not isinstance(seeds, list) or not seeds
            or not all(isinstance(s, int) for s in seeds)):
        raise BadRequest("'seeds' must be a non-empty list of integers")

    priority = payload.get("priority", 0)
    if not isinstance(priority, int) or abs(priority) > MAX_PRIORITY:
        raise BadRequest(f"'priority' must be an integer in "
                         f"[-{MAX_PRIORITY}, {MAX_PRIORITY}]")
    tenant = payload.get("tenant", default_tenant)
    if not isinstance(tenant, str) or not tenant.strip():
        raise BadRequest("'tenant' must be a non-empty string")
    tenant = tenant.strip()

    validate = payload.get("validate")
    if validate is not None and validate not in ("off", "on", "strict"):
        raise BadRequest("'validate' must be one of off/on/strict")
    tracing = payload.get("tracing")
    if tracing is not None and tracing not in ("off", "on", "kernel"):
        raise BadRequest("'tracing' must be one of off/on/kernel")

    try:
        tasks = expand_grid(configs, workloads, ops=ops, seeds=seeds,
                            validate=validate, tracing=tracing)
    except KeyError as e:
        raise BadRequest(str(e).strip("'\"")) from None
    if len(tasks) > MAX_TASKS_PER_JOB:
        raise BadRequest(f"job expands to {len(tasks)} tasks; the limit is "
                         f"{MAX_TASKS_PER_JOB}")
    spec = {"configs": configs, "workloads": workloads, "ops": ops,
            "seeds": seeds, "validate": validate, "tracing": tracing}
    return {"tenant": tenant, "priority": priority, "spec": spec,
            "tasks": tasks}


@dataclass
class Job:
    """One accepted job and its full lifecycle state.

    Mutated only on the event loop thread (worker-thread progress is
    marshalled over ``call_soon_threadsafe``), so readers on the loop see
    a consistent snapshot without locks.
    """

    id: str
    tenant: str
    priority: int
    spec: Dict[str, Any]
    tasks: List[SweepJob]
    #: Distributed trace id minted at submission; every task is stamped
    #: with it so a traced worker-side span export names this job.
    trace_id: str = ""
    state: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    done_tasks: int = 0
    cached_tasks: int = 0
    failed_tasks: int = 0
    timed_out_tasks: int = 0
    error: Optional[str] = None
    results: Optional[List[JobResult]] = None
    #: Append-only progress log for the streaming endpoint.
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: Signalled (on the loop) whenever ``events`` grows or state changes.
    changed: asyncio.Event = field(default_factory=asyncio.Event, repr=False)

    @property
    def total_tasks(self) -> int:
        return len(self.tasks)

    def touch(self) -> None:
        """Wake every streaming reader; they re-arm the event themselves."""
        self.changed.set()
        self.changed = asyncio.Event()

    def add_event(self, kind: str, **fields: Any) -> None:
        self.events.append({"event": kind, "job": self.id,
                            "t": time.time(), **fields})
        self.touch()

    def summary(self) -> Dict[str, Any]:
        """Status JSON: everything but the per-task results payload."""
        wall = None
        if self.started_at is not None:
            wall = (self.finished_at or time.time()) - self.started_at
        return {
            "id": self.id, "tenant": self.tenant, "priority": self.priority,
            "trace_id": self.trace_id,
            "state": self.state, "spec": self.spec,
            "total_tasks": self.total_tasks, "done_tasks": self.done_tasks,
            "cached_tasks": self.cached_tasks,
            "failed_tasks": self.failed_tasks,
            "timed_out_tasks": self.timed_out_tasks,
            "submitted_at": self.submitted_at, "started_at": self.started_at,
            "finished_at": self.finished_at, "wall_s": wall,
            "error": self.error,
        }

    def result_payload(self) -> Dict[str, Any]:
        """Full result JSON (only meaningful once terminal)."""
        tasks = []
        for jr in self.results or []:
            tasks.append({
                "label": jr.job.label(),
                "config": jr.job.config.name,
                "workload": jr.job.workload,
                "ops": jr.job.ops, "seed": jr.job.seed,
                "cached": jr.cached, "attempts": jr.attempts,
                "wall_s": jr.wall_s, "events": jr.events,
                "events_per_s": jr.events_per_s,
                "error": jr.error,
                "result": None if jr.result is None
                else dataclasses.asdict(jr.result),
            })
        return {**self.summary(), "tasks": tasks}


class JobStore:
    """In-memory job registry with bounded retention of finished jobs."""

    def __init__(self, keep_finished: int = 512):
        self._jobs: Dict[str, Job] = {}
        self._seq = 0
        self.keep_finished = keep_finished

    def create(self, parsed: Dict[str, Any]) -> Job:
        self._seq += 1
        # Mint the distributed trace id here — submission is the root of
        # the causal chain — and stamp it onto every expanded task so it
        # survives the lease/settle round trip and lands in any traced
        # result's extras["trace"].
        trace_id = uuid.uuid4().hex
        tasks = [dataclasses.replace(t, trace_id=trace_id)
                 for t in parsed["tasks"]]
        job = Job(id=f"job-{self._seq:06d}", tenant=parsed["tenant"],
                  priority=parsed["priority"], spec=parsed["spec"],
                  tasks=tasks, trace_id=trace_id)
        self._jobs[job.id] = job
        self._evict()
        return job

    def get(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        return list(self._jobs.values())

    def tenant_live(self, tenant: str) -> int:
        """Queued + running jobs currently held by one tenant."""
        return sum(1 for j in self._jobs.values()
                   if j.tenant == tenant and j.state in ("queued", "running"))

    def _evict(self) -> None:
        finished = [j for j in self._jobs.values()
                    if j.state in TERMINAL_STATES]
        excess = len(finished) - self.keep_finished
        if excess <= 0:
            return
        finished.sort(key=lambda j: j.finished_at or j.submitted_at)
        for j in finished[:excess]:
            del self._jobs[j.id]
