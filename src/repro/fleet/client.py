"""Client-side fleet access: submit specs, collect ordered results.

:class:`FleetClient` talks to a :class:`~repro.fleet.broker.BrokerApp`
over HTTP. Its ``run(specs, progress)`` is the fleet twin of
:class:`repro.exec.runner.LocalExecutor`'s, which runs the identical
specs on this host's process pool: same specs in, same
:class:`JobResult` list out, same ``progress(done, total, job_result)``
ticks. That is what lets ``repro sweep``, the campaign driver and the
smoke's bit-identity check switch between one process pool and a fleet
of hosts without changing anything above the executor.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.exec.runner import ExecutorError, JobResult
from repro.exec.spec import TaskSpec

__all__ = ["FleetClient", "FleetError"]

#: Seconds one HTTP request to the broker may take.
HTTP_TIMEOUT_S = 30.0


class FleetError(ExecutorError):
    """A broker request failed (HTTP error or unreachable)."""


class FleetClient:
    """Synchronous HTTP client for one fleet broker.

    Parameters
    ----------
    broker_url:
        ``http://host:port`` of a running ``repro fleet broker``.
    job_timeout_s:
        Per-job deadline in seconds, measured from submission, as on the
        local pool: a task still unsettled past it comes back from
        :meth:`run` failed with a timeout error (it stays on the broker).
    poll_s:
        Seconds between task-state polls in :meth:`run`.
    """

    def __init__(self, broker_url: str,
                 job_timeout_s: Optional[float] = None, poll_s: float = 0.2):
        self.broker_url = broker_url.rstrip("/")
        host = self.broker_url.split("://", 1)[-1]
        self.host, _, port = host.partition(":")
        self.port = int(port or 80)
        self.job_timeout_s = job_timeout_s
        self.poll_s = poll_s

    # -- transport -------------------------------------------------------------
    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """One JSON request; a :class:`FleetError` on any failure."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=HTTP_TIMEOUT_S)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            conn.request(method, path, body=payload,
                         headers={"Content-Type": "application/json"}
                         if payload else {})
            resp = conn.getresponse()
            data = resp.read()
        except OSError as e:
            raise FleetError(
                f"broker unreachable at {self.broker_url}: {e}") from None
        finally:
            conn.close()
        try:
            decoded = json.loads(data) if data else {}
        except json.JSONDecodeError:
            raise FleetError(f"{path}: non-JSON response "
                             f"({data[:200]!r})") from None
        if resp.status >= 400:
            raise FleetError(f"{method} {path} -> {resp.status}: "
                             f"{decoded.get('error', '?')}")
        return decoded

    # -- API -------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self.request("GET", "/healthz")

    def submit(self, specs: Sequence[TaskSpec]) -> List[int]:
        out = self.request("POST", "/tasks",
                           {"specs": [s.to_dict() for s in specs]})
        return [int(i) for i in out["ids"]]

    def tasks(self) -> Dict[str, Any]:
        return self.request("GET", "/tasks")

    def drain(self) -> None:
        self.request("POST", "/drain", {})

    def results(self, task_ids: Sequence[int]) -> List[JobResult]:
        """:class:`JobResult`\\ s of settled tasks, in task-id order."""
        ids = ",".join(str(i) for i in sorted(task_ids))
        out = self.request("GET", f"/results?ids={ids}")
        return [JobResult.from_wire(
                    TaskSpec.from_dict(ent["spec"]).build_job(), ent)
                for ent in out["results"]]

    def run(self, specs: Sequence[TaskSpec],
            progress: Optional[Callable[[int, int, JobResult], None]] = None,
            ) -> List[JobResult]:
        """Submit ``specs`` and collect each task as it settles.

        Results come back in spec order; ``progress`` sees each one as
        soon as the broker has it.
        """
        ids = self.submit(specs)
        slot = {tid: i for i, tid in enumerate(ids)}
        out: List[Optional[JobResult]] = [None] * len(ids)
        deadline = (None if self.job_timeout_s is None
                    else time.monotonic() + self.job_timeout_s)
        done = 0

        def settle(tid: int, jr: JobResult) -> None:
            nonlocal done
            out[slot[tid]] = jr
            done += 1
            if progress:
                progress(done, len(ids), jr)

        while True:
            fresh = sorted(t["id"] for t in self.tasks()["tasks"]
                           if t["id"] in slot and out[slot[t["id"]]] is None
                           and t["state"] in ("done", "failed"))
            if fresh:
                for tid, jr in zip(fresh, self.results(fresh)):
                    settle(tid, jr)
            if done == len(ids):
                return out
            if deadline is not None and time.monotonic() > deadline:
                for tid in ids:
                    if out[slot[tid]] is None:
                        settle(tid, JobResult(
                            job=specs[slot[tid]].build_job(), result=None,
                            error=f"timeout after {self.job_timeout_s}s"))
                return out
            time.sleep(self.poll_s)
