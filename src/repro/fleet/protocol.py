"""Wire protocol of the sweep fleet: task specs out, result payloads back.

Tasks travel as :class:`repro.exec.spec.TaskSpec` dictionaries (``to_dict``
/ ``from_dict``), the same job description ``repro sweep``, ``repro
serve`` and the fuzzer build, so a broker task, a campaign search point
and a fuzz reproducer describe a config identically and the worker
materializes the exact :class:`SystemConfig` locally.

Results travel as the cache's own serialization: ``dataclasses.asdict``
of :class:`SimResult`, reconstructed with ``SimResult(**payload)`` — the
exact round trip the content-addressed disk cache already relies on, so
a result settled over the wire is bit-identical to one settled through a
shared cache directory.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict

from repro.exec.runner import JobResult
from repro.exec.spec import SweepJob
from repro.system.stats import SimResult

__all__ = ["result_to_wire", "result_from_wire"]


def result_to_wire(jr: JobResult) -> Dict[str, Any]:
    """One settled job's execution record as a JSON-able payload.

    The spec identifies the task, so only the outcome rides here.
    """
    return {
        "result": None if jr.result is None else dataclasses.asdict(jr.result),
        "wall_s": jr.wall_s,
        "events": jr.events,
        "cached": jr.cached,
        "attempts": jr.attempts,
        "error": jr.error,
    }


def result_from_wire(job: SweepJob, payload: Dict[str, Any]) -> JobResult:
    """Reconstruct a :class:`JobResult` from its wire payload."""
    raw = payload.get("result")
    result = SimResult(**raw) if raw is not None else None
    return JobResult(job=job, result=result,
                     wall_s=float(payload.get("wall_s", 0.0)),
                     events=int(payload.get("events", 0)),
                     cached=bool(payload.get("cached", False)),
                     attempts=int(payload.get("attempts", 0)),
                     error=payload.get("error"))
