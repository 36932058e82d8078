"""Simulation-as-a-service: the ``repro serve`` async job server.

- :mod:`repro.serve.http`      — minimal asyncio HTTP/1.1 layer (stdlib
  only), the app shell and the run loop the fleet broker shares
- :mod:`repro.serve.jobs`      — job model, submission validation, store
- :mod:`repro.serve.broker`    — the task broker both job planes run on:
  priority queue, leases, attempts, idempotent settle
- :mod:`repro.serve.scheduler` — jobs on an embedded broker: tenant
  quotas, job state from task state, the local batch runner
- :mod:`repro.serve.metrics`   — plane metrics on the obs MetricRegistry
- :mod:`repro.serve.server`    — routes and app wiring

See ``docs/serving.md`` for the API and deployment guide.
"""

from repro.serve.jobs import Job, JobStore, parse_job_request
from repro.serve.metrics import ServerMetrics
from repro.serve.scheduler import QuotaExceeded, Scheduler
from repro.serve.server import ServeApp, run_server

__all__ = [
    "Job", "JobStore", "parse_job_request",
    "ServerMetrics", "QuotaExceeded", "Scheduler",
    "ServeApp", "run_server",
]
