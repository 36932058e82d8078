"""Parallel sweep execution layer.

- :mod:`repro.exec.spec`   — the job records: descriptive ``TaskSpec``, its
  validator and materializer, and the executable ``SweepJob``
- :mod:`repro.exec.cache`  — content-addressed on-disk result cache
- :mod:`repro.exec.runner` — process-pool sweep runner and local executor
- :mod:`repro.exec.perf`   — wall-time / events-per-second bench harness

``analysis.tables`` delegates its memoization here, and the ``repro sweep``
CLI subcommand exposes grid runs directly.
"""

from repro.exec.cache import ResultCache, cache_from_flags, job_key
from repro.exec.runner import (
    ExecutorError, JobResult, LocalExecutor, PoolRunner, SweepRunner,
    TaskOutcome,
)
from repro.exec.spec import (
    SpecError, SweepJob, TaskSpec, build_config, expand_specs,
)

__all__ = [
    "ResultCache", "cache_from_flags", "job_key",
    "PoolRunner", "TaskOutcome",
    "SweepJob", "JobResult", "SweepRunner",
    "ExecutorError", "LocalExecutor",
    "SpecError", "TaskSpec", "build_config", "expand_specs",
]
