"""Suite runner: simulate many (config, workload) pairs with caching.

The figure/table benches share most of their simulation work (e.g. Figure 5
and Figure 9 both need the baseline runs across all 36 workloads), so
:func:`run_one` memoizes results at two levels:

1. an in-process dict keyed by the *complete* config fingerprint (every
   ``SystemConfig`` field via ``dataclasses.asdict``, so configs differing
   in any knob never alias — see :func:`repro.exec.cache.job_key`), and
2. the on-disk content-addressed cache (:mod:`repro.exec.cache`), which
   survives across processes so a rerun of the bench suite is near-free.
   Disable with ``REPRO_NO_DISK_CACHE=1``; relocate with
   ``REPRO_CACHE_DIR``.

Whole grids are better served by the process-pool sweep runner
(:mod:`repro.exec.runner` / the ``repro sweep`` CLI), which shares the same
cache; :func:`run_suite` accepts ``workers`` to opt into it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.exec.cache import ResultCache, disk_cache_enabled, job_key
from repro.system.config import SystemConfig
from repro.system.stats import SimResult

_cache: Dict[Tuple, SimResult] = {}
_disk: Optional[ResultCache] = None


def _disk_cache() -> ResultCache:
    """The process-wide on-disk cache layer (lazily constructed)."""
    global _disk
    if _disk is None:
        _disk = ResultCache(enabled=disk_cache_enabled())
    return _disk


def _key(cfg: SystemConfig, workload: str, ops: Optional[int], seed: int) -> Tuple:
    """In-process memo key: the full config fingerprint + job coordinates."""
    return job_key(cfg, workload, ops, seed)


@dataclass
class SuiteResult:
    """Results of one configuration across a list of workloads."""

    config: SystemConfig
    results: Dict[str, SimResult] = field(default_factory=dict)

    def __getitem__(self, workload: str) -> SimResult:
        return self.results[workload]

    def ipcs(self) -> Dict[str, float]:
        return {w: r.ipc for w, r in self.results.items()}


def run_one(cfg: SystemConfig, workload: str, ops_per_core: Optional[int] = None,
            seed: int = 1) -> SimResult:
    """Simulate one pair, memoized in-process and on disk."""
    key = _key(cfg, workload, ops_per_core, seed)
    if key in _cache:
        return _cache[key]
    disk = _disk_cache()
    result = disk.get(cfg, workload, ops_per_core, seed)
    if result is None:
        from repro.system.sim import simulate
        from repro.workloads.catalog import get_workload

        result = simulate(cfg, get_workload(workload), ops_per_core, seed=seed)
        disk.put(cfg, workload, ops_per_core, seed, result)
    _cache[key] = result
    return result


def run_suite(cfg: SystemConfig, workloads: Sequence[str],
              ops_per_core: Optional[int] = None, seed: int = 1,
              workers: int = 1) -> SuiteResult:
    """Simulate ``cfg`` across ``workloads`` (memoized).

    ``workers > 1`` fans uncached runs across a process pool via
    :class:`repro.exec.runner.SweepRunner`; results land in the same
    caches either way.
    """
    out = SuiteResult(config=cfg)
    if workers > 1:
        from repro.exec.runner import SweepJob, SweepRunner

        todo = [w for w in workloads
                if _key(cfg, w, ops_per_core, seed) not in _cache]
        runner = SweepRunner(workers=workers, cache=_disk_cache())
        jobs = [SweepJob(cfg, w, ops_per_core, seed) for w in todo]
        for jr in runner.run(jobs):
            if jr.result is None:
                raise RuntimeError(f"sweep job failed: {jr.job.label()}: {jr.error}")
            _cache[_key(cfg, jr.job.workload, ops_per_core, seed)] = jr.result
    for w in workloads:
        out.results[w] = run_one(cfg, w, ops_per_core, seed)
    return out


def clear_cache() -> None:
    """Drop in-process memoized results (tests that mutate configs use this).

    Does not touch the on-disk layer; use
    ``repro.exec.cache.ResultCache().clear()`` (or ``repro sweep
    --clear-cache``) for that.
    """
    _cache.clear()
