"""Evaluate the parity registry over a reduced-scale simulation grid.

The grid runs through :func:`repro.analysis.tables.run_suite`, so every
(config, workload) pair is memoized in-process and in the content-addressed
on-disk cache — re-evaluating a blessed suite is near-free, and ``workers``
fans uncached runs across the process pool.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.analysis.tables import run_suite
from repro.parity.registry import (
    BASELINE_CONFIG, REGISTRY, ParityContext, ParityMetric, ParitySuite,
)
from repro.system.config import ALL_CONFIGS


def build_context(suite: ParitySuite, workers: int = 1,
                  progress: Optional[Callable[[str], None]] = None) -> ParityContext:
    """Simulate (or recall from cache) the full grid for ``suite``."""
    if BASELINE_CONFIG not in suite.configs:
        raise ValueError(f"suite must include the {BASELINE_CONFIG!r} config")
    suites = {}
    for name in suite.configs:
        if name not in ALL_CONFIGS:
            raise KeyError(f"unknown config {name!r}; valid: {list(ALL_CONFIGS)}")
        if progress:
            progress(f"evaluating {name} over {len(suite.workloads)} workloads")
        suites[name] = run_suite(ALL_CONFIGS[name](), suite.workloads,
                                 ops_per_core=suite.ops, seed=suite.seed,
                                 workers=workers)
    return ParityContext(suites, suite=suite)


def evaluate(suite: Optional[ParitySuite] = None, workers: int = 1,
             registry: Sequence[ParityMetric] = REGISTRY,
             progress: Optional[Callable[[str], None]] = None) -> Dict[str, float]:
    """Measure every registry metric at the suite's scale; id -> value."""
    suite = suite if suite is not None else ParitySuite()
    ctx = build_context(suite, workers=workers, progress=progress)
    return {m.id: float(m.extract(ctx)) for m in registry}
