#!/usr/bin/env python
"""Where ``simulate()`` spends host time on the job-service points.

Runs ``simulate()`` on the 32 ``job-service`` grid points of trace seeds 1-2
(perfbench's ``SERVICE_CONFIGS`` x ``SERVICE_WORKLOADS`` at ``SERVICE_OPS``
ops per core), untraced, in one process pinned to one CPU, and times each
phase with a clock read around its entry point in :mod:`repro.system.sim`:

- trace generation: ``_workload_traces``, the timed traces;
- warm samples: ``_warmup_traces``, phase 0's disjoint samples;
- replay: ``_replay_functional_lru``, phase 0's functional warmup, with its
  ``lru_pass`` and ``_load_lru`` calls shown inside it;
- timed run: ``Simulator.run``, the timed warmup and the measured phase;
- other: the rest of ``simulate()`` (building the chip, splitting the
  traces, aggregating the result).

Each row is the best of ``REPS`` passes over all 32 points, and each share
is of the best pass's ``simulate()`` total. ``perfbench/`` is only read.

Usage::

    PYTHONPATH=src python benchmarks/phase_split.py
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

from jobs import SERVICE_CONFIGS, SERVICE_OPS, SERVICE_WORKLOADS  # noqa: E402

from repro.engine.kernel import Simulator  # noqa: E402
from repro.system import sim  # noqa: E402
from repro.system.config import ALL_CONFIGS  # noqa: E402
from repro.workloads import get_workload  # noqa: E402

SEEDS = (1, 2)
REPS = 3
#: (row label, owner, attribute) of each timed entry point, in table order.
PHASES = (
    ("trace generation", sim, "_workload_traces"),
    ("warm samples", sim, "_warmup_traces"),
    ("replay", sim, "_replay_functional_lru"),
    ("  lru_pass", sim, "lru_pass"),
    ("  _load_lru", sim, "_load_lru"),
    ("timed run", Simulator, "run"),
)


def timed(fn, label, totals):
    def shim(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[label] += time.perf_counter() - t0
    return shim


def one_pass(points) -> dict:
    """Seconds per phase, and ``simulate()``'s total, over ``points``."""
    totals = dict.fromkeys([p[0] for p in PHASES] + ["total"], 0.0)
    saved = [(owner, attr, getattr(owner, attr)) for _, owner, attr in PHASES]
    for (label, _, _), (owner, attr, fn) in zip(PHASES, saved):
        setattr(owner, attr, timed(fn, label, totals))
    try:
        for cfg, workload, seed in points:
            t0 = time.perf_counter()
            sim.simulate(ALL_CONFIGS[cfg](), get_workload(workload),
                         ops_per_core=SERVICE_OPS, seed=seed, validate="off",
                         obs="off", tracing="off")
            totals["total"] += time.perf_counter() - t0
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
    return totals


def main() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    points = [(c, w, s) for c in SERVICE_CONFIGS for w in SERVICE_WORKLOADS
              for s in SEEDS]
    passes = [one_pass(points) for _ in range(REPS)]
    best = {k: min(p[k] for p in passes) for k in passes[0]}
    top = [label for label, _, _ in PHASES if not label.startswith(" ")]
    best["other"] = min(p["total"] - sum(p[k] for k in top) for p in passes)
    print(f"{len(points)} points, best of {REPS}")
    print("| phase | host time | share of simulate() |")
    print("|---|---|---|")
    for label in [p[0] for p in PHASES] + ["other", "total"]:
        name = "simulate() total" if label == "total" else label
        print(f"| {name} | {best[label] * 1e3:.1f} ms "
              f"| {100 * best[label] / best['total']:.1f}% |")


if __name__ == "__main__":
    main()
