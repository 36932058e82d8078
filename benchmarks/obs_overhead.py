#!/usr/bin/env python
"""CI gate: observability + tracing overhead on simulation throughput.

Runs the same job in three modes and compares events/s:

* ``off``      — no observers at all (the reference throughput);
* ``obs``      — metrics + time-series sampling ("on"; the kernel
  profiler is excluded because CI wants the steady-state cost of
  leaving ``REPRO_OBS=1`` set, not the cost of an explicit profiling
  session);
* ``obs+trace`` — the same obs collector plus the causal span tracer
  (``tracing="on"``), the full always-on observability stack.

After one warmup run per mode, the modes run interleaved in one process,
one timed run of each per round, and each mode keeps its best of
``REPS`` rounds. Timing the modes in blocks (every ``off`` run, then
every ``obs`` run, ...) let host drift between the blocks read as
overhead; interleaved, drift lands on every mode alike.

Exit status: 0 when both observed modes stay within ``--gate`` of the
bare throughput (default 10%), 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.system.config import ALL_CONFIGS
from repro.system.sim import simulate
from repro.workloads import get_workload

CONFIG = "coaxial-4x"
WORKLOAD = "mcf"
OPS = 6000
SEED = 1
REPS = 5

#: mode -> (obs, tracing) as simulate() takes them.
MODES = {"off": ("off", "off"), "obs": ("on", "off"),
         "obs+trace": ("on", "on")}


def best_events_per_s() -> dict:
    """Best events/s of each mode over ``REPS`` interleaved rounds."""
    cfg = ALL_CONFIGS[CONFIG]()
    wl = get_workload(WORKLOAD)
    for obs, tracing in MODES.values():     # warmup
        simulate(cfg, wl, ops_per_core=OPS // 2, seed=SEED, obs=obs,
                 tracing=tracing)
    best = dict.fromkeys(MODES, 0.0)
    for _ in range(REPS):
        for name, (obs, tracing) in MODES.items():
            t0 = time.perf_counter()
            r = simulate(cfg, wl, ops_per_core=OPS, seed=SEED, obs=obs,
                         tracing=tracing)
            wall = time.perf_counter() - t0
            best[name] = max(best[name], r.extras["events_fired"] / wall)
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gate", type=float, default=0.10,
                    help="max tolerated fractional slowdown per observed mode")
    args = ap.parse_args(argv)

    best = best_events_per_s()
    off = best.pop("off")
    print(f"{'off':<10s}: {off:12.0f} events/s")
    failed = []
    for name, eps in best.items():
        slowdown = 1.0 - eps / off
        print(f"{name:<10s}: {eps:12.0f} events/s  "
              f"({100.0 * slowdown:+.2f}% vs off, "
              f"gate {100.0 * args.gate:.0f}%)")
        if slowdown > args.gate:
            failed.append(name)
    if failed:
        print(f"FAIL: overhead gate exceeded by: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
