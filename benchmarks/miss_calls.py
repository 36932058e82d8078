#!/usr/bin/env python
"""Deterministic host cost of the simulated L2-miss path: calls per miss.

For each point, one ``simulate()`` at ``OPS`` ops per core and seed ``SEED``
runs with a ``sys.setprofile`` counter live during every ``Simulator.run``
(the timed warmup and the measured phase; functional warmup and result
aggregation are outside). It counts ``call`` events (Python functions,
generator resumptions included) and ``c_call`` events (builtins and C
methods), and divides each count by the run's measured L2 misses
(``extras["l2_misses"]``). The cyclic garbage collector is flushed before
and paused during each run, so finalizers of objects left behind by
earlier work in the process never count.

The counts depend on the Python version (3.12 inlines comprehensions, for
one), not on host speed, so CI can ratchet them exactly. The ceilings in
``miss_calls.json`` were recorded on Python 3.11.

Usage::

    PYTHONPATH=src python benchmarks/miss_calls.py            # print counts
    PYTHONPATH=src python benchmarks/miss_calls.py --check    # vs ceilings
    PYTHONPATH=src python benchmarks/miss_calls.py --record   # new ceilings

``--check`` exits 1 when any count rises above its committed ceiling.
``--record`` rewrites the ceilings as the current counts rounded up to
two decimals; run it when a change lowers the counts. The observer row is
``obs="on", tracing="on"`` minus both off, on the observed point.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from typing import Dict, Tuple

from repro.engine.kernel import Simulator
from repro.system.config import ALL_CONFIGS
from repro.system.sim import simulate
from repro.workloads import get_workload

#: (config, workload) points the counts cover.
POINTS = (("ddr-baseline", "stream-copy"), ("coaxial-4x", "stream-copy"),
          ("coaxial-4x", "mcf"))
#: The point whose observer delta is reported.
OBSERVED = ("coaxial-4x", "mcf")
#: Ops per core and seed of every counted run; the ceilings hold for these.
OPS = 1000
SEED = 1
CEILINGS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "miss_calls.json")


def calls_per_miss(config: str, workload: str, ops: int = OPS,
                   seed: int = SEED, obs: str = "off",
                   tracing: str = "off") -> Tuple[float, float]:
    """(Python calls, builtin calls) per measured L2 miss for one run."""
    counts = [0, 0]

    def profile(frame, event, arg) -> None:
        if event == "call":
            counts[0] += 1
        elif event == "c_call":
            counts[1] += 1

    run = Simulator.run

    def counted_run(self, until=None):
        sys.setprofile(profile)
        try:
            return run(self, until)
        finally:
            sys.setprofile(None)

    Simulator.run = counted_run
    gc.collect()
    gc.disable()
    try:
        result = simulate(ALL_CONFIGS[config](), get_workload(workload),
                          ops_per_core=ops, seed=seed, validate="off",
                          obs=obs, tracing=tracing)
    finally:
        gc.enable()
        Simulator.run = run
    misses = result.extras["l2_misses"]
    return counts[0] / misses, counts[1] / misses


def measure() -> Dict[str, Tuple[float, float]]:
    """Counts per point, plus the observer delta, keyed by row name."""
    rows = {f"{c}/{w}": calls_per_miss(c, w) for c, w in POINTS}
    key = "/".join(OBSERVED)
    on = calls_per_miss(*OBSERVED, obs="on", tracing="on")
    rows[f"{key} observer delta"] = (on[0] - rows[key][0],
                                     on[1] - rows[key][1])
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help=f"fail when a count exceeds {os.path.basename(CEILINGS)}")
    ap.add_argument("--record", action="store_true",
                    help=f"write the counts to {os.path.basename(CEILINGS)}")
    args = ap.parse_args(argv)

    rows = measure()
    if args.record:
        with open(CEILINGS, "w") as fh:
            json.dump({"python": "%d.%d" % sys.version_info[:2],
                       "rows": {k: [math.ceil(v * 100) / 100 for v in pair]
                                for k, pair in rows.items()}},
                      fh, indent=1)
            fh.write("\n")
    ceilings = {}
    if args.check:
        with open(CEILINGS) as fh:
            ceilings = json.load(fh)
    print(f"{'point':<40s} {'python/miss':>12s} {'builtin/miss':>13s}")
    failed = []
    for name, (py, c) in rows.items():
        line = f"{name:<40s} {py:12.2f} {c:13.2f}"
        if args.check:
            cap_py, cap_c = ceilings["rows"][name]
            line += f"   ceiling {cap_py:.2f} / {cap_c:.2f}"
            if py > cap_py or c > cap_c:
                failed.append(name)
        print(line)
    if failed:
        print(f"FAIL: calls per miss above the ceiling: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
