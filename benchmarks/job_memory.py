#!/usr/bin/env python
"""Deterministic host memory of one simulation job: held after, peak inside.

For each point, one ``simulate()`` at ``OPS`` ops per core and seed ``SEED``
runs under ``tracemalloc``, with the cyclic garbage collector flushed
before and paused during the run. A short run of every point goes first,
so the modules ``simulate()`` imports on its first call and the
interpreter's free lists count in no row. Two numbers come out:

- *held*: the bytes still allocated once ``simulate()`` has returned and
  its result is dropped. A finished job should leave nothing behind, so
  a chip kept alive by a reference cycle (freed only by a later
  collection) shows here as megabytes;
- *peak*: the most bytes allocated at once inside the run.

Like ``miss_calls.py``'s counts, both depend on the Python version and
the numpy build, not on host speed or on when the collector would have
run. The peak ceilings in ``job_memory.json`` were recorded on Python
3.11 with numpy 2.4.6.

Usage::

    PYTHONPATH=src python benchmarks/job_memory.py            # print bytes
    PYTHONPATH=src python benchmarks/job_memory.py --check    # vs limits
    PYTHONPATH=src python benchmarks/job_memory.py --record   # new ceilings

``--check`` exits 1 when a job holds more than :data:`HELD_LIMIT` bytes
after it returns (a fixed limit, never recorded) or when a peak rises
above its committed ceiling. ``--record`` rewrites the ceilings as the
current peaks rounded up to 0.1 MB.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import tracemalloc
from typing import Dict, Tuple

from repro.system.config import ALL_CONFIGS
from repro.system.sim import simulate
from repro.workloads import get_workload

#: (config, workload) points measured: those of miss_calls.py.
POINTS = (("ddr-baseline", "stream-copy"), ("coaxial-4x", "stream-copy"),
          ("coaxial-4x", "mcf"))
#: Ops per core and seed of every measured run; the ceilings hold for these.
OPS = 1000
SEED = 1
#: Ops per core of the warm-up runs.
WARM_OPS = 20
#: Bytes a finished job may leave allocated: the interpreter's free lists
#: and small caches, far below one chip (megabytes).
HELD_LIMIT = 256 * 1024
MB = 1e6
CEILINGS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "job_memory.json")


def job_memory(config: str, workload: str, ops: int = OPS,
               seed: int = SEED) -> Tuple[int, int]:
    """(bytes held after the job returned, peak bytes inside it)."""
    cfg, spec = ALL_CONFIGS[config](), get_workload(workload)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        simulate(cfg, spec, ops_per_core=ops, seed=seed, validate="off",
                 obs="off", tracing="off")
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    return held, peak


def measure() -> Dict[str, Tuple[int, int]]:
    """(held, peak) bytes per point, keyed by row name, after warm-up."""
    for c, w in POINTS:
        job_memory(c, w, ops=WARM_OPS)
    return {f"{c}/{w}": job_memory(c, w) for c, w in POINTS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="fail when a job holds memory after it returns, or "
                         f"a peak exceeds {os.path.basename(CEILINGS)}")
    ap.add_argument("--record", action="store_true",
                    help=f"write the peaks to {os.path.basename(CEILINGS)}")
    args = ap.parse_args(argv)

    rows = measure()
    if args.record:
        with open(CEILINGS, "w") as fh:
            json.dump({"python": "%d.%d" % sys.version_info[:2],
                       "peak_mb": {k: math.ceil(peak / MB * 10) / 10
                                   for k, (_, peak) in rows.items()}},
                      fh, indent=1)
            fh.write("\n")
    ceilings = {}
    if args.check:
        with open(CEILINGS) as fh:
            ceilings = json.load(fh)["peak_mb"]
    print(f"{'point':<28s} {'held KiB':>10s} {'peak MB':>9s}")
    failed = []
    for name, (held, peak) in rows.items():
        line = f"{name:<28s} {held / 1024:10.1f} {peak / MB:9.2f}"
        if args.check:
            line += (f"   limits {HELD_LIMIT // 1024} KiB / "
                     f"{ceilings[name]:.1f} MB")
            if held > HELD_LIMIT or peak > ceilings[name] * MB:
                failed.append(name)
        print(line)
    if failed:
        print(f"FAIL: memory held after the job or peak above the ceiling: "
              f"{', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
