#!/usr/bin/env python
"""Check every ``perfbench/expected.json`` digest in one process.

A short ``perfbench/run.py`` run only reaches the first few jobs of each
workload. This runs every point any benchmark seed can generate
(``jobs.universe()``: the inline simulation points and the service grid)
through ``simulate()`` and compares each ``SimResult`` digest with the
committed one. ``perfbench/`` is only read. The digests were recorded on
Python 3.11 with numpy 2.4.6; other versions may disagree.

Usage::

    python benchmarks/perfbench_digests.py

Exits 1, naming each point, when any result differs or raises.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

from jobs import digest, load_expected, run_inline, universe  # noqa: E402


def main() -> int:
    expected = load_expected()
    jobs = universe()
    bad = []
    t0 = time.perf_counter()
    for job in jobs:
        try:
            got = digest(dataclasses.asdict(run_inline(job)))
        except Exception as e:  # a crash is a mismatch, not a dead check
            got = f"raised {type(e).__name__}: {e}"
        if got != expected.get(job.label):
            bad.append(job.label)
            print(f"MISMATCH {job.label}: {got}", file=sys.stderr)
    print(f"{len(jobs) - len(bad)}/{len(jobs)} digests match "
          f"({time.perf_counter() - t0:.0f} s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
