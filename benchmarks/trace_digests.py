#!/usr/bin/env python
"""SHA-256 of the catalog generators' traces, field by field.

Every catalog workload's ``generate(n, seed)`` at each ``POINTS`` pair, and
each of ``make_mixes``' traces, is hashed over every field of the trace
record (name, dtype and bytes, in ``TRACE_DTYPE`` order): one digest per
workload and point, one per mix. The digests cover generator branches that
perfbench's result digests never reach (``hot_cold`` with ``spatial`` > 1 or
``burst`` > 0, ``strided`` with reuse), so a change to a generator's draw
order or arithmetic shows here even where no benchmark job reaches it.

The bytes depend on numpy's random streams, so the committed digests hold
for the numpy version recorded beside them; CI checks them where numpy is
pinned to that version.

Usage::

    PYTHONPATH=src python benchmarks/trace_digests.py            # print
    PYTHONPATH=src python benchmarks/trace_digests.py --check    # vs file
    PYTHONPATH=src python benchmarks/trace_digests.py --record   # rewrite

``--check`` exits 1 when any digest differs from the committed one or a row
is missing. ``--record`` rewrites the file; run it only when a change is
meant to move the traces.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Dict, Iterable

import numpy as np

from repro.cpu.trace import TRACE_DTYPE, Trace
from repro.workloads import WORKLOADS, make_mixes

#: (ops, seed) pairs each catalog workload is generated at: one short
#: trace and one longer than a job-service warm sample.
POINTS = ((250, 1), (13_000, 7))
#: Ops per core of the ``make_mixes`` traces (its default mix count and
#: core count are kept).
MIX_OPS = 500
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "trace_digests.json")


def digest(traces: Iterable[Trace]) -> str:
    """SHA-256 over every field of each trace, in order."""
    h = hashlib.sha256()
    for trace in traces:
        for name in TRACE_DTYPE.names:
            col = np.ascontiguousarray(trace.arr[name])
            h.update(f"{name}:{col.dtype.str}:{len(col)};".encode())
            h.update(col.tobytes())
    return h.hexdigest()


def measure() -> Dict[str, str]:
    """Digest per row name: ``<workload> n=<ops> seed=<seed>``, then the
    mixes by name."""
    rows = {f"{name} n={n} seed={seed}": digest([spec.generate(n, seed=seed)])
            for name, spec in WORKLOADS.items() for n, seed in POINTS}
    for mix, traces in make_mixes(ops_per_core=MIX_OPS):
        rows[mix] = digest(traces)
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help=f"fail when a digest differs from {os.path.basename(DIGESTS)}")
    ap.add_argument("--record", action="store_true",
                    help=f"write the digests to {os.path.basename(DIGESTS)}")
    args = ap.parse_args(argv)

    rows = measure()
    if args.record:
        with open(DIGESTS, "w") as fh:
            json.dump({"numpy": np.__version__, "digests": rows}, fh, indent=1)
            fh.write("\n")
    want = {}
    if args.check:
        with open(DIGESTS) as fh:
            want = json.load(fh)["digests"]
    failed = sorted(set(want) - set(rows))
    for name, got in rows.items():
        line = f"{name:<36s} {got[:16]}"
        if args.check:
            ok = want.get(name) == got
            line += "  ok" if ok else "  MISMATCH"
            if not ok:
                failed.append(name)
        print(line)
    if failed:
        print(f"FAIL: {len(failed)} trace digests differ from "
              f"{os.path.basename(DIGESTS)}: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
