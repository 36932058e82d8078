"""The trace digest tool (benchmarks/trace_digests.py) covers the catalog."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from repro.workloads import make_mixes, workload_names

TOOL = Path(__file__).resolve().parent.parent / "benchmarks" / "trace_digests.py"


def test_committed_digests_cover_every_row():
    spec = importlib.util.spec_from_file_location("trace_digests", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    with open(mod.DIGESTS) as fh:
        committed = json.load(fh)["digests"]
    names = [f"{w} n={n} seed={s}" for w in workload_names()
             for n, s in mod.POINTS]
    names += [mix for mix, _ in make_mixes(ops_per_core=1)]
    assert sorted(committed) == sorted(names)
