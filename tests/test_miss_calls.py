"""The per-miss call counter (benchmarks/miss_calls.py) is deterministic."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "benchmarks" / "miss_calls.py"


@pytest.fixture(scope="module")
def miss_calls():
    spec = importlib.util.spec_from_file_location("miss_calls", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("point", [("coaxial-4x", "mcf"),
                                   ("ddr-baseline", "stream-copy")])
def test_two_runs_count_alike(miss_calls, point):
    first = miss_calls.calls_per_miss(*point, ops=60)
    assert first[0] > 0 and first[1] > 0
    assert miss_calls.calls_per_miss(*point, ops=60) == first


def test_ceilings_cover_every_row(miss_calls):
    with open(miss_calls.CEILINGS) as fh:
        ceilings = json.load(fh)
    names = [f"{c}/{w}" for c, w in miss_calls.POINTS]
    names.append("/".join(miss_calls.OBSERVED) + " observer delta")
    assert sorted(ceilings["rows"]) == sorted(names)
