"""The per-job host-memory check (benchmarks/job_memory.py)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "benchmarks" / "job_memory.py"


@pytest.fixture(scope="module")
def job_memory():
    spec = importlib.util.spec_from_file_location("job_memory", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_a_finished_job_holds_nothing(job_memory):
    job_memory.job_memory("coaxial-4x", "mcf", ops=job_memory.WARM_OPS)
    held, peak = job_memory.job_memory("coaxial-4x", "mcf", ops=60)
    assert peak > 1e6          # the run did build a chip
    assert held <= job_memory.HELD_LIMIT


def test_ceilings_cover_every_row(job_memory):
    with open(job_memory.CEILINGS) as fh:
        ceilings = json.load(fh)
    names = [f"{c}/{w}" for c, w in job_memory.POINTS]
    assert sorted(ceilings["peak_mb"]) == sorted(names)
