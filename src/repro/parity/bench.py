"""Events-per-second perf gate against a committed sweep baseline.

``repro sweep`` writes a ``BENCH_sweep.json`` record (see
:mod:`repro.exec.perf`). ``repro bench bless`` distills one such record
into a committed baseline (``goldens/bench.json``, marked ``"baseline":
true`` so :func:`repro.exec.perf.write_bench` refuses to clobber it), and
``repro bench compare`` grades a fresh record's kernel throughput against
it: a slowdown within the warn band passes, between warn and fail warns,
beyond fail fails. Speedups never fail — they are reported so the
baseline can be re-blessed when the simulator genuinely gets faster.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict

from repro import __version__
from repro.exec.perf import BENCH_FILENAME, write_bench
from repro.exportutil import GoldenError, read_json_object

BENCH_GOLDEN_SCHEMA_VERSION = 1

#: Default slowdown bands for the perf gate.
DEFAULT_WARN_SLOWDOWN = 0.20
DEFAULT_FAIL_SLOWDOWN = 0.35


def load_bench_record(path: os.PathLike = BENCH_FILENAME) -> Dict[str, Any]:
    """Load a ``BENCH_sweep.json`` record; GoldenError on any problem."""
    return read_json_object(path, "bench record")


def record_events_per_s(record: Dict[str, Any], path: str = "") -> float:
    """Per-worker kernel throughput of a bench record or baseline."""
    if "events_per_s" in record:        # baseline format
        eps = record["events_per_s"]
    else:                               # raw BENCH_sweep.json format
        eps = (record.get("summary") or {}).get("events_per_s")
    if not isinstance(eps, (int, float)) or eps <= 0:
        raise GoldenError(
            f"bench record {path or '<record>'}: no positive events_per_s "
            f"(a fully-cached sweep executes nothing; rerun with --no-cache)")
    return float(eps)


def bench_baseline_payload(record: Dict[str, Any]) -> Dict[str, Any]:
    """Distill a sweep record into the committed-baseline format."""
    eps = record_events_per_s(record)
    summary = record.get("summary") or {}
    jobs = record.get("jobs") or []
    return {
        "schema": BENCH_GOLDEN_SCHEMA_VERSION,
        "version": __version__,
        "baseline": True,
        "events_per_s": round(eps, 1),
        "total_events": summary.get("total_events"),
        "workers": record.get("workers"),
        "n_jobs": summary.get("n_jobs"),
        "suite": sorted({f"{j.get('config')}/{j.get('workload')}"
                         f"/ops={j.get('ops')}" for j in jobs}),
    }


def load_bench_baseline(path: os.PathLike) -> Dict[str, Any]:
    """Load a committed bench baseline; GoldenError on any problem."""
    payload = load_bench_record(path)
    if payload.get("schema") != BENCH_GOLDEN_SCHEMA_VERSION:
        raise GoldenError(
            f"bench baseline {path}: schema {payload.get('schema')!r} != "
            f"{BENCH_GOLDEN_SCHEMA_VERSION}; re-bless with this code version")
    if not payload.get("baseline"):
        raise GoldenError(
            f"bench baseline {path}: missing 'baseline: true' marker — "
            f"is this a raw BENCH_sweep.json? bless it first")
    record_events_per_s(payload, str(path))
    return payload


def bless_bench(record: Dict[str, Any], path: os.PathLike,
                force: bool = False) -> Path:
    """Write a committed baseline; refuses to overwrite one without force."""
    return write_bench(bench_baseline_payload(record), path, force=force)


@dataclass
class BenchVerdict:
    """Graded throughput drift of a fresh sweep versus the baseline."""

    status: str                 # pass | warn | fail
    fresh_eps: float
    baseline_eps: float
    warn: float
    fail: float

    @property
    def ratio(self) -> float:
        return self.fresh_eps / self.baseline_eps

    @property
    def slowdown(self) -> float:
        """Fractional slowdown vs baseline (negative = faster)."""
        return 1.0 - self.ratio

    def summary(self) -> str:
        direction = "slower" if self.slowdown > 0 else "faster"
        return (f"{self.status.upper()}: {self.fresh_eps:,.0f} events/s vs "
                f"baseline {self.baseline_eps:,.0f} "
                f"({100 * abs(self.slowdown):.1f}% {direction}; "
                f"warn at {100 * self.warn:.0f}%, fail at {100 * self.fail:.0f}%)")


def compare_bench(fresh: Dict[str, Any], baseline: Dict[str, Any],
                  warn: float = DEFAULT_WARN_SLOWDOWN,
                  fail: float = DEFAULT_FAIL_SLOWDOWN,
                  ) -> BenchVerdict:
    """Grade a fresh sweep record against a committed baseline."""
    if not 0 <= warn <= fail:
        raise ValueError(f"need 0 <= warn <= fail, got warn={warn} fail={fail}")
    fresh_eps = record_events_per_s(fresh)
    base_eps = record_events_per_s(baseline)
    slowdown = 1.0 - fresh_eps / base_eps
    if slowdown > fail:
        status = "fail"
    elif slowdown > warn:
        status = "warn"
    else:
        status = "pass"
    return BenchVerdict(status=status, fresh_eps=fresh_eps,
                        baseline_eps=base_eps, warn=warn, fail=fail)
