"""Sweep performance harness: wall-time and events-per-second tracking.

Turns a list of :class:`~repro.exec.runner.JobResult`\\ s into a benchmark
record and writes it as ``BENCH_sweep.json`` so the perf trajectory of the
simulator is tracked from run to run (CI uploads the file as an artifact).

Record schema (stable; additions only)::

    {
      "schema": 1,
      "version": "<repro package version>",
      "git_sha": "<HEAD commit, null outside a checkout>",   # additive
      "config_digests": {"<config name>": "<12-hex digest>"},  # additive
      "workers": 4,
      "total_wall_s": 12.3,          # end-to-end sweep wall time
      "jobs": [ {config, workload, ops, seed, wall_s, events,
                 events_per_s, cached, attempts, ipc, error}, ... ],
      "summary": {n_jobs, n_cached, n_failed, sim_wall_s,
                  total_events, events_per_s, cache: {hits, misses, stores}},
      "fleet": {slowest_jobs, events_per_s: {min, p50, mean, max},
                cache_hit_rate, miss_latency_ns?}   # schema >= 1, additive
    }

The ``fleet`` section is the sweep-level observability rollup: the
slowest executed jobs, the distribution of per-job kernel throughput,
the cache hit rate, and — when jobs ran with ``obs`` enabled — the
merged miss-latency distribution across every job in the sweep (exact
bucket-wise histogram merge; see :mod:`repro.obs.metrics`).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro import __version__
from repro.exec.cache import ResultCache
from repro.exec.runner import JobResult
from repro.exportutil import GoldenError, read_json_object, write_json
from repro.system.config import config_digest

BENCH_SCHEMA_VERSION = 1

#: Default output file name for sweep benchmarks.
BENCH_FILENAME = "BENCH_sweep.json"

#: Default measurement suite for the throughput benchmark: the same
#: config families and representative workloads the blessed sweep
#: baseline (``goldens/bench.json``) was recorded over.
KERNEL_BENCH_CONFIGS = ("ddr-baseline", "coaxial-4x")
KERNEL_BENCH_WORKLOADS = ("mcf", "stream-copy", "gcc")
KERNEL_BENCH_OPS = 800


class BaselineProtectedError(GoldenError):
    """Refusing to overwrite a committed perf baseline without force.

    Baseline files (written by ``repro bench bless``) carry a
    ``"baseline": true`` marker; neither a sweep nor a re-bless may
    silently replace one — the perf trajectory would lose its reference.
    """


def is_committed_baseline(path: os.PathLike) -> bool:
    """Whether ``path`` holds a blessed baseline (``"baseline": true``)."""
    try:
        return bool(read_json_object(path, "bench record").get("baseline"))
    except (GoldenError, OSError):
        return False


def _git_sha() -> Optional[str]:
    """HEAD commit of the enclosing checkout, or ``None`` without git.

    Benchmark records are compared across runs recorded days apart;
    "which code produced this number" must live in the file itself, not
    in the shell history. Never raises — a missing git binary or a
    non-repo install just leaves the field null.
    """
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=5.0, cwd=Path(__file__).resolve().parent)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _config_digests(configs: Sequence[Any]) -> Dict[str, str]:
    """name -> short content digest for every distinct config measured.

    The digest covers the *complete* config fingerprint (every field, via
    :func:`repro.system.config.config_digest`), so two records sharing a
    config name but differing in any knob are distinguishable.
    """
    return {cfg.name: config_digest(cfg) for cfg in configs}


def job_record(jr: JobResult) -> Dict[str, Any]:
    """Flatten one job result into the benchmark schema."""
    return {
        "config": jr.job.config.name,
        "workload": jr.job.workload,
        "ops": jr.job.ops,
        "seed": jr.job.seed,
        "wall_s": round(jr.wall_s, 4),
        "events": jr.events,
        "events_per_s": round(jr.events_per_s, 1),
        "cached": jr.cached,
        "attempts": jr.attempts,
        "ipc": round(jr.result.ipc, 4) if jr.result is not None else None,
        "error": jr.error,
    }


def _job_obs_histogram(jr: JobResult, name: str) -> Optional[Dict[str, Any]]:
    """A job's exported obs histogram payload, if the job carried one."""
    if jr.result is None:
        return None
    payload = jr.result.extras.get("obs")
    if not isinstance(payload, dict):
        return None
    for ent in payload.get("metrics", {}).get("histograms", ()):
        if ent.get("name") == name:
            return ent
    return None


def fleet_summary(results: Sequence[JobResult]) -> Dict[str, Any]:
    """Sweep-level rollup: slowest jobs, throughput spread, hit rate.

    When jobs ran with observability enabled, their per-job miss-latency
    histograms are merged (exact, bucket-wise) into one fleet
    distribution and summarized under ``miss_latency_ns``.
    """
    from repro.obs.metrics import StreamingHistogram

    executed = [r for r in results if not r.cached and r.result is not None]
    rates = sorted(r.events_per_s for r in executed if r.wall_s > 0)
    slowest = sorted(executed, key=lambda r: -r.wall_s)[:5]
    n_cached = sum(1 for r in results if r.cached)
    out: Dict[str, Any] = {
        "slowest_jobs": [
            {"config": r.job.config.name, "workload": r.job.workload,
             "seed": r.job.seed, "wall_s": round(r.wall_s, 4),
             "events_per_s": round(r.events_per_s, 1)}
            for r in slowest],
        "events_per_s": {
            "min": round(rates[0], 1) if rates else 0.0,
            "p50": round(rates[len(rates) // 2], 1) if rates else 0.0,
            "mean": round(sum(rates) / len(rates), 1) if rates else 0.0,
            "max": round(rates[-1], 1) if rates else 0.0,
        },
        "cache_hit_rate": round(n_cached / len(results), 4) if results else 0.0,
    }
    fleet_hist: Optional[StreamingHistogram] = None
    for jr in results:
        ent = _job_obs_histogram(jr, "repro_miss_latency_ns")
        if ent is None:
            continue
        h = StreamingHistogram.from_dict(ent)
        if fleet_hist is None:
            fleet_hist = h
        else:
            fleet_hist.merge(h)
    if fleet_hist is not None:
        out["miss_latency_ns"] = fleet_hist.summary()
    return out


def bench_record(results: Sequence[JobResult], total_wall_s: float,
                 workers: int,
                 cache: Optional[ResultCache] = None) -> Dict[str, Any]:
    """Build the full benchmark record for one sweep invocation."""
    sim_wall = sum(r.wall_s for r in results)
    events = sum(r.events for r in results if not r.cached)
    executed_wall = sum(r.wall_s for r in results if not r.cached)
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "version": __version__,
        "git_sha": _git_sha(),
        "config_digests": _config_digests([r.job.config for r in results]),
        "workers": workers,
        "total_wall_s": round(total_wall_s, 4),
        "jobs": [job_record(r) for r in results],
        "summary": {
            "n_jobs": len(results),
            "n_cached": sum(1 for r in results if r.cached),
            "n_failed": sum(1 for r in results if r.result is None),
            "sim_wall_s": round(sim_wall, 4),
            "total_events": events,
            "events_per_s": round(events / executed_wall, 1) if executed_wall > 0 else 0.0,
            "cache": cache.counters() if cache is not None else None,
        },
        "fleet": fleet_summary(results),
    }


def kernel_bench_record(configs: Sequence[str] = KERNEL_BENCH_CONFIGS,
                        workloads: Sequence[str] = KERNEL_BENCH_WORKLOADS,
                        ops: int = KERNEL_BENCH_OPS, seed: int = 1,
                        repeats: int = 3,
                        baseline_eps: Optional[float] = None,
                        progress: Optional[Any] = None) -> Dict[str, Any]:
    """Measure whole-simulation throughput over a fixed suite.

    Runs the (config, workload) grid inline in this process — no pool, no
    result cache (a cache hit replays a stored result and simulates
    nothing) — ``repeats`` times, keeping the best aggregate events/s.
    The clock covers all of each ``simulate()`` call: trace generation,
    functional warmup and both timed phases. So the figure is dispatched
    events over whole-run wall time, and it moves when any of those
    phases gets faster, not only the dispatch loop.

    ``baseline_eps`` (usually the blessed ``goldens/bench.json`` figure)
    adds a ``ratio_vs_baseline``, which ``repro bench run --min-ratio``
    gates on in CI.
    """
    import time as _t

    from repro.system.config import ALL_CONFIGS
    from repro.system.sim import simulate
    from repro.workloads.catalog import get_workload

    grid = [(ALL_CONFIGS[c](), get_workload(w))
            for c in configs for w in workloads]
    best_eps = 0.0
    best = (0, 0.0)
    for rep in range(max(1, repeats)):
        events = 0
        t0 = _t.perf_counter()
        for cfg, wl in grid:
            r = simulate(cfg, wl, ops_per_core=ops, seed=seed)
            events += int(r.extras.get("events_fired", 0))
        wall = _t.perf_counter() - t0
        eps = events / wall if wall > 0 else 0.0
        if progress:
            progress(f"rep {rep + 1}/{repeats}: {eps:,.0f} events/s")
        if eps > best_eps:
            best_eps, best = eps, (events, wall)
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "version": __version__,
        "git_sha": _git_sha(),
        "config_digests": _config_digests([cfg for cfg, _wl in grid]),
        "suite": [f"{c}/{w}/ops={ops}" for c in configs for w in workloads],
        "seed": seed,
        "repeats": repeats,
        "baseline_events_per_s": baseline_eps,
        "events": best[0],
        "wall_s": round(best[1], 4),
        "events_per_s": round(best_eps, 1),
        "ratio_vs_baseline": (round(best_eps / baseline_eps, 3)
                              if baseline_eps else None),
    }


def write_bench(record: Dict[str, Any], path: Optional[os.PathLike] = None,
                force: bool = False) -> Path:
    """Atomically write a benchmark record or baseline; returns the path.

    Refuses to overwrite a committed baseline (a file blessed by
    ``repro bench bless``) unless ``force`` is set.
    """
    out = Path(path) if path is not None else Path(BENCH_FILENAME)
    if not force and is_committed_baseline(out):
        raise BaselineProtectedError(
            f"{out} is a committed perf baseline; pass --force to "
            f"overwrite it")
    return write_json(out, record, indent=2)


def format_summary(record: Dict[str, Any]) -> List[str]:
    """Human-readable summary lines for the CLI."""
    s = record["summary"]
    lines = [
        f"jobs: {s['n_jobs']} total, {s['n_cached']} from cache, "
        f"{s['n_failed']} failed",
        f"wall time: {record['total_wall_s']:.2f}s end-to-end "
        f"({s['sim_wall_s']:.2f}s of simulation across {record['workers']} workers)",
    ]
    if s["total_events"]:
        lines.append(f"kernel throughput: {s['total_events']:,} events at "
                     f"{s['events_per_s']:,.0f} events/s per worker")
    c = s.get("cache")
    if c is not None:
        lines.append(f"cache: hits: {c['hits']} misses: {c['misses']} "
                     f"stores: {c['stores']}")
    fleet = record.get("fleet")
    if fleet:
        eps = fleet.get("events_per_s", {})
        if eps.get("max"):
            lines.append(
                f"fleet: events/s min {eps['min']:,.0f} / p50 {eps['p50']:,.0f}"
                f" / max {eps['max']:,.0f}; cache hit rate "
                f"{100 * fleet.get('cache_hit_rate', 0.0):.0f}%")
        slow = fleet.get("slowest_jobs") or []
        if slow:
            worst = slow[0]
            lines.append(f"slowest job: {worst['config']}/{worst['workload']} "
                         f"at {worst['wall_s']:.2f}s")
        ml = fleet.get("miss_latency_ns")
        if ml:
            lines.append(f"fleet miss latency: p50 {ml['p50']:.0f} ns / "
                         f"p99 {ml['p99']:.0f} ns over {ml['count']:,} misses")
    return lines
