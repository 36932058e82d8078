"""The repository benchmark: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload bw-bound --seed 0 --seconds 30 --trace 0

Workloads (see README.md for why each was chosen):

- ``bw-bound``, ``cxl-latency``: rounds of inline ``simulate()`` calls;
- ``job-service``: a ``repro serve`` subprocess under a closed loop.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` prints the per-layer metrics: host self time and calls per
simulator layer from a traced run (shims installed from outside the
program, see layers.py), the job service's own stage times, and the
modelled per-layer statistics. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import List, NamedTuple

from jobs import (SERVICE_BLOCK, SERVICE_CONFIGS, Checker, Job, ipc_error,
                  modelled_stats, run_inline, service_sequence, sim_jobs)
from hostspeed import HostClock
from layers import LAYERS, LayerTracer, write_spans
from service import (Record, Server, drive, is_hit, request, task_result,
                     wait_terminal)
from stats import median, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Default workload seed (README.md records the held-out one).
DEFAULT_SEED = 0

#: Repeated set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 9
#: Minimum sim rounds per run, so each point's median is over several
#: rounds whatever the host speed.
MIN_ROUNDS = 4
#: Job-service hits and misses needed for a p90 (10 samples beyond it).
TAIL_SAMPLES = 110
#: Hard cap on one job-service leg, whatever the sample counts.
MAX_SERVICE_S = 110.0
#: Traced runs must attribute at least this share of wall time to layers.
MIN_COVERAGE = 0.95

UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "sim_instr_per_s": "1/s", "ipc_err_vs_paper": "ratio",
    "jobs_per_s": "1/s", "miss_p50_ms": "ms",
}

SERVICE_LAYER_UNITS = {
    "http.submit_ms": "ms", "serve.queue_wait_ms": "ms",
    "serve.exec_miss_ms": "ms", "serve.exec_hit_ms": "ms",
    "pool.overhead_ms": "ms", "sim.task_ms": "ms", "serve.notify_ms": "ms",
    "cache.hit_frac": "ratio", "miss_p90_ms": "ms", "hit_p50_ms": "ms",
    "hit_p90_ms": "ms", "miss.samples": "count", "hit.samples": "count",
}
MODEL_UNITS = {
    "llc.hit_rate": "ratio", "dram.queuing_ns": "ns", "dram.bw_util": "ratio",
    "cxl.latency_ns": "ns", "calm.fraction": "ratio",
    "calm.false_pos_rate": "ratio", "tiering.migrations": "count",
    "ssd.hit_rate": "ratio",
}
LAYER_UNITS = {
    **{f"{n}.{k}": u for n in LAYERS
       for k, u in (("self_s", "s"), ("calls", "count"))},
    "engine.events": "count", "engine.ns_per_event": "ns",
    "trace.overhead_frac": "ratio", "trace.coverage_frac": "ratio",
    **SERVICE_LAYER_UNITS, **MODEL_UNITS,
}

#: What a fresh process does before it can run the first job.
SETUP_SNIPPET = (
    "import repro.system.sim, repro.workloads.catalog, repro.exec.runner\n"
    "from repro.system.config import ALL_CONFIGS\n"
    "[f() for f in ALL_CONFIGS.values()]\n")


def sim_setup_s(host: HostClock) -> float:
    """Median time for a fresh process to import and configure the simulator."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT,
                       check=True, timeout=120)
        times.append(host.scaled(time.perf_counter() - t0))
    return median(times)


def ms(seconds: float) -> float:
    return 1000.0 * seconds


# -- inline simulation workloads ----------------------------------------------


def run_sim_round(jobs, checker, results, host, run=None):
    """Run one round inline; per job (scaled seconds, instructions)."""
    out = []
    for job in jobs:
        t0 = time.perf_counter()
        try:
            r = run(job) if run else run_inline(job)
        except Exception as e:  # a crash is a failed job, not a dead run
            print(f"job {job.label} raised {type(e).__name__}: {e}",
                  file=sys.stderr)
            r = None
        dt = host.scaled(time.perf_counter() - t0)
        d = dataclasses.asdict(r) if r is not None else None
        if checker.check(job, d):
            results[job] = d
        out.append((dt, r.instructions if r else 0))
    return out


def sim_workload(name: str, seed: int, seconds: float, trace: bool):
    jobs = sim_jobs(name, seed)
    checker = Checker()
    results = {}
    # Lazy imports inside simulate() happen once per process: not timed.
    run_inline(Job(jobs[0].config, jobs[0].workload, 50, 1))

    host = HostClock()
    if trace:
        return sim_traced(name, jobs, checker, results, seconds, host)

    setup = sim_setup_s(host)
    t0 = time.perf_counter()
    rounds = []
    while time.perf_counter() - t0 < seconds or len(rounds) < MIN_ROUNDS:
        rounds.append(run_sim_round(jobs, checker, results, host))
    # Each point's median over rounds: a burst of host noise in one round
    # does not move the others.
    point_s = [median([row[0] for row in point]) for point in zip(*rounds)]
    wall = sum(point_s)
    metrics = {
        "setup_s": setup,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_instr_per_s": sum(row[1] for row in rounds[0]) / wall,
        "ipc_err_vs_paper": ipc_error(results),
        "jobs_per_s": len(jobs) / wall,
        "miss_p50_ms": ms(median(point_s)),
    }
    return metrics, checker, {"rounds": len(rounds),
                              "miss_p50_samples": len(rounds) * len(jobs),
                              "loop_ms": ms(median(host.loops))}


def sim_traced(name, jobs, checker, results, seconds, host):
    """Alternate untraced and traced rounds; keep the first round's spans.

    A coverage-check round runs first with the dispatch hook on; its
    timings are dropped, so the timed rounds run the unhooked kernel loop.
    """
    tracer = LayerTracer()

    def run(job):
        r = tracer.run_job(run_inline, job)
        tracer.events += int(r.extras["events_fired"])
        return r

    tracer.check_dispatch = True
    tracer.install()
    try:
        run_sim_round(jobs, checker, results, host, run=run)
    finally:
        tracer.uninstall()
    tracer.check_dispatch = False
    tracer.reset()

    untraced, traced, kept = [], [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        untraced += run_sim_round(jobs, checker, results, host)
        tracer.install()
        try:
            traced += run_sim_round(jobs, checker, results, host, run=run)
        finally:
            tracer.uninstall()
        spans = tracer.take_spans()
        kept = kept or [spans]
    rounds = len(traced) // len(jobs)
    check_trace(tracer.unmapped(), tracer.coverage())
    path = ROOT / ".perfbench_out" / f"spans-{name}.bin"
    path.parent.mkdir(exist_ok=True)
    write_spans(kept[0], path)
    metrics = layer_figures(tracer.summary(), rounds)
    metrics["trace.overhead_frac"] = (sum(r[0] for r in traced)
                                      / sum(r[0] for r in untraced) - 1.0)
    metrics.update({k: 0.0 for k in SERVICE_LAYER_UNITS})
    metrics["sim.task_ms"] = ms(median([r[0] for r in untraced]))
    metrics["miss.samples"] = float(len(untraced))
    metrics.update(modelled_stats(results))
    return metrics, checker, {"traced_rounds": rounds, "spans": str(path)}


def layer_figures(summary: dict, n: int) -> dict:
    """Layer totals per round (or per task): runs differ in how many ran."""
    out = {}
    for k, v in summary.items():
        if k.endswith((".self_s", ".calls")) or k == "engine.events":
            v = v / n
        if k in LAYER_UNITS:
            out[k] = v
    return out


def check_trace(unmapped: dict, coverage: float) -> None:
    """A traced run fails on unmapped callbacks or thin coverage."""
    if unmapped:
        raise SystemExit(f"traced run: callbacks map to no layer: {unmapped}")
    if coverage < MIN_COVERAGE:
        raise SystemExit(f"traced run: layers cover only {coverage:.3f} "
                         f"of traced wall time (< {MIN_COVERAGE})")


# -- the job service ----------------------------------------------------------

def rss_mb(pid: int) -> float:
    """Current resident set of a process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmRSS for pid {pid}")



def start_server(tmp: Path, cache_dir: Path, tag: str, traced_out=None):
    srv = Server(ROOT, cache_dir, tmp / f"serve-{tag}.log", traced_out)
    try:
        setup = srv.start()
    except BaseException:
        srv.stop()
        raise
    return srv, setup


class Block(NamedTuple):
    """One block of job-service submissions, all settled."""

    records: List[Record]
    wall_s: float        # block start -> its last terminal event
    scale: float         # host-speed factor (hostspeed.HostClock)
    peak_rss_mb: float   # the server's resident set, peak while it ran


def settled(blocks: List[Block], hit: bool) -> list:
    """(record, its block's scale) of every settled hit, or miss."""
    return [(r, b.scale) for b in blocks for r in b.records
            if task_result(r) is not None and is_hit(r) == hit]


def service_leg(srv, sequence, enough, checker, results, host, warm_seed=1):
    """Drive one server in blocks until ``enough``; check every result.

    A block submits one block of the sequence and waits for all of it, so
    the calibration loop after it runs while the server is idle.
    """
    # First job in a fresh server pays one-time lazy imports: not timed.
    # One task per service config; a traced server checks their dispatches.
    status, body = request(srv.port, "POST", "/jobs", {
        "configs": list(SERVICE_CONFIGS), "workloads": ["mcf"], "ops": 20,
        "seeds": [warm_seed]})
    if status != 202:
        raise RuntimeError(f"warm-up submit failed: HTTP {status}")
    wait_terminal(srv.port, body["job"]["id"])
    host.start()
    t0 = time.perf_counter()
    blocks: List[Block] = []
    while not enough(time.perf_counter() - t0, blocks):
        rss: List[float] = []
        t_block = time.perf_counter()
        records = drive(srv.port, sequence, SERVICE_BLOCK,
                        lambda: rss.append(rss_mb(srv.proc.pid)))
        if not records:
            break                                   # the sequence ran out
        blocks.append(Block(records, records[-1].t_done - t_block,
                            host.factor(), max(rss)))
        for rec in records:
            res = task_result(rec)
            if checker.check(rec.job, res):
                results.setdefault(rec.job, res)
    return blocks


def service_workload(seed: int, seconds: float, trace: bool, tmp: Path):
    host = HostClock()
    setups = []
    for i in range(0 if trace else SETUP_REPS - 1):
        srv, setup = start_server(tmp, tmp / f"cache-boot{i}", f"boot{i}")
        srv.stop()
        setups.append(host.scaled(setup))
    cache_dir = tmp / "cache"
    sequence = service_sequence(seed)
    checker = Checker()
    results = {}
    srv, setup = start_server(tmp, cache_dir, "main")
    setups.append(host.scaled(setup))
    # A round (two blocks) settles SERVICE_BLOCK hits and as many misses.
    need = TAIL_SAMPLES if trace else MIN_ROUNDS * SERVICE_BLOCK

    def enough(elapsed: float, blocks: List[Block]) -> bool:
        if elapsed >= MAX_SERVICE_S:
            return True
        hits, misses = len(settled(blocks, True)), len(settled(blocks, False))
        return elapsed >= seconds and min(hits, misses) >= need

    try:
        blocks = service_leg(srv, sequence, enough, checker, results, host)
    finally:
        srv.stop()
    records = [r for b in blocks for r in b.records]
    misses = [r for r, _ in settled(blocks, False)]
    hits = [r for r, _ in settled(blocks, True)]
    ok = misses + hits
    counts = {"jobs": len(records), "misses": len(misses), "hits": len(hits),
              "loop_ms": ms(median(host.loops))}
    # Latencies in their block's reference-host seconds.
    miss_s = [r.latency_s * k for r, k in settled(blocks, False)]
    hit_s = [r.latency_s * k for r, k in settled(blocks, True)]

    if not trace:
        # A round is a pair of blocks: every grid point once.
        rounds = [pair for pair in zip(blocks[0::2], blocks[1::2])
                  if all(len(b.records) == SERVICE_BLOCK for b in pair)]
        walls = [sum(b.wall_s * b.scale for b in pair) for pair in rounds]
        wall = median(walls)
        instrs = [sum(r.task["result"]["instructions"]
                      for r, _ in settled(list(pair), False)) for pair in rounds]
        metrics = {
            "setup_s": median(setups),
            "wall_s": wall,
            # The server's resident set steps up at random rounds as its
            # heap fragments, and never down; the lowest round peak after
            # the first (which still grows the heap) is what a round needs.
            "peak_rss_mb": min(max(b.peak_rss_mb for b in pair)
                               for pair in rounds[1:] or rounds),
            "sim_instr_per_s": median([n / w for n, w in zip(instrs, walls)]),
            "ipc_err_vs_paper": ipc_error(results),
            "jobs_per_s": 2 * SERVICE_BLOCK / wall,
            "miss_p50_ms": ms(percentile(miss_s, 0.5).value),
        }
        return metrics, checker, counts

    # Traced leg: same cache, the sequence continues, shims in the server.
    out = tmp / "layers.json"
    srv, _ = start_server(tmp, cache_dir, "traced", traced_out=out)
    try:
        traced = service_leg(srv, sequence,
                             lambda elapsed, _: elapsed >= seconds / 2,
                             checker, results, host, warm_seed=2)
    finally:
        srv.stop()
    with open(out, encoding="utf-8") as fh:
        summary = json.load(fh)
    check_trace(summary["unmapped"], summary["layers"]["trace.coverage_frac"])
    spans = ROOT / ".perfbench_out" / "spans-job-service.bin"
    spans.parent.mkdir(exist_ok=True)
    shutil.copyfile(str(out) + ".spans", spans)

    def med_ms(xs):
        return ms(median(xs)) if xs else 0.0

    def exec_s(r):
        return r.summary["finished_at"] - r.summary["started_at"]

    task_s = [r.task["wall_s"] * k for r, k in settled(blocks, False)]
    traced_task_s = [r.task["wall_s"] * k for r, k in settled(traced, False)]
    metrics = layer_figures(summary["layers"], summary["jobs"])
    metrics["trace.overhead_frac"] = median(traced_task_s) / median(task_s) - 1.0
    metrics.update({
        "http.submit_ms": med_ms([r.submit_s for r in ok]),
        "serve.queue_wait_ms": med_ms([r.summary["started_at"] - r.summary["submitted_at"]
                                       for r in ok]),
        "serve.exec_miss_ms": med_ms([exec_s(r) for r in misses]),
        "serve.exec_hit_ms": med_ms([exec_s(r) for r in hits]),
        "pool.overhead_ms": med_ms([exec_s(r) - r.task["wall_s"] for r in misses]),
        "sim.task_ms": med_ms(task_s),
        "serve.notify_ms": med_ms([r.notify_s for r in ok]),
        "cache.hit_frac": len(hits) / len(ok),
        "miss_p90_ms": ms(percentile(miss_s, 0.9).value),
        "hit_p50_ms": ms(percentile(hit_s, 0.5).value),
        "hit_p90_ms": ms(percentile(hit_s, 0.9).value),
        "miss.samples": float(len(misses)),
        "hit.samples": float(len(hits)),
    })
    metrics.update(modelled_stats(results))
    return metrics, checker, {**counts, "traced_tasks": summary["jobs"],
                              "spans": str(spans)}


# -- entry point --------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["bw-bound", "cxl-latency", "job-service"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    # User-facing defaults everywhere, this process and its children.
    for k in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[k]
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    # One CPU for this process and the processes it starts, so the
    # calibration loop times the CPU the work runs on: the vCPUs of the VM
    # the bounds were set on differ in speed from moment to moment.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        if args.workload == "job-service":
            metrics, checker, notes = service_workload(
                args.seed, args.seconds, bool(args.trace), tmp)
        else:
            metrics, checker, notes = sim_workload(
                args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    units = LAYER_UNITS if args.trace else UNITS
    missing = set(units) - set(metrics)
    if missing:
        raise SystemExit(f"internal error: metrics not produced: {sorted(missing)}")
    error_rate = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={checker.attempted} failed={checker.failed} "
          f"error_rate={error_rate:.4f} {json.dumps(notes)}")
    for name, unit in units.items():
        print(f"{name:24s} {metrics[name]:>16.6f} {unit}")
    if checker.mismatches:
        print("digest mismatches: " + ", ".join(sorted(set(checker.mismatches))),
              file=sys.stderr)
    print(json.dumps({
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
