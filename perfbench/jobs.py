"""The benchmark's job universe, its seeded inputs, and result checking.

A job is one simulation point ``(config, workload, ops, trace seed)``.
Every point the benchmark can generate has an expected digest of its full
``SimResult`` in ``expected.json``, recorded from the commit that defined
the benchmark (``bless.py``). A result whose digest differs is a failure.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

#: Trace seeds a sim job may draw; ``expected.json`` covers all of them.
SIM_TRACE_SEEDS = range(1, 9)

#: Long inline simulations: enough ops for DRAM queues to reach steady
#: state (baseline queuing ~900 ns at 1000 ops per core).
SIM_OPS = 1000

#: Inline, no pool, no cache. The baseline jobs are bandwidth-bound with a
#: write stream beside the reads (lbm is 38% writes), so the DRAM
#: controller's FR-FCFS and write-drain path does the most work; the CXL
#: layer does none on the baseline jobs.
BW_BOUND = [("ddr-baseline", "stream-copy"), ("coaxial-4x", "stream-copy"),
            ("ddr-baseline", "stream-add"), ("coaxial-4x", "stream-add"),
            ("ddr-baseline", "lbm"), ("coaxial-4x", "lbm")]

#: Inline latency-bound pointer chasers and scenario traces with shallow
#: DRAM queues: core, chip, cache, CALM, CXL and tiering work dominates,
#: and DRAM does none on cxl-ssd.
CXL_LATENCY = [("ddr-baseline", "mcf"), ("coaxial-4x", "mcf"),
               ("coaxial-asym", "masstree"), ("cxl-profiled", "gcc"),
               ("tiered-epoch", "phase-flip"), ("cxl-ssd", "capacity-churn")]

SIM_WORKLOADS = {"bw-bound": BW_BOUND, "cxl-latency": CXL_LATENCY}

# The job-service mix is a measurement design, not recorded traffic: the
# repository holds no serve traffic log to take a hit rate or job size from.

#: Short single-task grid points: per-job setup (trace generation,
#: functional warmup) is a large share of each, and 100 ops/core keeps a
#: job short enough that one run settles the samples its percentiles need.
SERVICE_CONFIGS = ("ddr-baseline", "coaxial-4x")
SERVICE_WORKLOADS = ("mcf", "gcc", "omnetpp", "masstree", "BFS", "canneal",
                     "kmeans", "PageRank")
SERVICE_OPS = 100
SERVICE_TRACE_SEEDS = range(1, 33)

#: Share of job-service submissions that repeat an earlier point, so they
#: settle from the result cache. Half, so hits and misses reach the 110
#: samples a p90 needs (10 beyond it) at the same time in one run.
HIT_FRACTION = 0.5

#: Jobs per block of the submission sequence: each workload once, fresh,
#: plus the repeats. Two consecutive blocks cover the config x workload grid.
SERVICE_BLOCK = round(len(SERVICE_WORKLOADS) / (1 - HIT_FRACTION))


class Job(NamedTuple):
    config: str
    workload: str
    ops: int
    seed: int

    @property
    def label(self) -> str:
        return f"{self.config}/{self.workload}/ops={self.ops}/seed={self.seed}"


def sim_jobs(workload: str, seed: int) -> List[Job]:
    """One round of a sim workload: each point with a seeded trace seed."""
    rng = random.Random(f"{workload}:{seed}")
    return [Job(c, w, SIM_OPS, rng.choice(SIM_TRACE_SEEDS))
            for c, w in SIM_WORKLOADS[workload]]


def service_points() -> List[Job]:
    """Every distinct point the job service may be asked for."""
    return [Job(c, w, SERVICE_OPS, s) for c in SERVICE_CONFIGS
            for w in SERVICE_WORKLOADS for s in SERVICE_TRACE_SEEDS]


def service_sequence(seed: int) -> Iterator[Job]:
    """The seeded submission sequence, in blocks of ``SERVICE_BLOCK`` jobs.

    A block holds each workload once, half of them on each config, plus
    repeats of points submitted earlier; the next block puts each workload
    on the other config, so each pair of blocks runs every grid point once.
    A block opens with a fresh point, so the first one has something to
    repeat. This structure, the order included, is the same for every seed,
    so every seed queues its jobs alike. The seed picks each fresh point's
    trace seed, one it has not had before, and the point each repeat
    repeats. A repeat always settles from the cache; a fresh point is never
    repeated by chance, so it always runs the simulator. The sequence ends
    when the trace seeds run out.
    """
    rng = random.Random(f"job-service:{seed}")
    shape = random.Random("job-service:shape")
    pools = {}
    for c in SERVICE_CONFIGS:
        for w in SERVICE_WORKLOADS:
            seeds = list(SERVICE_TRACE_SEEDS)
            rng.shuffle(seeds)
            pools[c, w] = seeds
    n = len(SERVICE_WORKLOADS)
    a, b = SERVICE_CONFIGS
    seen: List[Job] = []
    for _ in SERVICE_TRACE_SEEDS:
        configs = [a, b] * (n // 2)
        shape.shuffle(configs)
        for half in (configs, [b if c == a else a for c in configs]):
            points = list(zip(half, SERVICE_WORKLOADS))
            shape.shuffle(points)
            is_fresh = [True] * n + [False] * (SERVICE_BLOCK - n)
            shape.shuffle(is_fresh)
            first = is_fresh.index(True)
            is_fresh[0], is_fresh[first] = True, is_fresh[0]
            for new in is_fresh:
                if new:
                    c, w = points.pop()
                    seen.append(Job(c, w, SERVICE_OPS, pools[c, w].pop()))
                    yield seen[-1]
                else:
                    yield rng.choice(seen)


def universe() -> List[Job]:
    """Every job any seed can generate (what ``expected.json`` covers)."""
    sims = [Job(c, w, SIM_OPS, s) for points in SIM_WORKLOADS.values()
            for c, w in points for s in SIM_TRACE_SEEDS]
    return sims + service_points()


def digest(result: Dict) -> str:
    """SHA-256 over every field of a ``SimResult`` (as ``asdict``/JSON)."""
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_expected() -> Dict[str, str]:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def run_inline(job: Job):
    """Run one job through ``simulate()`` with its user-facing defaults."""
    from repro.system.config import ALL_CONFIGS
    from repro.system.sim import simulate
    from repro.workloads.catalog import get_workload

    return simulate(ALL_CONFIGS[job.config](), get_workload(job.workload),
                    ops_per_core=job.ops, seed=job.seed)


# -- modelled statistics (exact) ---------------------------------------------


def _mean(xs: Sequence[float]) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def ipc_error(results: Dict[Job, Dict]) -> float:
    """Mean relative error of ``ddr-baseline`` IPC against Table IV.

    Averaged per workload first, so a seed's mix of repeats does not
    weight one workload over another.
    """
    from repro.workloads.catalog import get_workload

    per_wl: Dict[str, List[float]] = {}
    for job, r in results.items():
        paper = get_workload(job.workload).paper_ipc
        if job.config == "ddr-baseline" and paper:
            per_wl.setdefault(job.workload, []).append(
                abs(r["ipc"] - paper) / paper)
    return _mean([_mean(v) for v in per_wl.values()])


def modelled_stats(results: Dict[Job, Dict]) -> Dict[str, float]:
    """Per-layer simulated statistics over the distinct jobs run."""
    rs = list(results.values())
    cxl = [r for r in rs if r["avg_cxl"] > 0]
    calm = [r for r in rs if r["calm_fraction"] > 0]
    tiers = [r["extras"]["tiering"] for r in rs if "tiering" in r["extras"]]
    ssd = [r["extras"]["ssd"] for r in rs if "ssd" in r["extras"]]
    ssd_hits = sum(s["ssd_hits"] for s in ssd)
    ssd_all = ssd_hits + sum(s["ssd_misses"] for s in ssd)
    return {
        "llc.hit_rate": _mean([r["llc_hit_rate"] for r in rs]),
        "dram.queuing_ns": _mean([r["avg_queuing"] for r in rs]),
        "dram.bw_util": _mean([r["bandwidth_gbps"] / r["peak_bandwidth_gbps"]
                               for r in rs]),
        "cxl.latency_ns": _mean([r["avg_cxl"] for r in cxl]),
        "calm.fraction": _mean([r["calm_fraction"] for r in rs]),
        "calm.false_pos_rate": _mean([r["calm_false_pos_rate"] for r in calm]),
        "tiering.migrations": sum(t["promotions"] + t["demotions"]
                                  for t in tiers),
        "ssd.hit_rate": ssd_hits / ssd_all if ssd_all else 0.0,
    }


class Checker:
    """Counts attempted and failed jobs against the expected digests."""

    def __init__(self, expected: Optional[Dict[str, str]] = None) -> None:
        self.expected = load_expected() if expected is None else expected
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []

    def check(self, job: Job, result: Optional[Dict]) -> bool:
        """Record one outcome; ``None`` means the job raised or failed."""
        self.attempted += 1
        ok = result is not None and self.expected.get(job.label) == digest(result)
        if not ok:
            self.failed += 1
            self.mismatches.append(job.label)
        return ok
