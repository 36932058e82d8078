"""Scenario parity registry: tiering & device-realism goldens.

The paper configs have their claims pinned by ``repro.parity.registry``;
this module does the same for the ROADMAP item 5 scenario pack — the
tiered-memory placement policies, the per-device latency profiles, and
the SSD-backed slow-media Type-3 backend — evaluated over the SCENARIO
workloads (bursty / phase-changing / capacity-pressure traces).

There are no paper targets here (``paper=None`` throughout): the bands
are *model* sanity bands, asserting the physics the models were built to
express — a local tier actually absorbs hot traffic, epoch migration
actually pays stalls, the slow-media backend is actually slower than
DRAM, a skewed latency profile actually raises the CXL premium. The
blessed values live in ``goldens/scenarios.json`` (same schema as the
paper golden; bless/compare via ``repro parity --scenarios``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.parity.registry import (
    ParityContext, ParityMetric, ParitySuite, Tolerance,
)

#: Default location of the committed scenario golden (repo-relative).
SCENARIO_GOLDEN_PATH = Path("goldens") / "scenarios.json"

#: The flat COAXIAL config the tiered/device variants are compared to —
#: identical CXL fabric, no local tier, "fixed" profile, DDR backend.
FLAT_REFERENCE = "coaxial-4x"

SCENARIO_CONFIGS: Tuple[str, ...] = (
    "ddr-baseline", "coaxial-4x",
    "tiered-static", "tiered-lru", "tiered-epoch",
    "cxl-ssd", "cxl-profiled",
)
SCENARIO_WORKLOADS: Tuple[str, ...] = (
    "bursty-web", "phase-flip", "capacity-churn",
)
#: The (configs x workloads) grid the scenario golden is blessed at.
SCENARIO_SUITE = ParitySuite(configs=SCENARIO_CONFIGS,
                             workloads=SCENARIO_WORKLOADS, ops=1500, seed=1)


# ---------------------------------------------------------------------------
# Extractors
# ---------------------------------------------------------------------------

def _tiering_snaps(ctx: ParityContext, config: str) -> List[Dict[str, float]]:
    return [r.extras["tiering"] for r in ctx.results(config).values()]


def _local_serve_frac(config: str) -> Callable[[ParityContext], float]:
    def extract(ctx: ParityContext) -> float:
        fracs = []
        for t in _tiering_snaps(ctx, config):
            total = t["local_serves"] + t["far_serves"]
            fracs.append(t["local_serves"] / total if total else 0.0)
        return sum(fracs) / len(fracs)
    return extract


def _promotions_per_kop(config: str) -> Callable[[ParityContext], float]:
    def extract(ctx: ParityContext) -> float:
        rates = []
        for w, r in ctx.results(config).items():
            t = r.extras["tiering"]
            ops = t["local_serves"] + t["far_serves"]
            rates.append(1000.0 * t["promotions"] / ops if ops else 0.0)
        return sum(rates) / len(rates)
    return extract


def _misslat_ratio(config: str, ref: str = FLAT_REFERENCE,
                   ) -> Callable[[ParityContext], float]:
    return lambda ctx: (ctx.mean(config, "avg_miss_latency")
                        / ctx.mean(ref, "avg_miss_latency"))


def _cxl_premium_ratio(config: str) -> Callable[[ParityContext], float]:
    return lambda ctx: (ctx.mean(config, "avg_cxl")
                        / ctx.mean(FLAT_REFERENCE, "avg_cxl"))


def _ssd_hit_rate(ctx: ParityContext) -> float:
    rates = []
    for r in ctx.results("cxl-ssd").values():
        s = r.extras["ssd"]
        total = s["ssd_hits"] + s["ssd_misses"]
        rates.append(s["ssd_hits"] / total if total else 0.0)
    return sum(rates) / len(rates)


def _ssd_miss_over_hit(ctx: ParityContext) -> float:
    """Mean slow-media miss service over mean device-cache hit service."""
    ratios = []
    for r in ctx.results("cxl-ssd").values():
        s = r.extras["ssd"]
        if s["ssd_hits"] and s["ssd_misses"]:
            ratios.append((s["ssd_miss_ns_sum"] / s["ssd_misses"])
                          / (s["ssd_hit_ns_sum"] / s["ssd_hits"]))
    return sum(ratios) / len(ratios) if ratios else 0.0


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

_FRAC_TOL = Tolerance(rel_warn=0.05, rel_fail=0.15, abs_warn=0.02, abs_fail=0.06)
_RATE_TOL = Tolerance(rel_warn=0.10, rel_fail=0.30, abs_warn=0.5, abs_fail=2.0)

SCENARIO_REGISTRY: Tuple[ParityMetric, ...] = (
    ParityMetric(
        id="scen.local_serve_frac.tiered-static", figure="scenario",
        description="Mean fraction of misses served by the local DDR tier "
                    "(first-touch static pinning)",
        unit="frac", extract=_local_serve_frac("tiered-static"),
        band=(0.10, 0.98), tol=_FRAC_TOL),
    ParityMetric(
        id="scen.local_serve_frac.tiered-lru", figure="scenario",
        description="Mean fraction of misses served by the local DDR tier "
                    "(LRU promotion)",
        unit="frac", extract=_local_serve_frac("tiered-lru"),
        band=(0.10, 0.98), tol=_FRAC_TOL),
    ParityMetric(
        id="scen.local_serve_frac.tiered-epoch", figure="scenario",
        description="Mean fraction of misses served by the local DDR tier "
                    "(epoch migration)",
        unit="frac", extract=_local_serve_frac("tiered-epoch"),
        band=(0.10, 0.98), tol=_FRAC_TOL),
    ParityMetric(
        id="scen.promotions_per_kop.tiered-lru", figure="scenario",
        description="LRU promotions per thousand memory serves",
        unit="rate", extract=_promotions_per_kop("tiered-lru"),
        band=(1.0, 400.0), tol=_RATE_TOL),
    ParityMetric(
        id="scen.promotions_per_kop.tiered-epoch", figure="scenario",
        description="Epoch-migration promotions per thousand memory serves",
        unit="rate", extract=_promotions_per_kop("tiered-epoch"),
        band=(0.5, 200.0), tol=_RATE_TOL),
    ParityMetric(
        id="scen.misslat_ratio.tiered-epoch", figure="scenario",
        description="Mean miss latency, tiered-epoch over flat coaxial-4x "
                    "(>1 here: the 1-channel local tier concentrates hot "
                    "traffic and migration stalls add on top)",
        unit="ratio", extract=_misslat_ratio("tiered-epoch"),
        band=(0.70, 4.0)),
    ParityMetric(
        id="scen.ssd_hit_rate.cxl-ssd", figure="scenario",
        description="On-device DRAM cache hit rate of the SSD backend",
        unit="frac", extract=_ssd_hit_rate,
        band=(0.02, 0.999), tol=_FRAC_TOL),
    ParityMetric(
        id="scen.ssd_miss_over_hit.cxl-ssd", figure="scenario",
        description="Mean slow-media miss service over device-cache hit "
                    "service (must be >> 1: media is the slow path)",
        unit="ratio", extract=_ssd_miss_over_hit,
        band=(2.0, 500.0)),
    ParityMetric(
        id="scen.misslat_ratio.cxl-ssd", figure="scenario",
        description="Mean miss latency, SSD-backed over DDR-backed CXL",
        unit="ratio", extract=_misslat_ratio("cxl-ssd"),
        band=(1.00, 50.0)),
    ParityMetric(
        id="scen.cxl_premium_ratio.cxl-profiled", figure="scenario",
        description="Mean CXL-hop latency, demystify-b profile over the "
                    "fixed profile (sampled extras raise the premium)",
        unit="ratio", extract=_cxl_premium_ratio("cxl-profiled"),
        band=(1.00, 6.0)),
)

#: id -> metric lookup for the scenario registry.
SCENARIO_METRICS: Dict[str, ParityMetric] = {m.id: m for m in SCENARIO_REGISTRY}
