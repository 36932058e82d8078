"""Fuzz oracles: what "correct" means for a randomly generated case.

Three oracle classes, per the testing plan:

- **Invariant** (``invariant``): run with the request-lifecycle checker on
  (:mod:`repro.validate`); any violation fails the case.
- **Differential** (``diff_kernel``, ``diff_cache``): two executions
  that must agree bit-for-bit — the production dispatch loop vs the
  retained reference loop, and a cold :func:`repro.analysis.tables.run_one`
  vs the same job served back through the on-disk result cache.
- **Metamorphic** (``bw_monotone``, ``calm_r_bound``, ``asym_read_heavy``,
  ``ops_scaling``, ``channel_balance``, ``tiering_bound``,
  ``migration_identity``, ``ssd_hit_path``): a transformed twin of the
  case must move the observables in a known direction, within tolerances
  wide enough to absorb simulation noise but narrow enough to catch real
  bugs (each tolerance was calibrated against clean-main fuzz runs).

Every oracle is a pure function of a :class:`~repro.fuzz.gen.FuzzCase`:
``check(case)`` returns ``None`` on pass or a human-readable failure
detail. That makes oracles replayable from one line of corpus JSON and
shrinkable by delta-debugging the case.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
from dataclasses import dataclass, replace as dc_replace
from typing import Callable, Dict, List, Optional

from repro.fuzz.gen import FuzzCase, build_config, with_config_override
from repro.system.stats import SimResult
from repro.workloads.catalog import get_workload

# -- tolerances (calibrated on clean main; see tests/test_fuzz_oracles.py) ----

#: bw_monotone: doubled link goodput may raise memory-side wait (queuing +
#: CXL) by at most this relative slack plus the absolute floor, covering
#: feedback effects (a faster link feeds the fixed DRAM behind it sooner).
BW_MONOTONE_REL = 0.15
BW_MONOTONE_ABS_NS = 8.0

#: calm_r_bound: CALM + filtered read demand may exceed R x peak by this
#: relative slack (epoch estimates lag by one epoch; short runs start in
#: the headroom-certain regime where every miss goes CALM).
CALM_R_REL = 0.35
#: ... and the bound is only meaningful once a few epochs have rolled.
CALM_R_MIN_ELAPSED_NS = 20_000.0

#: asym_read_heavy: wider-RX lanes may lose at most this fraction of IPC on
#: a read-heavy workload (they should win; the slack absorbs noise).
ASYM_IPC_REL = 0.05

#: ops_scaling: per-op rates at 2x the op count must stay within these.
OPS_SCALING_IPC_REL = 0.40
OPS_SCALING_MPKI_REL = 0.50
OPS_SCALING_MPKI_ABS = 3.0

#: channel_balance: with interleaved addressing no DDR channel may carry
#: more than this multiple of the mean, and none may starve outright.
CHANNEL_BALANCE_MAX_OVER_MEAN = 4.0
CHANNEL_BALANCE_MIN_MISSES = 200

#: tiering_bound: a tiered system may beat the all-local-DRAM twin (same
#: total channel count, no CXL hop anywhere) on mean miss latency by at
#: most this much — i.e. it must not. The slack absorbs queuing shifts
#: from concentrating hot pages on the small local tier.
TIERING_BOUND_REL = 0.10
TIERING_BOUND_ABS_NS = 10.0

#: ssd_hit_path: mean on-device-cache hit service may exceed mean miss
#: service by at most this much (hits skip the slow media entirely; the
#: slack covers DRAM-link backlog a hit can queue behind while the media
#: link idles). Only meaningful once both paths have real traffic.
SSD_HIT_PATH_REL = 0.10
SSD_HIT_PATH_ABS_NS = 25.0
SSD_HIT_PATH_MIN_COUNT = 20

#: Workloads whose generator write fraction is at or below this are
#: "read-heavy" for the asym oracle.
READ_HEAVY_WRITE_FRAC = 0.10


def _simulate(case: FuzzCase, *, validate: str = "off",
              kernel: str = "fast", cfg=None,
              ops: Optional[int] = None,
              obs: Optional[str] = None,
              tracing: Optional[str] = None) -> SimResult:
    from repro.system.sim import simulate

    return simulate(cfg if cfg is not None else build_config(case),
                    get_workload(case.workload),
                    ops_per_core=ops if ops is not None else case.ops,
                    seed=case.seed, validate=validate, kernel=kernel,
                    obs=obs, tracing=tracing)


def _result_diff(a: SimResult, b: SimResult) -> List[str]:
    """Field-level inequality between two results (empty = identical)."""
    da, db = dataclasses.asdict(a), dataclasses.asdict(b)
    out = []
    for k in da:
        if da[k] != db[k]:
            out.append(f"{k}: {da[k]!r} != {db[k]!r}")
    return out


# -- invariant ----------------------------------------------------------------

def check_invariant(case: FuzzCase) -> Optional[str]:
    r = _simulate(case, validate="on")
    report = r.extras.get("invariant_violations") or {}
    count = int(report.get("count", 0))
    if count == 0:
        return None
    msgs = [v.get("message", str(v)) for v in report.get("violations", [])]
    return f"{count} invariant violation(s): " + "; ".join(msgs[:3])


# -- differential -------------------------------------------------------------

def check_diff_kernel(case: FuzzCase) -> Optional[str]:
    """The production dispatch loop agrees bit-for-bit with the reference."""
    fast = _simulate(case, kernel="fast")
    ref = _simulate(case, kernel="reference")
    diffs = _result_diff(fast, ref)
    if not diffs:
        return None
    return "fast vs reference kernel diverged: " + "; ".join(diffs[:5])


def check_diff_cache(case: FuzzCase) -> Optional[str]:
    """Cold ``run_one`` vs the identical job served from the disk cache."""
    from repro.analysis import tables

    cfg = build_config(case)
    saved_disk = tables._disk
    saved_dir = os.environ.get("REPRO_CACHE_DIR")
    saved_no = os.environ.pop("REPRO_NO_DISK_CACHE", None)
    try:
        with tempfile.TemporaryDirectory(prefix="repro-fuzz-cache-") as tmp:
            os.environ["REPRO_CACHE_DIR"] = tmp
            tables._disk = None
            tables.clear_cache()
            cold = tables.run_one(cfg, case.workload, case.ops, seed=case.seed)
            tables.clear_cache()  # drop the in-process memo; disk survives
            cached = tables.run_one(cfg, case.workload, case.ops, seed=case.seed)
    finally:
        tables._disk = saved_disk
        tables.clear_cache()
        if saved_dir is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved_dir
        if saved_no is not None:
            os.environ["REPRO_NO_DISK_CACHE"] = saved_no
    diffs = _result_diff(cold, cached)
    if not diffs:
        return None
    return "cold vs disk-cached run_one diverged: " + "; ".join(diffs[:5])


# -- metamorphic --------------------------------------------------------------

def _is_cxl(case: FuzzCase) -> bool:
    return build_config(case).memory_kind == "cxl"


def check_bw_monotone(case: FuzzCase) -> Optional[str]:
    """Doubling CXL link goodput must not increase memory-side waiting."""
    cfg = build_config(case)
    boosted = dc_replace(
        cfg.cxl_params,
        rx_goodput_gbps=2 * cfg.cxl_params.rx_goodput_gbps,
        tx_goodput_gbps=2 * cfg.cxl_params.tx_goodput_gbps,
    )
    base = _simulate(case, cfg=cfg)
    fast = _simulate(case, cfg=dc_replace(cfg, cxl_params=boosted))
    wait_base = base.avg_queuing + base.avg_cxl
    wait_fast = fast.avg_queuing + fast.avg_cxl
    limit = wait_base * (1 + BW_MONOTONE_REL) + BW_MONOTONE_ABS_NS
    if wait_fast <= limit:
        return None
    return (f"2x link goodput increased memory-side wait: "
            f"{wait_base:.1f} -> {wait_fast:.1f} ns (limit {limit:.1f})")


def check_calm_r_bound(case: FuzzCase) -> Optional[str]:
    """CALM_R: CALM-probe + LLC-filtered read demand stays near R x peak.

    The policy's contract (see :class:`repro.calm.policy.CalmR`) is
    ``coverage * bw_unfiltered + bw_filtered <= R * peak``; we reconstruct
    both demand terms from end-of-run counters and allow slack for the
    one-epoch estimator lag and the headroom-certain startup regime.
    """
    cfg = build_config(case)
    r_fraction = float(cfg.calm_policy.split("_", 1)[1]) / 100.0
    r = _simulate(case, cfg=cfg)
    if r.elapsed_ns < CALM_R_MIN_ELAPSED_NS:
        return None  # too short for the epoch estimator to engage
    l2_misses = float(r.extras.get("l2_misses", 0.0))
    llc_misses = r.llc_mpki * r.instructions / 1000.0
    bw_unfiltered = l2_misses * 64.0 / r.elapsed_ns
    bw_filtered = llc_misses * 64.0 / r.elapsed_ns
    demand = r.calm_fraction * bw_unfiltered + bw_filtered
    cap = r_fraction * r.peak_bandwidth_gbps
    limit = cap * (1 + CALM_R_REL)
    if demand <= limit or bw_filtered >= cap:
        # Past the cap CALM shuts off entirely; the residual demand is the
        # workload's own filtered traffic, which no policy can reduce.
        return None
    return (f"CALM_{int(r_fraction * 100)} demand {demand:.2f} GB/s exceeds "
            f"{limit:.2f} (cap {cap:.2f}, coverage {r.calm_fraction:.2f})")


def _is_read_heavy(case: FuzzCase) -> bool:
    spec = get_workload(case.workload)
    wf = spec.params.get("write_frac")
    return wf is not None and wf <= READ_HEAVY_WRITE_FRAC


def check_asym_read_heavy(case: FuzzCase) -> Optional[str]:
    """Asymmetric (wider-RX) lanes never lose IPC on read-heavy mixes."""
    from repro.cxl.link import X8_CXL, X8_CXL_ASYM

    sym = _simulate(case, cfg=with_config_override(case, cxl_params=X8_CXL))
    asym = _simulate(case, cfg=with_config_override(case, cxl_params=X8_CXL_ASYM))
    floor = sym.ipc * (1 - ASYM_IPC_REL)
    if asym.ipc >= floor:
        return None
    return (f"asym lanes lost IPC on read-heavy {case.workload}: "
            f"{sym.ipc:.4f} -> {asym.ipc:.4f} (floor {floor:.4f})")


def check_ops_scaling(case: FuzzCase) -> Optional[str]:
    """Doubling the op count preserves per-op rates within tolerance."""
    r1 = _simulate(case)
    r2 = _simulate(case, ops=2 * case.ops)
    probs = []
    if abs(r2.ipc - r1.ipc) > OPS_SCALING_IPC_REL * max(r1.ipc, 1e-9):
        probs.append(f"ipc {r1.ipc:.4f} -> {r2.ipc:.4f}")
    mpki_tol = OPS_SCALING_MPKI_REL * r1.llc_mpki + OPS_SCALING_MPKI_ABS
    if abs(r2.llc_mpki - r1.llc_mpki) > mpki_tol:
        probs.append(f"llc_mpki {r1.llc_mpki:.2f} -> {r2.llc_mpki:.2f}")
    if not probs:
        return None
    return f"per-op rates drifted at 2x ops: " + "; ".join(probs)


def check_channel_balance(case: FuzzCase) -> Optional[str]:
    """Interleaved addressing spreads traffic across all DDR channels."""
    r = _simulate(case)
    chan = r.extras.get("channel_bytes") or []
    if len(chan) < 2 or r.n_misses < CHANNEL_BALANCE_MIN_MISSES:
        return None
    total = sum(chan)
    if total <= 0:
        return None
    mean = total / len(chan)
    worst = max(chan)
    starved = [i for i, b in enumerate(chan) if b == 0]
    if starved:
        return (f"DDR channel(s) {starved} received no traffic "
                f"({r.n_misses} misses across {len(chan)} channels)")
    if worst > CHANNEL_BALANCE_MAX_OVER_MEAN * mean:
        return (f"channel imbalance: max {worst:.0f} B vs mean {mean:.0f} B "
                f"over {len(chan)} channels")
    return None


def _is_tiered(case: FuzzCase) -> bool:
    return build_config(case).tiering is not None


def _is_ssd_backed(case: FuzzCase) -> bool:
    cfg = build_config(case)
    return cfg.memory_kind == "cxl" and cfg.cxl_backend == "ssd"


def _is_flat_multichannel(case: FuzzCase) -> bool:
    """channel_balance only applies to untiered systems: a tiered config
    deliberately concentrates hot pages on the small local tier, so its
    channels are imbalanced by design."""
    cfg = build_config(case)
    return cfg.n_ddr_channels >= 2 and cfg.tiering is None


def check_tiering_bound(case: FuzzCase) -> Optional[str]:
    """Tiering never beats the all-local-DRAM twin on mean miss latency.

    The twin flattens the case's memory into plain local DDR with the
    same *total* channel count — no CXL hop, no migration stalls, no
    slow media. Every far serve the tiered system makes pays at least
    the CXL port/link premium on top of the same DRAM timing, so a
    tiered mean miss latency meaningfully below the twin's means the
    premium or the migration accounting got lost somewhere.
    """
    cfg = build_config(case)
    flat = dc_replace(cfg, memory_kind="ddr", n_mem_ports=cfg.n_ddr_channels,
                      ddr_per_cxl=1, tiering=None, cxl_backend="ddr")
    tiered = _simulate(case, cfg=cfg)
    local = _simulate(case, cfg=flat)
    floor = (local.avg_miss_latency * (1 - TIERING_BOUND_REL)
             - TIERING_BOUND_ABS_NS)
    if tiered.avg_miss_latency >= floor:
        return None
    return (f"tiered miss latency {tiered.avg_miss_latency:.1f} ns beats "
            f"all-local-DRAM twin {local.avg_miss_latency:.1f} ns "
            f"(floor {floor:.1f})")


def check_migration_identity(case: FuzzCase) -> Optional[str]:
    """Epoch migration with a zero budget == static pinning, bit for bit.

    Both twins first-touch-pin identically; an epoch policy that never
    migrates (``migrations_per_epoch=0``) must therefore produce a result
    identical in every field — including ``events_fired`` and the fixed
    ``extras["tiering"]`` key set — to plain static placement. Any drift
    means epoch bookkeeping leaked into the simulated timeline.
    """
    cfg = build_config(case)
    frozen = dc_replace(cfg, tiering=dc_replace(
        cfg.tiering, policy="epoch", migrations_per_epoch=0))
    static = dc_replace(cfg, tiering=dc_replace(cfg.tiering, policy="static"))
    diffs = _result_diff(_simulate(case, cfg=frozen),
                         _simulate(case, cfg=static))
    if not diffs:
        return None
    return ("migration-off epoch vs static placement diverged: "
            + "; ".join(diffs[:5]))


def check_ssd_hit_path(case: FuzzCase) -> Optional[str]:
    """On-device DRAM cache hits are never slower than misses on average.

    A hit serves from the device cache's DRAM; a miss pays the slow-media
    fetch first and then the same DRAM hop. Per-request service times are
    summed on the device (``ssd_hit_ns_sum`` / ``ssd_miss_ns_sum``), so
    the means are directly comparable once both paths have traffic.
    """
    r = _simulate(case)
    ssd = r.extras.get("ssd") or {}
    hits = ssd.get("ssd_hits", 0.0)
    misses = ssd.get("ssd_misses", 0.0)
    if hits < SSD_HIT_PATH_MIN_COUNT or misses < SSD_HIT_PATH_MIN_COUNT:
        return None
    mean_hit = ssd["ssd_hit_ns_sum"] / hits
    mean_miss = ssd["ssd_miss_ns_sum"] / misses
    limit = mean_miss * (1 + SSD_HIT_PATH_REL) + SSD_HIT_PATH_ABS_NS
    if mean_hit <= limit:
        return None
    return (f"ssd cache hit path slower than miss path: "
            f"{mean_hit:.1f} ns vs {mean_miss:.1f} ns over "
            f"{hits:.0f}/{misses:.0f} hits/misses (limit {limit:.1f})")


def check_obs(case: FuzzCase) -> Optional[str]:
    """Observability is a pure observer and its export round-trips.

    Three properties: (1) a run with ``obs="on"`` produces a result
    identical to one with obs off, except for the ``extras["obs"]``
    payload itself and the sampler ticks counted in ``events_fired``;
    (2) every exported counter is non-negative and the Prometheus
    rendering parses back cleanly; (3) histogram bucket series are
    cumulative (monotone non-decreasing, ending at the sample count).
    """
    import dataclasses as _dc

    from repro.obs import parse_prometheus, prometheus_text

    plain = _simulate(case, obs="off")
    observed = _simulate(case, obs="on")

    da, db = _dc.asdict(plain), _dc.asdict(observed)
    payload = db["extras"].pop("obs", None)
    for d in (da, db):
        # Sampler ticks fire as (inert) events; everything else must match.
        d["extras"].pop("events_fired", None)
        d["extras"].pop("obs", None)
    diffs = [f"{k}: {da[k]!r} != {db[k]!r}" for k in da if da[k] != db[k]]
    if diffs:
        return "obs=on perturbed the simulation: " + "; ".join(diffs[:5])
    if payload is None:
        return "obs=on produced no extras['obs'] payload"

    for ent in payload.get("metrics", {}).get("counters", []):
        if ent["value"] < 0:
            return f"negative counter {ent['name']}{ent['labels']}: {ent['value']}"

    try:
        text = prometheus_text(payload)
        parsed = parse_prometheus(text)
    except ValueError as e:
        return f"prometheus export did not round-trip: {e}"
    if not parsed:
        return "prometheus export parsed to zero metrics"
    for name, ent in parsed.items():
        if ent["type"] != "histogram":
            continue
        buckets = [(lbl, v) for (n, lbl, v) in ent["samples"]
                   if n == name + "_bucket"]
        counts = [(v, lbl) for (n, lbl, v) in ent["samples"]
                  if n == name + "_count"]
        cum = [v for _lbl, v in buckets]
        if any(b > a for a, b in zip(cum[1:], cum)):
            return f"histogram {name} buckets are not cumulative: {cum}"
        if cum and counts and cum[-1] != counts[0][0]:
            return (f"histogram {name} +Inf bucket {cum[-1]} != count "
                    f"{counts[0][0]}")
    return None


def check_tracing(case: FuzzCase) -> Optional[str]:
    """The span tracer is a *zero-perturbation* observer on both loops.

    Stricter than the obs oracle: tracing schedules no events of its own,
    so a traced run must match the untraced twin in **every** result
    field — ``events_fired`` included — except for the
    ``extras["trace"]`` payload itself. The payload is then sanity
    checked: attribution components must be non-negative, sum to the
    total, and count exactly the measured misses plus hits.
    """
    import dataclasses as _dc

    from repro.tracing.critpath import ATTRIBUTION_COMPONENTS

    for kern in ("fast", "reference"):
        plain = _simulate(case, kernel=kern, tracing="off")
        traced = _simulate(case, kernel=kern, tracing="on")
        da, db = _dc.asdict(plain), _dc.asdict(traced)
        payload = db["extras"].pop("trace", None)
        diffs = [f"{k}: {da[k]!r} != {db[k]!r}" for k in da if da[k] != db[k]]
        if diffs:
            return (f"tracing=on perturbed the {kern} kernel: "
                    + "; ".join(diffs[:5]))
        if payload is None:
            return f"tracing=on produced no extras['trace'] payload ({kern})"
        att = payload.get("attribution") or {}
        bad = [c for c in ATTRIBUTION_COMPONENTS if att.get(c, 0.0) < 0]
        if bad:
            return f"negative attribution component(s) {bad}: {att}"
        if att.get("n", -1) != att.get("hits", 0) + att.get("misses", 0):
            return (f"attribution n {att.get('n')} != hits "
                    f"{att.get('hits')} + misses {att.get('misses')}")
        parts = sum(att.get(c, 0.0) for c in ATTRIBUTION_COMPONENTS)
        total = att.get("total", 0.0)
        # Clamped residuals (onchip, serialization) can only push the
        # component sum *above* the total; under-coverage means time was
        # lost on the walk.
        if parts < total - 1e-6 * max(1.0, abs(total)):
            return (f"attribution components sum to {parts!r}, "
                    f"under-covering total {total!r} ({kern})")
    return None


# -- regression-only oracles (replayed from the corpus, not fuzzed) -----------

def check_calm_clock(case: FuzzCase) -> Optional[str]:
    """An unwired CalmR must raise, not degenerate to AlwaysCalm (PR2 fix)."""
    from repro.calm.policy import CalmR

    policy = CalmR(now_fn=None)
    try:
        policy.decide(pc=0x1234, addr=0x40)
    except RuntimeError:
        return None
    return "CalmR.decide() with no wired clock did not raise RuntimeError"


# -- registry -----------------------------------------------------------------

@dataclass(frozen=True)
class Oracle:
    """A named check plus its applicability predicate.

    ``default=False`` oracles only run when named explicitly (corpus
    entries use them for regressions that need no random exploration).
    """

    name: str
    check: Callable[[FuzzCase], Optional[str]]
    applies: Callable[[FuzzCase], bool] = lambda case: True
    default: bool = True


ORACLES: Dict[str, Oracle] = {o.name: o for o in [
    Oracle("invariant", check_invariant),
    Oracle("diff_kernel", check_diff_kernel),
    Oracle("diff_cache", check_diff_cache),
    Oracle("bw_monotone", check_bw_monotone, applies=_is_cxl),
    Oracle("calm_r_bound", check_calm_r_bound,
           applies=lambda c: build_config(c).calm_policy.startswith("calm_")),
    Oracle("asym_read_heavy", check_asym_read_heavy,
           applies=lambda c: _is_cxl(c) and _is_read_heavy(c)),
    # Tiered and slow-media systems carry fixed-capacity device state
    # (local-tier pages, on-device DRAM cache) that does not scale with
    # trace length, so their per-op rates are legitimately
    # scale-dependent; their own metamorphic oracles cover them instead.
    Oracle("ops_scaling", check_ops_scaling,
           applies=lambda c: (c.ops <= 700 and not _is_tiered(c)
                              and not _is_ssd_backed(c))),
    Oracle("channel_balance", check_channel_balance,
           applies=_is_flat_multichannel),
    Oracle("tiering_bound", check_tiering_bound, applies=_is_tiered),
    Oracle("migration_identity", check_migration_identity, applies=_is_tiered),
    Oracle("ssd_hit_path", check_ssd_hit_path, applies=_is_ssd_backed),
    Oracle("obs", check_obs),
    Oracle("tracing", check_tracing),
    Oracle("calm_clock", check_calm_clock, default=False),
]}


def applicable_oracles(case: FuzzCase,
                       names: Optional[List[str]] = None) -> List[str]:
    """Oracle names to run for one case (the default set, or ``names``)."""
    pool = ([ORACLES[n] for n in names] if names
            else [o for o in ORACLES.values() if o.default])
    return [o.name for o in pool if o.applies(case)]


def run_oracle(name: str, case: FuzzCase) -> Optional[str]:
    """Run one oracle; returns failure detail or ``None``."""
    return ORACLES[name].check(case)
