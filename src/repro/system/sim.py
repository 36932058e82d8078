"""Simulation driver: warmup + measurement phases, result aggregation.

Mirrors the paper's methodology at Python scale: every active core runs
the same workload trace (or its own, for mixed workloads), caches and
predictors warm up on a prefix of the trace, statistics reset, and the
measurement window covers the remaining ops. IPC is committed instructions
over each core's own measured span, averaged across active cores.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence, Union

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy-free installs
    np = None

from repro.engine.soa import warmup_columns
from repro.cpu.trace import Trace
from repro.system.builder import Chip, build_system
from repro.system.config import SystemConfig
from repro.system.stats import SimResult


def _parse_scale(raw: str) -> float:
    """Validate the REPRO_SCALE env var (must be a positive number)."""
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_SCALE must be a number (run-length multiplier), got {raw!r}"
        ) from None
    if not value > 0:
        raise ValueError(f"REPRO_SCALE must be > 0, got {value}")
    return value


#: Global run-length multiplier, parsed (and validated) once at import
#: rather than on every ``simulate()`` call.
_SCALE: float = _parse_scale(os.environ.get("REPRO_SCALE", "1"))


def _replay_functional(chip: Chip, core, trace: Trace) -> None:
    """Replay a trace through the cache arrays with no timing or memory.

    This is ChampSim-style functional warmup: it establishes steady-state
    cache contents — including dirty bits, so the measured phase produces
    realistic DRAM write(back) traffic — at a fraction of the cost of timed
    simulation. Deeper-level victims are simply dropped (the memory system
    is not involved).
    """
    l1 = core.l1.array
    l2 = core.l2.array
    slices = chip.llc_slices
    slice_of = chip.mesh.llc_slice_of
    arr = trace.arr
    for a, w in zip(arr["addr"].tolist(), arr["is_write"].tolist()):
        w = bool(w)
        if l1.lookup(a, w):
            continue
        if l2.lookup(a, w):
            v = l1.fill(a, w)
            if v is not None and v[1]:
                l2.set_dirty(v[0])
            continue
        line = a & ~0x3F
        s = slices[slice_of(line)]
        if not s.lookup(line):
            s.fill(line, False)
        v2 = l2.fill(line, w)
        if v2 is not None and v2[1]:
            slices[slice_of(v2[0])].fill(v2[0], True)
        v1 = l1.fill(line, w)
        if v1 is not None and v1[1]:
            l2.set_dirty(v1[0])


def _replay_functional_lru(chip: Chip, core, trace: Trace) -> None:
    """LRU-specialized :func:`_replay_functional` (the common case).

    Produces bit-identical cache *state* — same dict contents in the same
    insertion (recency) order at every level — while stripping everything
    the generic replay pays for that the measurement can't observe: method
    dispatch, replacement-policy indirection, and the lookup/fill counters
    (``Chip.begin_measurement`` resets all counters wholesale at the
    warmup/measurement boundary, so warmup-phase counter churn is dead
    work). The access stream is lowered to flat line/write columns by the
    SoA layer in one vectorized pass. Only valid when every level runs the
    LRU policy; :func:`_warmup_replay_fn` picks the right variant.
    """
    l1 = core.l1.array
    l2 = core.l2.array
    l1_sets = l1._sets
    l1_mask = l1._mask
    l1_shift = l1._shift
    l1_ways = l1.ways
    l2_sets = l2._sets
    l2_mask = l2._mask
    l2_shift = l2._shift
    l2_ways = l2.ways
    slices = chip.llc_slices
    llc_mask = slices[0]._mask
    llc_shift = slices[0]._shift
    llc_ways = slices[0].ways
    n_tiles = chip.mesh.n_tiles
    lines, writes = warmup_columns(trace.arr)
    for line, w in zip(lines, writes):
        t1 = line >> l1_shift
        s1 = l1_sets[line & l1_mask]
        if t1 in s1:
            d = s1.pop(t1)
            s1[t1] = d or w
            continue
        si2 = line & l2_mask
        t2 = line >> l2_shift
        s2 = l2_sets[si2]
        if t2 in s2:
            # L2 hit: refresh recency/dirty, then fill L1; a dirty L1
            # victim folds into the L2 dirty bit.
            d = s2.pop(t2)
            s2[t2] = d or w
            if len(s1) >= l1_ways:
                vtag = next(iter(s1))
                if s1.pop(vtag):
                    vline = (vtag << l1_shift) | (line & l1_mask)
                    vs2 = l2_sets[vline & l2_mask]
                    vt2 = vline >> l2_shift
                    if vt2 in vs2:
                        vs2[vt2] = True
            s1[t1] = w
            continue
        # Full miss: touch/install the LLC home slice, then fill L2 + L1.
        s3 = slices[(line ^ (line >> 7) ^ (line >> 13)) % n_tiles]._sets[
            line & llc_mask]
        t3 = line >> llc_shift
        if t3 in s3:
            d = s3.pop(t3)
            s3[t3] = d
        else:
            if len(s3) >= llc_ways:
                s3.pop(next(iter(s3)))  # LLC victims are dropped in warmup
            s3[t3] = False
        if len(s2) >= l2_ways:
            vt = next(iter(s2))
            if s2.pop(vt):
                # Dirty L2 victim allocates (dirty) in its LLC home slice.
                vline = (vt << l2_shift) | si2
                vs3 = slices[(vline ^ (vline >> 7) ^ (vline >> 13))
                             % n_tiles]._sets[vline & llc_mask]
                vt3 = vline >> llc_shift
                if vt3 in vs3:
                    vs3.pop(vt3)
                    vs3[vt3] = True
                else:
                    if len(vs3) >= llc_ways:
                        vs3.pop(next(iter(vs3)))
                    vs3[vt3] = True
        s2[t2] = w
        if len(s1) >= l1_ways:
            vtag = next(iter(s1))
            if s1.pop(vtag):
                vline = (vtag << l1_shift) | (line & l1_mask)
                vs2 = l2_sets[vline & l2_mask]
                vt2 = vline >> l2_shift
                if vt2 in vs2:
                    vs2[vt2] = True
        s1[t1] = w


def _warmup_replay_fn(chip: Chip):
    """Pick the functional-warmup replay for this chip's cache policies."""
    core0 = chip.cores[0]
    if (core0.l1.array._policy_is_lru and core0.l2.array._policy_is_lru
            and chip.llc_slices[0]._policy_is_lru):
        return _replay_functional_lru
    return _replay_functional


def _warmup_traces(chip: Chip, workload, traces, n_active: int, seed: int):
    """Build per-core functional-warmup traces.

    For catalog workloads we draw a *fresh sample* of the same access
    distribution (offset seed), which fills the hierarchy with
    statistically-equivalent-but-disjoint lines. For explicit trace lists
    (mixes) we replay the trace with a high address bit flipped — same
    structure, disjoint lines — so no-reuse streams don't warm their own
    future lines into the cache.
    """
    llc_lines = sum(s.sets * s.ways for s in chip.llc_slices)
    n_warm = max(1000, 3 * llc_lines // n_active)
    out = []
    for c in range(n_active):
        if workload is not None:
            out.append(workload.generate(n_warm, seed=seed + 1000 * c + 503))
        else:
            ghost = traces[c].arr.copy()
            reps = max(1, n_warm // max(1, len(ghost)))
            ghost = np.concatenate([ghost] * reps) if reps > 1 else ghost
            ghost["addr"] = ghost["addr"] ^ np.uint64(1 << 41)
            out.append(Trace(ghost, "ghost-warm"))
    return out


def simulate(
    cfg: SystemConfig,
    workload: Union["object", Sequence[Trace]],
    ops_per_core: Optional[int] = None,
    warmup_frac: float = 0.25,
    seed: int = 1,
    max_ns: float = 5e8,
    validate: Union[bool, str, None] = None,
    trace: Optional["object"] = None,
    kernel: str = "fast",
    obs: Union[bool, str, None, "object"] = None,
    tracing: Union[bool, str, None, "object"] = None,
) -> SimResult:
    """Run one configuration against one workload.

    Parameters
    ----------
    cfg:
        System configuration (see :mod:`repro.system.config`).
    workload:
        Either a workload spec with ``generate(n_ops, seed) -> Trace`` and a
        ``name`` (see :mod:`repro.workloads`), or an explicit per-core list
        of traces (mixed workloads).
    ops_per_core:
        Memory operations per core (defaults to the workload's default,
        scaled by ``REPRO_SCALE``).
    warmup_frac:
        Leading fraction of each trace used to warm caches/predictors.
    validate:
        Invariant auditing (see :mod:`repro.validate`): ``True``/"on"
        collects violations into ``extras["invariant_violations"]``,
        ``"strict"`` raises on the first one, ``False``/"off" disables.
        ``None`` defers to ``$REPRO_VALIDATE`` (``1`` / ``strict``).
    trace:
        Optional :class:`~repro.validate.TraceRecorder` filled with the
        measured requests' timelines (implies ``validate="on"`` if
        validation was otherwise off).
    kernel:
        Event-dispatch loop: ``"fast"`` (the production loop) or
        ``"reference"`` (the retained baseline loop the fuzzer's
        ``diff_kernel`` oracle compares against). Both are bit-identical.
    obs:
        Observability (see :mod:`repro.obs`): ``True``/"on" samples
        metrics + time series into ``extras["obs"]``, ``"profile"``
        additionally profiles the event kernel, ``False``/"off"
        disables. A pre-built :class:`~repro.obs.ObsCollector` is used
        directly (the caller keeps it for exporting, profile included).
        ``None`` defers to ``$REPRO_OBS``. Observation never changes
        results: the sampler only reads state and its pending tick is
        cancelled when the last core drains, so every ``SimResult``
        field outside ``extras["obs"]`` is identical obs on or off.
    tracing:
        Causal span tracing (see :mod:`repro.tracing`): ``True``/"on"
        records per-request component spans + critical-path attribution
        into ``extras["trace"]``, ``"kernel"`` additionally counts event
        dispatches per callback (deterministic, identical on both
        loops), ``False``/"off" disables. A pre-built
        :class:`~repro.tracing.SpanTracer` is used directly (the caller
        keeps it for exporting). ``None`` defers to ``$REPRO_TRACING``.
        Like obs, the tracer is a pure observer: it schedules no events
        and every ``SimResult`` field outside ``extras["trace"]`` —
        including ``events_fired`` — is identical tracing on or off.
    """
    from repro.engine.kernel import Simulator
    from repro.exec.cache import config_digest
    from repro.obs import ObsCollector, resolve_obs_mode
    from repro.tracing import SpanTracer, resolve_tracing_mode
    from repro.validate import InvariantChecker, TraceRecorder, resolve_validate_mode

    if isinstance(obs, ObsCollector):
        collector: Optional[ObsCollector] = obs
    else:
        obs_mode = resolve_obs_mode(obs)
        collector = ObsCollector(mode=obs_mode) if obs_mode != "off" else None

    if isinstance(tracing, SpanTracer):
        tracer: Optional[SpanTracer] = tracing
    else:
        tracing_mode = resolve_tracing_mode(tracing)
        tracer = SpanTracer(mode=tracing_mode) if tracing_mode != "off" else None

    mode = resolve_validate_mode(validate)
    if mode == "off" and trace is not None:
        mode = "on"
    checker = None
    if mode != "off":
        checker = InvariantChecker(
            strict=(mode == "strict"),
            trace=trace if trace is not None else TraceRecorder(),
            config_hash=config_digest(cfg),
        )

    sim, chip = build_system(cfg, sim=Simulator(kernel=kernel))
    n_active = cfg.active_cores

    if isinstance(workload, (list, tuple)):
        traces = list(workload)
        if len(traces) != n_active:
            raise ValueError(f"need {n_active} traces, got {len(traces)}")
        wl_name = "mix"
        spec = None
    else:
        n_ops = ops_per_core or int(getattr(workload, "default_ops", 6000) * _SCALE)
        traces = [workload.generate(n_ops, seed=seed + 1000 * c) for c in range(n_active)]
        wl_name = workload.name
        spec = workload

    warm = [t.split(int(len(t) * warmup_frac))[0] for t in traces]
    meas = [t.split(int(len(t) * warmup_frac))[1] for t in traces]

    # Phase 0: functional warmup — establish steady-state cache contents
    # (and dirty bits) without timing, as ChampSim's warmup phase does.
    # 0a: a disjoint sample of the access distribution fills the LLC with
    #     steady-state pollution; 0b: replaying the timed-warmup prefix a
    #     few times installs the workload's actual hot set (the prefix's
    #     cold/stream lines are never revisited by the measured portion,
    #     so no future lines are leaked into the caches).
    replay = _warmup_replay_fn(chip)
    for c, wtrace in enumerate(_warmup_traces(chip, spec, traces, n_active, seed)):
        replay(chip, chip.cores[c], wtrace)
    for c in range(n_active):
        for _ in range(3):
            replay(chip, chip.cores[c], warm[c])

    # Phase A: warmup.
    remaining = [n_active]

    def _warm_done(core) -> None:
        remaining[0] -= 1

    for c in range(n_active):
        core = chip.cores[c]
        core.on_done = _warm_done
        core.start(warm[c])
    sim.run(until=max_ns)
    if remaining[0] != 0:
        raise RuntimeError(f"warmup did not drain within {max_ns} ns")

    # Phase B: measurement. The warmup phase drained completely above, so
    # this is a clean boundary to start auditing request lifecycles.
    if checker is not None:
        chip.checker = checker
    if tracer is not None:
        # Same attach point as the checker: every request created inside
        # the measurement window is created with span hooks live, so the
        # tracer's attribution guard mirrors the breakdown's exactly.
        tracer.attach(sim, chip)
    chip.begin_measurement()
    t0 = sim.now
    remaining[0] = n_active

    def _meas_done(core) -> None:
        remaining[0] -= 1
        if remaining[0] == 0 and collector is not None:
            # Cancel the pending sampler tick so the clock stops at the
            # last real event, exactly as it would without observability.
            collector.stop()

    if collector is not None:
        collector.attach(sim, chip)
        collector.start()
    for c in range(n_active):
        core = chip.cores[c]
        core.on_done = _meas_done
        core.start(meas[c])
    sim.run(until=max_ns * 2)
    if remaining[0] != 0:
        raise RuntimeError(f"measurement did not drain within {max_ns} ns")
    elapsed = sim.now - t0

    # Aggregate.
    active = chip.cores[:n_active]
    core_ipcs = [c.ipc for c in active]
    instructions = sum(c.total_instrs for c in active)
    bd = chip.lat.summary()

    bytes_total = sum(ch.stats.get("bytes", 0.0) for ch in chip.ddr_channels)
    bytes_rd = sum(ch.stats.get("bytes_rd", 0.0) for ch in chip.ddr_channels)
    bytes_wr = sum(ch.stats.get("bytes_wr", 0.0) for ch in chip.ddr_channels)
    bw = bytes_total / elapsed if elapsed > 0 else 0.0

    llc_lookups = sum(s.n_lookups for s in chip.llc_slices)
    llc_hits = sum(s.n_hits for s in chip.llc_slices)
    llc_misses = chip.stats.get("llc_misses", 0.0)
    l2_misses = chip.stats.get("l2_misses", 0.0)
    cs = chip.calm.stats
    calm_total = cs.total

    extras = {
        "l2_misses": l2_misses,
        "mem_writes": chip.stats.get("mem_writes", 0.0),
        "calm_wasted_bytes": chip.stats.get("calm_wasted_bytes", 0.0),
        "events_fired": float(sim.events_fired),
        # Per-DDR-channel traffic, in address-mapping order. The fuzzer's
        # channel-balance oracle reads this to catch interleave-decode skew.
        "channel_bytes": [float(ch.stats.get("bytes", 0.0))
                          for ch in chip.ddr_channels],
    }
    if chip.tiers is not None:
        # Fixed key set regardless of policy: the migration-identity
        # oracle diffs full results bit-for-bit across policies.
        extras["tiering"] = chip.tiers.snapshot()
    if cfg.memory_kind == "cxl" and cfg.cxl_backend == "ssd":
        extras["ssd"] = {
            k: float(sum(ch.stats.get(k, 0.0) for ch in chip.ddr_channels))
            for k in ("ssd_hits", "ssd_misses", "ssd_hit_ns_sum",
                      "ssd_miss_ns_sum", "ssd_media_rd_bytes",
                      "ssd_media_wr_bytes", "ssd_wr_hits", "ssd_wr_misses")
        }
    if checker is not None:
        checker.finish(chip, elapsed)
        extras["invariant_violations"] = checker.report()
    if collector is not None:
        collector.finalize(elapsed)
        # Deterministic payload only (no profile wall times): the fuzz
        # oracles diff full results across dispatch loops and cache hits.
        extras["obs"] = collector.snapshot(with_profile=False)
    if tracer is not None:
        extras["trace"] = tracer.snapshot()

    return SimResult(
        config_name=cfg.name,
        workload_name=wl_name,
        ipc=sum(core_ipcs) / len(core_ipcs),
        core_ipcs=core_ipcs,
        instructions=instructions,
        elapsed_ns=elapsed,
        n_misses=bd["n"],
        avg_miss_latency=bd["total"],
        avg_onchip=bd["onchip"],
        avg_queuing=bd["queuing"],
        avg_dram=bd["dram"],
        avg_cxl=bd["cxl"],
        p90_miss_latency=bd["p90"],
        p50_miss_latency=bd["p50"],
        p99_miss_latency=bd["p99"],
        p999_miss_latency=bd["p999"],
        bandwidth_gbps=bw,
        read_bandwidth_gbps=bytes_rd / elapsed if elapsed > 0 else 0.0,
        write_bandwidth_gbps=bytes_wr / elapsed if elapsed > 0 else 0.0,
        peak_bandwidth_gbps=chip.peak_memory_bandwidth_gbps,
        llc_mpki=1000.0 * llc_misses / instructions if instructions else 0.0,
        llc_hit_rate=llc_hits / llc_lookups if llc_lookups else 0.0,
        calm_false_pos_rate=cs.false_positive_rate,
        calm_false_neg_rate=cs.false_negative_rate,
        calm_fraction=(cs.calm_llc_hit + cs.calm_llc_miss) / calm_total if calm_total else 0.0,
        extras=extras,
    )
