"""Simulation driver: warmup + measurement phases, result aggregation.

Mirrors the paper's methodology at Python scale: every active core runs
the same workload trace (or its own, for mixed workloads), caches and
predictors warm up on a prefix of the trace, statistics reset, and the
measurement window covers the remaining ops. IPC is committed instructions
over each core's own measured span, averaged across active cores.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cache.warmup import busiest_share, lru_pass
from repro.cpu.trace import Trace
from repro.system.builder import Chip, build_system
from repro.system.config import SystemConfig, config_digest
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

#: Leading fraction of each trace used to warm caches and predictors.
WARMUP_FRAC = 0.25

#: Simulated ns the warmup phase may take to drain (measurement: twice this).
MAX_NS = 5e8

#: Functional-warmup input: ``(core index, addr, is_write)`` columns in
#: replay order (``addr`` a ``uint64`` and ``is_write`` a ``uint8`` column).
Streams = List[Tuple[int, np.ndarray, np.ndarray]]

#: The set-parallel warmup pass runs only while every cache level's busiest
#: set holds at most this share of the level's events; otherwise the scalar
#: replay runs. See docs/performance.md for the measurement.
MAX_SET_SHARE = 1 / 10


def _replay_functional(chip: Chip, streams: Streams) -> None:
    """Replay warmup streams through the cache arrays, any policy.

    This is ChampSim-style functional warmup: it establishes steady-state
    cache contents — including dirty bits, so the measured phase produces
    realistic DRAM write(back) traffic — at a fraction of the cost of timed
    simulation. Deeper-level victims are simply dropped (the memory system
    is not involved). ``streams`` lists ``(core index, addr, is_write)``
    columns in replay order. It is the fallback of
    :func:`_replay_functional_lru` and the reference its set-parallel pass
    is tested against.
    """
    slices = chip.llc_slices
    slice_of = chip.mesh.llc_slice_of
    for c, addr, is_write in streams:
        l1 = chip.cores[c].l1.array
        l2 = chip.cores[c].l2.array
        for a, w in zip(addr.tolist(), is_write.tolist()):
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


def _replay_lru_sets(chip: Chip, streams: Streams,
                     max_share: float = 1.0) -> bool:
    """Replay ``streams`` level by level with :func:`repro.cache.warmup.lru_pass`.

    Leaves exactly the state :func:`_replay_functional` leaves on an LRU
    chip. Each level's stream keeps the scalar replay's order within one
    access: the L1 lookup; on an L1 miss the L2 touch, then the
    ``set_dirty`` of a dirty L1 victim; on an L2 miss the clean LLC touch,
    then the dirty install of a dirty L2 victim. The L1 and L2 sets of all
    cores sit side by side, and the LLC stream spans every slice. Returns
    False, having changed nothing, when a cache is not empty or not LRU,
    or a level's busiest set holds more than ``max_share`` of its events
    (see :func:`repro.cache.warmup.busiest_share`).
    """
    cores = chip.cores
    used = sorted({c for c, _, _ in streams})
    l1s = [(c, cores[c].l1.array) for c in used]
    l2s = [(c, cores[c].l2.array) for c in used]
    slices = list(enumerate(chip.llc_slices))
    if any(a.occupancy() or not a._policy_is_lru for _, a in l1s + l2s + slices):
        return False
    if not streams:
        return True
    l1, l2, llc = cores[0].l1.array, cores[0].l2.array, chip.llc_slices[0]

    # The chip's access stream: the streams back to back. Each level's
    # columns are dropped before the next level's are built, which keeps
    # phase 0's peak memory near the scalar loop's.
    cores_of, addrs, writes = zip(*streams)
    line = (np.concatenate(addrs) >> 6).astype(np.int64)
    write = np.concatenate(writes) != 0
    core = np.repeat(np.array(cores_of, np.int32), [len(a) for a in addrs])
    del cores_of, addrs, writes

    n_sets = len(cores) * l1.sets
    sets = (core * l1.sets + (line & l1._mask)).astype(np.int32)
    set_events = np.bincount(sets, minlength=n_sets)
    if busiest_share(set_events) > max_share:
        return False
    r1 = lru_pass(sets, line, write, set_events, l1.ways)
    del sets
    rows1 = r1.rows
    # L2 stream: per L1 miss, its touch, then the set_dirty of the dirty
    # L1 victim the miss evicted.
    miss = ~r1.hit
    dirty_victim, victim = miss & r1.victim_dirty, r1.victim
    del r1
    src, mark, line = _next_level(miss, dirty_victim, line, victim)
    write, core = write[src], core[src]
    del miss, dirty_victim, victim, src

    n_sets = len(cores) * l2.sets
    sets = (core * l2.sets + (line & l2._mask)).astype(np.int32)
    del core
    set_events = np.bincount(sets, minlength=n_sets)
    if busiest_share(set_events) > max_share:
        return False
    r2 = lru_pass(sets, line, write, set_events, l2.ways, set_dirty=mark)
    del sets, write
    rows2 = r2.rows
    # LLC stream: per L2 miss, its clean touch, then the dirty install of
    # the dirty L2 victim the miss evicted.
    miss = ~(r2.hit | mark)
    dirty_victim, victim = miss & r2.victim_dirty, r2.victim
    del r2, mark
    write, line = _next_level(miss, dirty_victim, line, victim)[1:]
    del miss, dirty_victim, victim

    n_sets = len(slices) * llc.sets
    tile = chip.mesh.llc_slice_of(line.astype(np.uint64) << 6)
    sets = (tile.astype(np.int32) * llc.sets
            + (line & llc._mask).astype(np.int32))
    del tile
    set_events = np.bincount(sets, minlength=n_sets)
    if busiest_share(set_events) > max_share:
        return False
    rows3 = lru_pass(sets, line, write, set_events, llc.ways).rows
    del sets, line, write

    for arrays, rows in ((l1s, rows1), (l2s, rows2), (slices, rows3)):
        _load_lru(arrays, *rows)
    return True


def _next_level(first, second, line, victim):
    """Build the next level's stream from two slots per event: an access to
    ``line`` where ``first`` holds, then an event on ``victim`` (the line
    the event evicted) where ``second`` holds. Returns each new event's
    source event, whether it came from the second slot, and its line."""
    keep = np.empty(2 * len(first), bool)
    keep[0::2] = first
    keep[1::2] = second
    slot = np.flatnonzero(keep).astype(np.int32)
    del keep
    src = slot >> 1
    mark = (slot & 1).astype(bool)
    out = line[src]
    out[mark] = victim[src[mark]]
    return src, mark, out


def _load_lru(arrays, counts, lines, dirty) -> None:
    """Load a level's rows into its ``(block, array)`` pairs: block ``b``
    owns the level's sets ``[b * sets, (b + 1) * sets)``."""
    each = arrays[0][1].sets
    start = np.concatenate(([0], np.cumsum(counts)))
    for b, arr in arrays:
        lo, hi = b * each, (b + 1) * each
        rows = slice(start[lo], start[hi])
        arr.load_lru(counts[lo:hi].tolist(),
                     (lines[rows] >> arr._shift).tolist(),
                     dirty[rows].tolist())


def _replay_functional_lru(chip: Chip, streams: Streams) -> None:
    """Phase 0's entry point: whole-chip functional warmup.

    Runs the set-parallel pass (:func:`_replay_lru_sets`) on an LRU chip
    when every level's busiest set holds at most :data:`MAX_SET_SHARE` of
    that level's events, and the scalar :func:`_replay_functional`
    otherwise. Both leave the same cache state.
    """
    if not _replay_lru_sets(chip, streams, MAX_SET_SHARE):
        _replay_functional(chip, streams)


def _warmup_traces(chip: Chip, workload, traces, n_active: int, seed: int):
    """Per-core functional-warmup samples, as ``(addr, is_write)`` columns.

    For catalog workloads we draw a *fresh sample* of the same access
    distribution (offset seeds, one shared structure draw), which fills the
    hierarchy with statistically-equivalent-but-disjoint lines. For
    explicit trace lists (mixes) we replay the trace with a high address
    bit flipped — same structure, disjoint lines — so no-reuse streams
    don't warm their own future lines into the cache.
    """
    llc_lines = sum(s.sets * s.ways for s in chip.llc_slices)
    n_warm = max(1000, 3 * llc_lines // n_active)
    if workload is not None:
        addrs, is_write = workload.sample(
            n_warm, [seed + 1000 * c + 503 for c in range(n_active)])
        return [(addr, is_write) for addr in addrs]
    out = []
    for trace in traces:
        arr = trace.arr
        reps = max(1, n_warm // max(1, len(arr)))
        out.append((np.tile(arr["addr"], reps) ^ np.uint64(1 << 41),
                    np.tile(arr["is_write"], reps)))
    return out


def _warmup_streams(chip: Chip, spec, traces, warm, seed: int) -> Streams:
    """Phase 0's replay order: every active core's disjoint sample, core 0
    first, then each core's timed-warmup prefix (``warm``, traces) three
    times, as views of the prefix's fields."""
    samples = _warmup_traces(chip, spec, traces, len(traces), seed)
    return [(c, *sample) for c, sample in enumerate(samples)] + [
        (c, prefix.arr["addr"], prefix.arr["is_write"])
        for c, prefix in enumerate(warm) for _ in range(3)]


def _workload_traces(cfg: SystemConfig, workload, ops_per_core, seed: int):
    """Per-core traces for ``simulate()``: ``(traces, name, spec)``.

    ``spec`` is the catalog workload, or ``None`` for an explicit trace
    list (a mix).
    """
    if ops_per_core is not None and ops_per_core < 1:
        raise ValueError(f"ops_per_core must be >= 1, got {ops_per_core}")
    n_active = cfg.active_cores
    if isinstance(workload, (list, tuple)):
        if len(workload) != n_active:
            raise ValueError(f"need {n_active} traces, got {len(workload)}")
        return list(workload), "mix", None
    n_ops = (int(workload.default_ops * _SCALE) if ops_per_core is None
             else ops_per_core)
    return (workload.generate_many(
        n_ops, [seed + 1000 * c for c in range(n_active)]),
        workload.name, workload)


def _observers(cfg: SystemConfig, validate, obs, tracing) -> list:
    """The run's live observers, in payload order, from ``simulate()``'s
    ``validate``/``obs``/``tracing`` arguments (or their env defaults);
    the checker's and the tracer's modules load only when they are on."""
    from repro.obs import ObsCollector
    from repro.observer import Observer, resolve_mode

    live = []
    mode = resolve_mode("validate", validate)
    if mode != "off":
        from repro.validate import InvariantChecker
        live.append(InvariantChecker(strict=(mode == "strict"),
                                     config_hash=config_digest(cfg)))
    if isinstance(obs, Observer):
        live.append(obs)                        # pre-built: the caller's
    elif resolve_mode("obs", obs) != "off":
        live.append(ObsCollector(mode=resolve_mode("obs", obs)))
    if isinstance(tracing, Observer):
        live.append(tracing)
    elif resolve_mode("tracing", tracing) != "off":
        from repro.tracing import SpanTracer
        live.append(SpanTracer(mode=resolve_mode("tracing", tracing)))
    return live


def simulate(
    cfg: SystemConfig,
    workload: Union["object", Sequence[Trace]],
    ops_per_core: Optional[int] = None,
    seed: int = 1,
    validate: Union[bool, str, None] = None,
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
        Either a catalog :class:`~repro.workloads.params.WorkloadSpec` (see
        :mod:`repro.workloads`), or an explicit per-core list of traces
        (mixed workloads).
    ops_per_core:
        Memory operations per core, at least 1 (``None``: the workload's
        default, scaled by ``REPRO_SCALE``). The first
        :data:`WARMUP_FRAC` of each trace warms caches and predictors.
    validate:
        Invariant auditing (see :mod:`repro.validate`): ``True``/"on"
        collects violations into ``extras["invariant_violations"]``,
        ``"strict"`` raises on the first one, ``False``/"off" disables.
        ``None`` defers to ``$REPRO_VALIDATE`` (``1`` / ``strict``).
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
        ``None`` defers to ``$REPRO_OBS``.
    tracing:
        Causal span tracing (see :mod:`repro.tracing`): ``True``/"on"
        records per-request component spans, timelines and
        critical-path attribution into ``extras["trace"]``, ``"kernel"``
        additionally counts event dispatches per callback
        (deterministic, identical on both loops), ``False``/"off"
        disables. A pre-built :class:`~repro.tracing.SpanTracer` is used
        directly (the caller keeps it for exporting). ``None`` defers to
        ``$REPRO_TRACING``.

    All three are observers (:class:`~repro.observer.Observer`): they
    attach at the measurement boundary, only read state, never schedule,
    and each stores one payload in ``extras``. With obs on, the measured
    phase runs in ``run(until=t)`` slices and the collector samples its
    time series between them. Every other ``SimResult`` field, including
    ``events_fired``, is identical with any of them on or off.

    Nothing of the chip outlives the call, whether it returns or raises:
    :meth:`~repro.system.builder.Chip.close` unwires it after aggregation
    and each observer's ``finish`` drops it, so reference counting frees
    it without the cyclic collector.
    """
    from repro.engine.kernel import Simulator

    observers = _observers(cfg, validate, obs, tracing)
    sim, chip = build_system(cfg, sim=Simulator(kernel=kernel))
    try:
        return _run(cfg, sim, chip, observers, workload, ops_per_core, seed)
    finally:
        chip.close()


def _run(cfg: SystemConfig, sim, chip: Chip, observers: list, workload,
         ops_per_core, seed: int) -> SimResult:
    """``simulate()`` on a built chip: phase 0, the timed warmup, the
    measured phase with ``observers`` attached, and aggregation."""
    from repro.obs import ObsCollector
    from repro.observer import observer_slot

    traces, wl_name, spec = _workload_traces(cfg, workload, ops_per_core,
                                             seed)
    warm, meas = zip(*(t.split(int(len(t) * WARMUP_FRAC)) for t in traces))

    # Phase 0: functional warmup — establish steady-state cache contents
    # (and dirty bits) without timing, as ChampSim's warmup phase does.
    # 0a: a disjoint sample of the access distribution fills the LLC with
    #     steady-state pollution; 0b: replaying the timed-warmup prefix a
    #     few times installs the workload's actual hot set (the prefix's
    #     cold/stream lines are never revisited by the measured portion,
    #     so no future lines are leaked into the caches).
    _replay_functional_lru(chip, _warmup_streams(chip, spec, traces, warm, seed))

    # Phase A: warmup.
    active = chip.cores[:cfg.active_cores]
    for core, trace in zip(active, warm):
        core.start(trace)
    sim.run(until=MAX_NS)
    if not all(core.done for core in active):
        raise RuntimeError(f"warmup did not drain within {MAX_NS} ns")

    # Phase B: measurement. The warmup phase drained completely above, so
    # this is a clean boundary to attach observers: every request created
    # inside the measurement window is created with hooks live.
    chip.begin_measurement()
    if observers:
        chip.set_observer(observer_slot(observers))
        for ob in observers:
            ob.attach(sim, chip)
    t0 = sim.now
    for core, trace in zip(active, meas):
        core.start(trace)
    # The obs series is sampled between slices of the run, every
    # ``interval_ns`` (read after each sample: compaction doubles it),
    # until the last core drains; the final run drains trailing events.
    collector = next((ob for ob in observers if isinstance(ob, ObsCollector)),
                     None)
    while (collector is not None and sim.queue
           and not all(core.done for core in active)):
        t = sim.now + collector.series.interval_ns
        if t > MAX_NS * 2:
            break
        sim.run(until=t)
        if not all(core.done for core in active):
            collector.sample()
    sim.run(until=MAX_NS * 2)
    if not all(core.done for core in active):
        raise RuntimeError(f"measurement did not drain within {MAX_NS} ns")
    elapsed = sim.now - t0

    # Aggregate.
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
    for ob in observers:
        extras[ob.key] = ob.finish(chip, elapsed)

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
