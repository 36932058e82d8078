"""Chip assembly: cores, LLC slices, NoC, CALM, and memory ports.

:class:`Chip` owns everything outside the cores' private L1/L2: the
distributed LLC, the 2D-mesh latency model, the CALM policy, and the
memory ports (direct DDR channels in the baseline, CXL channels in
COAXIAL). It implements the L2-miss state machine, including the CALM
join (an L2 miss that probed LLC and memory concurrently completes only
when the LLC response has arrived, using memory data on an LLC miss).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.engine import Component, Simulator
from repro.cache.cache import CacheArray, CacheLevel, LINE_BYTES
from repro.calm.policy import IdealPredictor, make_calm_policy
from repro.cpu.core import Core, CoreParams
from repro.cpu.prefetch import make_prefetcher
from repro.cxl.channel import CxlChannel
from repro.cxl.profiles import get_profile
from repro.dram.controller import DDRChannel
from repro.noc.mesh import Mesh2D
from repro.request import MemRequest, READ, WRITE
from repro.system.config import SystemConfig
from repro.system.stats import LatencyBreakdown
from repro.tiering import TierManager

LINE_MASK = ~0x3F


class Chip(Component):
    """The simulated server chip plus its memory system.

    A chip is wired with a few upward callbacks: each core calls the
    chip's ``l2_miss``/``l2_writeback``, each memory port calls back into
    the level above it, and the observer slot points at observers that
    may point back. :meth:`close` undoes them, after which reference
    counting alone frees the chip once its last holder drops it.
    """

    def __init__(self, sim: Simulator, cfg: SystemConfig) -> None:
        super().__init__(sim, cfg.name)
        self.cfg = cfg
        self.mesh = Mesh2D(cfg.mesh_rows, cfg.mesh_cols, cfg.noc_hop_cyc, cfg.freq_ghz)
        self.llc_hit_ns = cfg.llc_hit_cyc / cfg.freq_ghz

        # Distributed LLC: one slice per tile.
        n_tiles = self.mesh.n_tiles
        slice_bytes = cfg.llc_total_kb * 1024 // n_tiles
        slice_sets = max(1, slice_bytes // (cfg.llc_ways * LINE_BYTES))
        # round down to a power of two
        slice_sets = 1 << (slice_sets.bit_length() - 1)
        self.llc_slices: List[CacheArray] = [
            CacheArray(slice_sets, cfg.llc_ways, cfg.replacement) for _ in range(n_tiles)
        ]

        # Memory ports. Lines interleave across the system's total DDR
        # channels; each channel strips those bits before its bank decode.
        self.n_ddr_total = cfg.n_ddr_channels
        self.ports: List = []
        self.ddr_channels: List[DDRChannel] = []
        self.tiers: Optional[TierManager] = None
        if cfg.memory_kind == "ddr":
            for i in range(cfg.n_mem_ports):
                ch = DDRChannel(sim, f"ddr{i}", system_channels=self.n_ddr_total)
                self.ports.append(ch)
                self.ddr_channels.append(ch)
        else:
            # With tiering, a small local-DDR tier sits in front of the
            # CXL ports; lines interleave within each tier's own width,
            # and the TierManager (not the flat interleave) picks the
            # port per request.
            n_local = 0
            cxl_width = self.n_ddr_total
            if cfg.tiering is not None:
                n_local = cfg.tiering.local_channels
                cxl_width = cfg.n_mem_ports * cfg.ddr_per_cxl
                for i in range(n_local):
                    ch = DDRChannel(sim, f"loc{i}", system_channels=n_local)
                    self.ports.append(ch)
                    self.ddr_channels.append(ch)
            profile = get_profile(cfg.device_profile)
            for i in range(cfg.n_mem_ports):
                cx = CxlChannel(sim, f"cxl{i}", cfg.cxl_params, cfg.ddr_per_cxl,
                                system_channels=cxl_width,
                                profile=profile, profile_seed=i,
                                backend=cfg.cxl_backend,
                                ssd_params=cfg.ssd_params)
                self.ports.append(cx)
                self.ddr_channels.extend(cx.device.channels)
            if cfg.tiering is not None:
                self.tiers = TierManager(cfg.tiering, n_local, cxl_width,
                                         cfg.ddr_per_cxl)
        self.port_tiles = self.mesh.default_port_tiles(len(self.ports))
        # Hot-path locals: the dense NoC latency table and tile count are
        # read several times per L2 miss; binding them once here keeps the
        # miss-path callbacks free of repeated attribute chains. Each
        # port's entry point (``submit`` on a CXL channel, ``enqueue`` on a
        # DDR channel) is bound once too, as is port_of's channel divisor.
        self._mlat = self.mesh._lat
        self._n_tiles = self.mesh.n_tiles
        self._port_entry = [p.submit if hasattr(p, "submit") else p.enqueue
                            for p in self.ports]
        self._ddr_per_port = cfg.ddr_per_cxl if cfg.memory_kind == "cxl" else 1

        # CALM policy, wired to the simulator clock and system bandwidth.
        # Its clock and the ideal predictor's probe close over the
        # simulator and the LLC, not the chip, so they add no cycle.
        self.calm = make_calm_policy(
            cfg.calm_policy,
            peak_bandwidth_gbps=self.peak_memory_bandwidth_gbps,
            now_fn=lambda: sim.now,
        )
        if isinstance(self.calm, IdealPredictor):
            slices, slice_of = self.llc_slices, self.mesh.llc_slice_of
            self.calm.probe_fn = lambda addr: slices[slice_of(addr)].probe(addr)

        # Cores with private L1/L2 (and optional prefetchers).
        params = CoreParams(cfg.freq_ghz, cfg.width, cfg.rob, cfg.mshrs,
                            cfg.l1_hit_cyc, cfg.l2_hit_cyc)
        self.cores: List[Core] = []
        for cid in range(cfg.n_cores):
            l1 = CacheLevel(f"l1d{cid}", cfg.l1_kb * 1024, cfg.l1_ways,
                            cfg.l1_hit_cyc / cfg.freq_ghz, cfg.replacement)
            l2 = CacheLevel(f"l2_{cid}", cfg.l2_kb * 1024, cfg.l2_ways,
                            cfg.l2_hit_cyc / cfg.freq_ghz, cfg.replacement)
            self.cores.append(Core(
                sim, cid, params, l1, l2,
                l2_miss_fn=self.l2_miss,
                l2_writeback_fn=self.l2_writeback,
                prefetcher=make_prefetcher(cfg.prefetcher, cfg.prefetch_degree),
            ))

        # Measurement state. Latencies stream into a constant-memory
        # aggregator (running component sums + log-bucketed histogram)
        # instead of an unbounded per-access record list.
        self.measuring = False
        self.meas_start = 0.0
        self.lat = LatencyBreakdown()

        # The one observer slot (repro.observer): ``None`` keeps each hook
        # site at one attribute test. ``set_observer`` fills it, and the
        # cores' and CXL ports' slots, at the measurement boundary.
        self.observer = None

    def set_observer(self, observer) -> None:
        """Install one observer (or a fan-out, or ``None``) at every hook site."""
        self.observer = observer
        for core in self.cores:
            core.observer = observer
        for port in self.ports:
            if isinstance(port, CxlChannel):
                port.observer = observer

    def close(self) -> None:
        """Unwire every back-reference into the chip, so it is freed by
        reference count, without the cyclic collector.

        Clears the observer slots, each core's two miss hooks and the
        simulator's pending events (a run that raised leaves some, and
        they point into the chip), and closes each memory port. Counters,
        stats, cache contents and the CALM policy stay readable. A closed
        chip cannot run again; closing twice is harmless.
        """
        self.set_observer(None)
        for core in self.cores:
            core.l2_miss_fn = core.l2_writeback_fn = None
        self.sim.queue.clear()
        for port in self.ports:
            port.close()

    # -- topology helpers ---------------------------------------------------------
    def port_of(self, addr: int) -> int:
        """Memory port serving this address (global DDR-channel interleave)."""
        return (addr >> 6) % self.n_ddr_total // self._ddr_per_port

    @property
    def peak_memory_bandwidth_gbps(self) -> float:
        """Aggregate DDR bandwidth behind all memory ports."""
        return sum(ch.peak_bandwidth_gbps for ch in self.ddr_channels)

    # -- L2 miss path ---------------------------------------------------------------
    def l2_miss(self, core: Core, op_idx: int, addr: int, is_write: bool,
                pc: int, prefetch: bool = False) -> None:
        """Entry point from a core, invoked at the miss's issue time.

        ``prefetch`` requests take the serial path (no CALM), are excluded
        from latency records and CALM telemetry, and fill the caches like
        any other line on return. The miss's state rides in the request's
        slots (see :class:`~repro.request.MemRequest`).
        """
        now = self.sim.now
        line = addr & LINE_MASK
        req = MemRequest(line, READ, core.core_id, pc)
        req.t_create = now
        n_tiles = self._n_tiles
        lno = line >> 6
        stile = (lno ^ (lno >> 7) ^ (lno >> 13)) % n_tiles
        req.core = core
        req.op = op_idx
        req.prefetch = prefetch
        req.stile = stile
        calm = (not is_write) and (not prefetch) and self.calm.decide(pc, line)
        req.calm = calm
        if self.observer is not None:
            self.observer.on_l2_miss(req)
        st = self.stats
        key = "prefetch_reqs" if prefetch else "l2_misses"
        st[key] = st.get(key, 0.0) + 1.0

        ctile = core.core_id % n_tiles
        t_lookup = now + self._mlat[ctile][stile] + self.llc_hit_ns
        self.sim.schedule_at(t_lookup, self._llc_lookup, req)

        if calm:
            self._send_to_memory(req, ctile)

    def _send_to_memory(self, req: MemRequest, from_tile: int) -> None:
        """Route a read towards its memory port over the NoC."""
        extra = 0.0
        if self.tiers is None:
            pidx = self.port_of(req.addr)
        else:
            pidx, extra = self.tiers.route(req.addr, self.sim.now)
            if extra:
                # Migration wait is interface time: attribute it to the
                # CXL component so the breakdown (and the checker's
                # conservation audit) see it.
                req.cxl_delay += extra
        if self.observer is not None:
            self.observer.on_mem_submit(req, self.sim.now, extra)
        ptile = self.port_tiles[pidx]
        req.port_tile = ptile
        req.callback = self._mem_response
        t = self.sim.now + self._mlat[from_tile][ptile] + extra
        self.sim.schedule_at(t, self._port_entry[pidx], req)

    def _llc_lookup(self, req: MemRequest) -> None:
        now = self.sim.now
        stile = req.stile
        hit = self.llc_slices[stile].lookup(req.addr)
        req.llc_hit = hit
        req.t_llc_done = now
        if not req.prefetch:
            self.calm.observe(req.pc, req.addr, hit, req.calm)
        ctile = req.core_id % self._n_tiles
        t_resp_at_core = now + self._mlat[stile][ctile]
        st = self.stats
        if hit:
            st["llc_hits"] = st.get("llc_hits", 0.0) + 1.0
            self.sim.schedule_at(t_resp_at_core, self._complete, req)
            return
        st["llc_misses"] = st.get("llc_misses", 0.0) + 1.0
        if not req.calm:
            self._send_to_memory(req, stile)
            return
        # CALM join: LLC missed; wait for (or use already-arrived) memory data.
        req.llc_resp_at_core = t_resp_at_core
        mem_t = req.mem_at_core
        if mem_t is not None:
            self._fill_llc(req.addr, stile)
            self.sim.schedule_at(max(mem_t, t_resp_at_core), self._complete, req)

    def _mem_response(self, req: MemRequest) -> None:
        """Memory data arrived at the port (CPU side); cross the NoC home."""
        ptile = req.port_tile
        ctile = req.core_id % self._n_tiles
        t = self.sim.now + self._mlat[ptile][ctile]
        self.sim.schedule_at(t, self._mem_at_core, req)

    def _mem_at_core(self, req: MemRequest) -> None:
        now = self.sim.now
        if self.observer is not None:
            self.observer.on_mem_response(req)
        if req.calm:
            hit = req.llc_hit
            if hit:
                # False positive: memory fetch wasted; LLC already served it.
                st = self.stats
                st["calm_wasted_bytes"] = st.get("calm_wasted_bytes", 0.0) + 64.0
                return
            if hit is None:
                # LLC lookup still pending: it completes the join.
                req.mem_at_core = now
                return
            # LLC miss already known: complete once the LLC response is in.
            self._fill_llc(req.addr, req.stile)
            t_done = max(now, req.llc_resp_at_core)
            self.sim.schedule_at(t_done, self._complete, req)
            return
        # Serial path: fill LLC and hand the line to the core.
        self._fill_llc(req.addr, req.stile)
        self._complete(req)

    def _complete(self, req: MemRequest) -> None:
        if req.completed:
            if self.observer is not None:
                self.observer.on_double_complete(req)
            return
        req.completed = True
        now = self.sim.now
        req.t_complete = now
        if self.observer is not None:
            self.observer.on_complete(req)
        if (self.measuring and req.t_create >= self.meas_start
                and not req.prefetch):
            total = now - req.t_create
            if req.llc_hit:
                # Served on chip: the whole latency is on-chip time, even if
                # a (wasted) CALM memory fetch is still in flight.
                self.lat.record(total, total, 0.0, 0.0, 0.0)
            else:
                # Inlined MemRequest latency properties (hot path).
                t_issue = req.t_mc_issue
                queuing = (t_issue - req.t_mc_enqueue
                           if t_issue >= 0 and req.t_mc_enqueue >= 0 else 0.0)
                dram = (req.t_dram_done - t_issue
                        if req.t_dram_done >= 0 and t_issue >= 0 else 0.0)
                cxl = req.cxl_delay
                onchip = max(0.0, total - queuing - dram - cxl)
                self.lat.record(total, onchip, queuing, dram, cxl)
        req.core.complete_miss(req.op, req.addr)

    # -- writeback path ------------------------------------------------------------
    def l2_writeback(self, core: Core, addr: int) -> None:
        """Dirty L2 eviction: allocate in the LLC (non-inclusive WB cache)."""
        line = addr & LINE_MASK
        lno = line >> 6
        n_tiles = self._n_tiles
        stile = (lno ^ (lno >> 7) ^ (lno >> 13)) % n_tiles
        t = self.sim.now + self._mlat[core.core_id % n_tiles][stile]
        self.sim.schedule_at(t, self._llc_wb, line, stile)

    def _llc_wb(self, line: int, stile: int) -> None:
        st = self.stats
        st["l2_writebacks"] = st.get("l2_writebacks", 0.0) + 1.0
        self._fill_llc(line, stile, dirty=True)

    def _fill_llc(self, line: int, stile: int, dirty: bool = False) -> None:
        victim = self.llc_slices[stile].fill(line, dirty)
        if victim is not None and victim[1]:
            self._mem_write(victim[0], stile)

    def _mem_write(self, line: int, from_tile: int) -> None:
        """Posted write of a dirty LLC victim to memory."""
        st = self.stats
        st["mem_writes"] = st.get("mem_writes", 0.0) + 1.0
        extra = 0.0
        if self.tiers is None:
            pidx = self.port_of(line)
        else:
            pidx, extra = self.tiers.route(line, self.sim.now)
        req = MemRequest(line, WRITE)
        t = self.sim.now + self._mlat[from_tile][self.port_tiles[pidx]] + extra
        self.sim.schedule_at(t, self._port_entry[pidx], req)

    # -- measurement control ----------------------------------------------------------
    def begin_measurement(self) -> None:
        """Reset all statistics at the warmup/measurement boundary."""
        self.measuring = True
        self.meas_start = self.sim.now
        self.lat.reset()
        self.reset_stats()
        self.calm.reset_stats()
        if self.tiers is not None:
            self.tiers.reset_stats()
        for ch in self.ddr_channels:
            ch.reset_stats()
        for port in self.ports:
            if isinstance(port, CxlChannel):
                port.reset_stats()
                port.reset_link_counters()
        for s in self.llc_slices:
            s.reset_counters()
        for core in self.cores:
            core.reset_stats()
            core.l1.array.reset_counters()
            core.l2.array.reset_counters()


def build_system(cfg: SystemConfig, sim: Optional[Simulator] = None) -> Tuple[Simulator, Chip]:
    """Create a simulator and a chip for ``cfg``."""
    sim = sim or Simulator()
    return sim, Chip(sim, cfg)
