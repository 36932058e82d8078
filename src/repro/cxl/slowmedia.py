"""SSD-backed slow-media Type-3 backend with an on-device DRAM cache.

PAPERS.md names SSD-backed CXL memory as a direction: a Type-3 device
whose capacity medium is flash, fronted by a small on-device DRAM cache.
:class:`SsdMediaChannel` models one such device-internal channel and is a
drop-in replacement for :class:`~repro.dram.controller.DDRChannel` behind
:class:`~repro.cxl.device.CxlType3Device` (selected with the
``cxl_backend="ssd"`` config knob).

Path model (all times deterministic, no randomness):

* **read hit** — device DRAM bus serialization + ``cache_hit_ns``; hits
  contend only with other DRAM-cache traffic, never with the media
  backlog, so the hit path is structurally never slower than the miss
  path — the property the ``ssd_hit_path`` metamorphic oracle checks.
* **read miss** — media-link serialization + ``media_read_ns``, then a
  latency-only DRAM fill hop (the media link is the bottleneck by 8x,
  so fills never saturate the DRAM bus; reserving the shared bus at the
  future fetch time would block hits non-causally).
* **write** — posted into the DRAM cache (dirty); dirty evictions pay a
  media writeback on the shared media link.

Byte accounting happens at bus-completion time so the invariant
checker's ``bytes <= peak * elapsed + slack`` bound holds under backlog:
a serial link completes at most one straddling slot per measurement
boundary, which the checker's per-sub slack already covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.cache.cache import CacheArray
from repro.cxl.link import SerialLink
from repro.engine import Component, Simulator
from repro.request import MemRequest, READ, WRITE, WRITEBACK


@dataclass(frozen=True)
class SsdParams:
    """Timing/organization of one SSD-backed slow-media channel."""

    cache_sets: int = 1024          # on-device DRAM cache: sets (power of two)
    cache_ways: int = 8             # ... x ways x 64 B lines (512 KiB default)
    cache_hit_ns: float = 45.0      # device controller + DRAM cache access
    media_read_ns: float = 1500.0   # flash read latency (page-cache class)
    media_write_ns: float = 2500.0  # flash program latency (posted)
    media_goodput_gbps: float = 3.2     # flash channel bandwidth
    dram_goodput_gbps: float = 25.6     # on-device DRAM cache bandwidth

    def __post_init__(self) -> None:
        if self.cache_sets < 1 or self.cache_sets & (self.cache_sets - 1):
            raise ValueError("cache_sets must be a power of two")
        if self.cache_ways < 1:
            raise ValueError("cache_ways must be >= 1")
        for f in ("cache_hit_ns", "media_read_ns", "media_write_ns"):
            if getattr(self, f) < 0:
                raise ValueError(f"{f} must be >= 0")
        if self.media_goodput_gbps <= 0 or self.dram_goodput_gbps <= 0:
            raise ValueError("goodputs must be positive")


#: Default slow-media device organization.
DEFAULT_SSD = SsdParams()


class SsdMediaChannel(Component):
    """One slow-media channel: DRAM cache in front of a flash medium.

    Implements the :class:`~repro.dram.controller.DDRChannel` surface the
    system builder, invariant checker and obs collector rely on
    (``enqueue``/``subs``/queue-depth probes/bandwidth accounting), so it
    slots into ``chip.ddr_channels`` unchanged.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        params: Optional[SsdParams] = None,
        response_fn: Optional[Callable[[MemRequest], None]] = None,
    ) -> None:
        super().__init__(sim, name)
        self.params = params or DEFAULT_SSD
        p = self.params
        self.cache = CacheArray(p.cache_sets, p.cache_ways, policy="lru")
        self.dram = SerialLink(p.dram_goodput_gbps)
        self.media = SerialLink(p.media_goodput_gbps)
        self.response_fn = response_fn
        self._reads_inflight = 0
        self._writes_inflight = 0
        self._read_hiwat = 0

    @property
    def subs(self) -> tuple:
        """The checker sizes its bandwidth slack by ``len(ch.subs)``; this
        channel is its own single sub-channel."""
        return (self,)

    def close(self) -> None:
        """Drop the upward callback (see
        :meth:`repro.system.builder.Chip.close`)."""
        self.response_fn = None

    # -- public interface ---------------------------------------------------
    def enqueue(self, req: MemRequest) -> bool:
        """Accept a line-granularity request. Writes are posted (no reply)."""
        if req.kind not in (READ, WRITE, WRITEBACK):
            raise ValueError(f"unknown request kind {req.kind}")
        now = self.sim.now
        req.t_mc_enqueue = now
        p = self.params
        if req.kind == READ:
            self._reads_inflight += 1
            if self._reads_inflight > self._read_hiwat:
                self._read_hiwat = self._reads_inflight
            hit = self.cache.lookup(req.addr)
            if hit:
                start = max(now, self.dram.next_free)
                done = self.dram.transfer(now, 64.0) + p.cache_hit_ns
            else:
                start = max(now, self.media.next_free)
                fetched = self.media.transfer(now, 64.0) + p.media_read_ns
                self._install(req.addr, fetched, dirty=False)
                # The fill's DRAM hop is latency-only: reserving the shared
                # DRAM link at the (future) fetch time would make hits
                # arriving *now* queue behind the whole media backlog —
                # non-causal head-of-line blocking. The media link is the
                # bottleneck by 8x, so fills never saturate the DRAM bus.
                done = fetched + 64.0 / p.dram_goodput_gbps + p.cache_hit_ns
            req.t_mc_issue = start
            req.t_dram_done = done
            self.sim.schedule_at(done, self._complete_read, req, hit, now)
        else:
            self._writes_inflight += 1
            hit = self.cache.lookup(req.addr, is_write=True)
            if not hit:
                self._install(req.addr, now, dirty=True)
            start = max(now, self.dram.next_free)
            done = self.dram.transfer(now, 64.0) + p.cache_hit_ns
            req.t_mc_issue = start
            req.t_dram_done = done
            self.sim.schedule_at(done, self._complete_write, hit)
        return True

    def _install(self, addr: int, when: float, dirty: bool) -> None:
        """Fill the DRAM cache; dirty victims pay a media writeback.

        Flash reads pipeline across dies (only serialization occupies the
        link); a program blocks the channel for ``media_write_ns``, so
        writeback pressure slows later miss fetches — the contention the
        capacity-pressure workloads are built to expose.
        """
        victim = self.cache.fill(addr, dirty=dirty)
        if victim is not None and victim[1]:
            end = self.media.transfer(when, 64.0)
            self.media.next_free = end + self.params.media_write_ns
            st = self.stats
            st["ssd_media_wr_bytes"] = st.get("ssd_media_wr_bytes", 0.0) + 64.0

    # -- completion-time accounting -----------------------------------------
    def _complete_read(self, req: MemRequest, hit: bool, t_arrive: float) -> None:
        self._reads_inflight -= 1
        st = self.stats
        st["bytes"] = st.get("bytes", 0.0) + 64.0
        st["bytes_rd"] = st.get("bytes_rd", 0.0) + 64.0
        service = self.sim.now - t_arrive
        if hit:
            st["ssd_hits"] = st.get("ssd_hits", 0.0) + 1.0
            st["ssd_hit_ns_sum"] = st.get("ssd_hit_ns_sum", 0.0) + service
        else:
            st["ssd_misses"] = st.get("ssd_misses", 0.0) + 1.0
            st["ssd_miss_ns_sum"] = st.get("ssd_miss_ns_sum", 0.0) + service
            st["ssd_media_rd_bytes"] = st.get("ssd_media_rd_bytes", 0.0) + 64.0
        if self.response_fn is not None:
            self.response_fn(req)
        elif req.callback is not None:
            req.callback(req)

    def _complete_write(self, hit: bool) -> None:
        self._writes_inflight -= 1
        st = self.stats
        st["bytes"] = st.get("bytes", 0.0) + 64.0
        st["bytes_wr"] = st.get("bytes_wr", 0.0) + 64.0
        key = "ssd_wr_hits" if hit else "ssd_wr_misses"
        st[key] = st.get(key, 0.0) + 1.0

    # -- introspection -------------------------------------------------------
    @property
    def peak_bandwidth_gbps(self) -> float:
        """Peak deliverable bandwidth: the DRAM cache bus plus the media
        fill path, which stream concurrently (fills bypass the bus)."""
        return self.params.dram_goodput_gbps + self.params.media_goodput_gbps

    def bandwidth_utilization(self, elapsed_ns: float) -> float:
        if elapsed_ns <= 0:
            return 0.0
        gbps = self.stats.get("bytes", 0.0) / elapsed_ns
        return gbps / self.peak_bandwidth_gbps

    def read_queue_len(self) -> int:
        """Reads in flight inside the device (queued or in service)."""
        return self._reads_inflight

    def write_queue_len(self) -> int:
        return self._writes_inflight

    def read_q_high_watermark(self) -> int:
        return self._read_hiwat

    def reset_stats(self) -> None:
        """Zero counters and watermarks (measurement boundary)."""
        super().reset_stats()
        self._read_hiwat = self._reads_inflight
