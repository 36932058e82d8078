"""The memory request object threaded through the whole hierarchy.

A :class:`MemRequest` is created when an L2 miss leaves the core tile and is
annotated with timestamps as it crosses each subsystem, so that the analysis
layer can reproduce the paper's latency breakdown (on-chip time, DRAM service
time, memory-controller queuing delay, CXL interface delay — Figures 2b/5).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional

_req_ids = itertools.count()

READ = 0
WRITE = 1
WRITEBACK = 2  # dirty eviction travelling down the hierarchy; no response needed


class MemRequest:
    """A cache-line-granularity memory transaction.

    Attributes
    ----------
    addr:
        Physical byte address (line-aligned by the issuing cache).
    kind:
        ``READ``, ``WRITE`` (demand store / RFO handled as READ by caches;
        WRITE only appears memory-side) or ``WRITEBACK``.
    core_id:
        Issuing core (``-1`` for system-generated traffic such as writebacks).
    pc:
        Program counter of the triggering instruction (drives MAP-I).
    callback:
        Invoked as ``callback(req)`` when the response returns to the L2.
    llc_hit:
        ``None`` until the LLC lookup finishes, then ``True`` or ``False``.

    The chip's L2-miss state machine keeps its per-miss state in slots:
    ``core`` (the issuing :class:`~repro.cpu.core.Core`), ``op`` (its op
    index, ``-1`` for a prefetch), ``prefetch``, ``stile`` (home LLC slice
    tile), ``port_tile`` (memory port tile), the CALM join's two arrival
    times at the core tile (``llc_resp_at_core``, ``mem_at_core``; ``None``
    until known) and ``completed``. Other issuers keep a private payload in
    ``user``.
    """

    __slots__ = (
        "req_id", "addr", "kind", "core_id", "pc", "callback", "calm",
        "t_create", "t_llc_done", "t_mc_enqueue", "t_mc_issue", "t_dram_done",
        "t_complete", "cxl_delay", "llc_hit", "user",
        "core", "op", "prefetch", "stile", "port_tile", "llc_resp_at_core",
        "mem_at_core", "completed",
    )

    def __init__(
        self,
        addr: int,
        kind: int,
        core_id: int = -1,
        pc: int = 0,
        callback: Optional[Callable[["MemRequest"], None]] = None,
    ) -> None:
        self.req_id = next(_req_ids)
        self.addr = addr
        self.kind = kind
        self.core_id = core_id
        self.pc = pc
        self.callback = callback
        self.calm = False          # request issued concurrently with LLC lookup
        self.llc_hit: Optional[bool] = None
        # Timestamps (ns); -1.0 means "never reached that stage".
        self.t_create = -1.0       # left the L2 (start of the measured miss)
        self.t_llc_done = -1.0     # LLC lookup finished
        self.t_mc_enqueue = -1.0   # entered the DRAM controller queue
        self.t_mc_issue = -1.0     # first DRAM command issued for it
        self.t_dram_done = -1.0    # data left/entered the DRAM device
        self.t_complete = -1.0     # response arrived back at the L2
        self.cxl_delay = 0.0       # total time attributable to the CXL interface
        self.user: Any = None      # issuer-private payload
        # Chip L2-miss state (repro.system.builder).
        self.core: Any = None
        self.op = -1
        self.prefetch = False
        self.stile = 0
        self.port_tile = 0
        self.llc_resp_at_core: Optional[float] = None
        self.mem_at_core: Optional[float] = None
        self.completed = False

    # -- derived latency components (valid once t_complete is set) ---------
    @property
    def total_latency(self) -> float:
        """End-to-end L2-miss latency in ns."""
        return self.t_complete - self.t_create

    @property
    def queuing_delay(self) -> float:
        """Time spent waiting in the DRAM controller queue."""
        if self.t_mc_issue < 0 or self.t_mc_enqueue < 0:
            return 0.0
        return self.t_mc_issue - self.t_mc_enqueue

    @property
    def dram_service(self) -> float:
        """DRAM array access time (issue to data)."""
        if self.t_dram_done < 0 or self.t_mc_issue < 0:
            return 0.0
        return self.t_dram_done - self.t_mc_issue

    @property
    def onchip_time(self) -> float:
        """NoC + LLC time (everything not queuing, DRAM or CXL).

        Clamped at zero so aggregate breakdowns stay sane; a negative
        residual is an accounting bug, which the clamp would silently
        absorb — :mod:`repro.validate` reports it instead when enabled.
        """
        rest = self.queuing_delay + self.dram_service + self.cxl_delay
        return max(0.0, self.total_latency - rest)

    def timeline(self) -> dict:
        """The full lifecycle as a plain JSON-serializable dict.

        Invariant-violation reports carry it to name the exact request
        and its timestamps.
        """
        return {
            "req_id": self.req_id,
            "addr": self.addr,
            "kind": self.kind,
            "core_id": self.core_id,
            "calm": self.calm,
            "llc_hit": self.llc_hit,
            "t_create": self.t_create,
            "t_llc_done": self.t_llc_done,
            "t_mc_enqueue": self.t_mc_enqueue,
            "t_mc_issue": self.t_mc_issue,
            "t_dram_done": self.t_dram_done,
            "t_complete": self.t_complete,
            "cxl_delay": self.cxl_delay,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = {READ: "RD", WRITE: "WR", WRITEBACK: "WB"}
        return f"<MemRequest #{self.req_id} {kinds.get(self.kind, '?')} 0x{self.addr:x} core={self.core_id}>"
