"""Zero-perturbation causal span tracer for the simulated memory path.

:class:`SpanTracer` is an :class:`~repro.observer.Observer` on the
memory-path hook points. It schedules no events, mutates no request or
component state, and only *reads* the timestamps the simulation already
stamps onto each :class:`~repro.request.MemRequest`. A run with tracing
enabled therefore produces a bit-identical :class:`SimResult` outside
``extras["trace"]`` — the fuzzer's ``observers`` oracle enforces this on
both dispatch loops.

Per measured request the tracer records child spans at each component
boundary:

- ``mshr.wait`` — the op queued at the core's MSHR file before the miss
  could leave the L2 (pre-``t_create``, so outside the miss latency);
- ``llc.lookup`` — core tile -> LLC home slice -> lookup;
- ``tiering.migration`` — migration wait charged by the tier manager;
- ``cxl.tx`` / ``cxl.rx`` — CXL port crossings + link serialization;
- ``mc.queue`` — DRAM controller queuing (``t_mc_enqueue -> t_mc_issue``);
- ``dram.service`` — bank service (``t_mc_issue -> t_dram_done``).

Each retained row also carries the request's raw timeline
(``t_llc_done``, ``t_mc_enqueue``, ``t_mc_issue``, ``t_dram_done``,
``cxl_delay``), so the ring doubles as the per-request audit trace that
``repro run --validate strict --trace-out`` exports.

Alongside the bounded span ring it keeps running attribution sums whose
arithmetic mirrors ``Chip._complete`` / ``LatencyBreakdown`` term for
term, so the span-derived queuing share reconciles exactly with the
Fig 2b parity golden (the ``fig2b_attribution`` registry metric).

In ``"kernel"`` mode the tracer additionally reads measurement-phase
event dispatch counts per callback ``__qualname__`` from the simulator's
:class:`~repro.obs.KernelProfiler` hook (shared with obs ``profile``
mode) — a deterministic (no wall-clock) view of where the event kernel
spends its dispatches, identical on both dispatch loops.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.profiler import KernelProfiler
from repro.observer import Observer

#: In-flight mark-list indices. One small list per live request instead
#: of a dict — these are the tracer's hottest allocations. ``-1.0``
#: means "not seen", matching the request timestamp sentinel.
_M_MSHR, _M_SUBMIT, _M_MIGRATION = 0, 1, 2
_M_TX0, _M_TX1, _M_RX0, _M_RX1 = 3, 4, 5, 6

#: Version stamp of the ``extras["trace"]`` payload (additions only).
TRACE_SCHEMA_VERSION = 1


class SpanTracer(Observer):
    """Opt-in per-request span recorder (see module docstring).

    ``simulate()`` attaches it at the warmup/measurement boundary, with
    every other observer, so every request passing the measurement guard
    was created with hooks live. The span ring holds the most recent
    ``span_capacity`` requests; attribution sums cover *every* measured
    request.
    """

    key = "trace"

    def __init__(self, mode: str = "on", span_capacity: int = 512) -> None:
        if mode not in ("on", "kernel"):
            raise ValueError(
                f"SpanTracer mode must be 'on' or 'kernel', got {mode!r}")
        if span_capacity < 1:
            raise ValueError(f"span_capacity must be >= 1, got {span_capacity}")
        self.mode = mode
        self.span_capacity = span_capacity
        #: Distributed trace id (minted at ``repro serve`` submit and
        #: threaded through fleet TaskSpecs); ``None`` for local runs.
        self.trace_id: Optional[str] = None
        self.chip = None
        self._live: Dict[int, list] = {}            # req_id -> in-flight marks
        self._mshr: Dict[Tuple[int, int], float] = {}  # (core, op) -> stall t
        #: The shared dispatch-count hook, set by :meth:`attach` in
        #: ``"kernel"`` mode.
        self.profiler: Optional[KernelProfiler] = None
        #: Ring of compact completed-request tuples; the span dicts are
        #: materialized lazily in rows() so only the retained
        #: ``span_capacity`` rows ever pay for span assembly.
        self._ring: List[tuple] = []
        self._next = 0
        self.recorded = 0                           # rows recorded, incl. evicted
        # Attribution sums. Same accumulation order and per-element float
        # arithmetic as Chip._complete -> LatencyBreakdown.record, so
        # sum_queuing / sum_total is bit-identical to the breakdown's
        # avg_queuing / avg_miss_latency ratio.
        self.n = 0
        self.hits = 0
        self.misses = 0
        self.sum_total = 0.0
        self.sum_onchip = 0.0
        self.sum_queuing = 0.0
        self.sum_dram = 0.0
        self.sum_cxl = 0.0
        self.sum_migration = 0.0

    # -- wiring ----------------------------------------------------------------
    def attach(self, sim, chip) -> None:
        """Bind to the chip at the measurement boundary; in ``"kernel"``
        mode also hook the simulator's :class:`~repro.obs.KernelProfiler`,
        which the measurement-phase dispatch loop feeds."""
        self.chip = chip
        if self.mode == "kernel":
            self.profiler = KernelProfiler.hook(sim)

    def finish(self, chip, elapsed_ns: float) -> dict:
        """Unbind from the chip (a kept tracer must not keep it alive) and
        return the payload."""
        self.chip = None
        return self.snapshot()

    # -- hook sites (read state, never schedule) -------------------------------
    def on_mshr_stall(self, core_id: int, op_idx: int, t: float) -> None:
        """Op ``op_idx`` queued at the core's full MSHR file at time ``t``."""
        self._mshr[(core_id, op_idx)] = t

    def on_mshr_merge(self, core_id: int, op_idx: int) -> None:
        """Op merged into an in-flight line miss; discard any stall mark."""
        self._mshr.pop((core_id, op_idx), None)

    def on_l2_miss(self, req) -> None:
        """A demand miss left the L2 (``req.t_create`` just stamped)."""
        if req.prefetch:
            # Prefetches are excluded from latency records (same guard as
            # the breakdown); don't track them.
            self._mshr.pop((req.core_id, req.op), None)
            return
        self._live[req.req_id] = [
            self._mshr.pop((req.core_id, req.op), -1.0),   # _M_MSHR
            -1.0, 0.0,                                     # submit, migration
            -1.0, -1.0, -1.0, -1.0,                        # cxl tx/rx windows
        ]

    def on_mem_submit(self, req, now: float, extra: float) -> None:
        """Request routed towards its memory port (``extra`` = migration wait)."""
        m = self._live.get(req.req_id)
        if m is None:
            return
        m[_M_SUBMIT] = now
        if extra:
            m[_M_MIGRATION] += extra

    def on_cxl_tx(self, req, now: float, arrive: float) -> None:
        """Request crossing CPU port + TX link towards the device."""
        m = self._live.get(req.req_id)
        if m is not None:
            m[_M_TX0] = now
            m[_M_TX1] = arrive

    def on_cxl_rx(self, req, now: float, arrive: float) -> None:
        """Response crossing device port + RX link back to the CPU."""
        m = self._live.get(req.req_id)
        if m is not None:
            m[_M_RX0] = now
            m[_M_RX1] = arrive

    def on_complete(self, req) -> None:
        """Response arrived back at the L2; close out the request."""
        marks = self._live.pop(req.req_id, None)
        chip = self.chip
        # Mirror of Chip._complete's measurement guard, term for term.
        if (chip is None or not chip.measuring
                or req.t_create < chip.meas_start or req.prefetch):
            return
        now = req.t_complete
        total = now - req.t_create
        self.n += 1
        if req.llc_hit:
            # An LLC hit: the whole latency is on-chip time.
            self.hits += 1
            self.sum_total += total
            self.sum_onchip += total
        else:
            self.misses += 1
            t_issue = req.t_mc_issue
            queuing = (t_issue - req.t_mc_enqueue
                       if t_issue >= 0 and req.t_mc_enqueue >= 0 else 0.0)
            dram = (req.t_dram_done - t_issue
                    if req.t_dram_done >= 0 and t_issue >= 0 else 0.0)
            cxl = req.cxl_delay
            onchip = max(0.0, total - queuing - dram - cxl)
            self.sum_total += total
            self.sum_onchip += onchip
            self.sum_queuing += queuing
            self.sum_dram += dram
            self.sum_cxl += cxl
            if marks is not None and marks[_M_MIGRATION]:
                self.sum_migration += marks[_M_MIGRATION]
        # One flat tuple per completed request: span dicts are assembled
        # lazily in rows(), so eviction from the ring costs nothing.
        entry = (req.req_id, req.core_id, req.addr, req.calm,
                 bool(req.llc_hit), req.t_create, req.t_llc_done,
                 req.t_mc_enqueue, req.t_mc_issue, req.t_dram_done,
                 now, total, req.cxl_delay, marks)
        if len(self._ring) < self.span_capacity:
            self._ring.append(entry)
        else:
            self._ring[self._next] = entry
            self._next = (self._next + 1) % self.span_capacity
        self.recorded += 1

    # -- span assembly ---------------------------------------------------------
    @staticmethod
    def _row_of(entry: tuple) -> dict:
        """Materialize one ring entry into a row with child spans.

        Each span carries the attribution component it charges to
        (``onchip`` / ``queuing`` / ``serialization`` / ``service`` /
        ``migration``), in causal order. For an LLC hit only the on-chip
        legs are causal (a wasted CALM memory fetch does not block
        completion), so the memory-side spans are dropped.
        """
        (req_id, core, addr, calm, llc_hit, t_create, t_llc_done,
         t_mc_enqueue, t_mc_issue, t_dram_done, t_complete, total,
         cxl_delay, marks) = entry
        spans: List[dict] = []

        def add(name: str, component: str, t0: float, t1: float) -> None:
            if t0 >= 0 and t1 >= t0:
                spans.append({"name": name, "component": component,
                              "t0": t0, "t1": t1})

        if marks is not None and marks[_M_MSHR] >= 0:
            add("mshr.wait", "queuing", marks[_M_MSHR], t_create)
        add("llc.lookup", "onchip", t_create, t_llc_done)
        if not llc_hit:
            if marks is not None:
                if marks[_M_MIGRATION] and marks[_M_SUBMIT] >= 0:
                    add("tiering.migration", "migration", marks[_M_SUBMIT],
                        marks[_M_SUBMIT] + marks[_M_MIGRATION])
                if marks[_M_TX1] >= 0:
                    add("cxl.tx", "serialization",
                        marks[_M_TX0], marks[_M_TX1])
            add("mc.queue", "queuing", t_mc_enqueue, t_mc_issue)
            add("dram.service", "service", t_mc_issue, t_dram_done)
            if marks is not None and marks[_M_RX1] >= 0:
                add("cxl.rx", "serialization", marks[_M_RX0], marks[_M_RX1])
        return {"req_id": req_id, "core": core, "addr": addr, "calm": calm,
                "llc_hit": llc_hit, "t_create": t_create,
                "t_llc_done": t_llc_done, "t_mc_enqueue": t_mc_enqueue,
                "t_mc_issue": t_mc_issue, "t_dram_done": t_dram_done,
                "t_complete": t_complete, "total": total,
                "cxl_delay": cxl_delay, "spans": spans}

    # -- output ----------------------------------------------------------------
    def rows(self) -> List[dict]:
        """Retained span rows, oldest first."""
        ring = self._ring[self._next:] + self._ring[:self._next]
        return [self._row_of(e) for e in ring]

    def snapshot(self) -> dict:
        """Deterministic ``extras["trace"]`` payload.

        ``attribution`` holds component *sums* in ns over all measured
        requests (hits included, as on-chip time, exactly like the
        latency breakdown); ``serialization`` is the CXL interface time
        net of migration waits, which are broken out separately.
        """
        serialization = self.sum_cxl - self.sum_migration
        attribution = {
            "n": self.n,
            "hits": self.hits,
            "misses": self.misses,
            "total": self.sum_total,
            "onchip": self.sum_onchip,
            "queuing": self.sum_queuing,
            "service": self.sum_dram,
            "serialization": serialization if serialization > 0.0 else 0.0,
            "migration": self.sum_migration,
        }
        snap = {
            "schema": TRACE_SCHEMA_VERSION,
            "mode": self.mode,
            "trace_id": self.trace_id,
            "requests": self.recorded,
            "attribution": attribution,
            "spans": self.rows(),
        }
        if self.profiler is not None:
            snap["kernel_events"] = self.profiler.counts()
        return snap
