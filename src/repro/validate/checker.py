"""Invariant checks over request lifecycles and end-of-run statistics.

:class:`InvariantChecker` is an :class:`~repro.observer.Observer`. Two
layers of checks, both near-zero cost when the checker is absent (the
hot path pays one ``is None`` test per hook site):

**Per-request** (:meth:`InvariantChecker.on_complete`, at response time):

- timestamp monotonicity over the stages the request actually visited:
  ``t_create <= t_llc_done <= t_mc_enqueue <= t_mc_issue <= t_dram_done
  <= t_complete`` for a serial miss; a CALM miss relaxes the LLC/memory
  ordering to the two parallel chains it really followed; an LLC hit
  checks only the on-chip chain (its wasted concurrent memory fetch may
  legitimately finish after ``t_complete``);
- component conservation: ``onchip + queuing + dram + cxl == total``
  within tolerance. The analysis layer clamps negative on-chip residuals
  to zero (``MemRequest.onchip_time``), which keeps averages sane but can
  silently absorb accounting errors — the checker *reports* negative
  residuals instead of clamping them;
- no double completion (a CALM join must complete exactly once).

**System-level** (:meth:`InvariantChecker.finish`, at end of run):

- achieved bandwidth <= physical peak per DDR channel and per CXL link
  direction;
- MC read-queue high watermarks within the configured ``read_q_cap``;
- stats counters non-negative and internally consistent
  (``bytes == bytes_rd + bytes_wr``, every CAS is a row hit or follows
  exactly one ACT);
- read conservation: every READ sent to the memory system produced
  exactly one response back at the CPU side.

In strict mode the first violation raises :class:`InvariantError` with
the offending request's full timeline; otherwise violations aggregate
into the report :meth:`InvariantChecker.finish` returns for
``SimResult.extras["invariant_violations"]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.observer import Observer
from repro.request import MemRequest, READ

#: Bound on violation records kept in full detail (counters keep counting).
MAX_RECORDED = 50


class InvariantError(RuntimeError):
    """A lifecycle or accounting invariant was violated (strict mode)."""


@dataclass
class Violation:
    """One detected invariant violation.

    ``config_hash`` ties the record to the exact configuration (see
    :func:`repro.system.config.config_digest`), so a violation copied out of a
    report — e.g. into a shrunk fuzz reproducer — stays self-describing.
    """

    kind: str                              # short machine-readable tag
    message: str                           # human-readable detail
    req_id: Optional[int] = None
    timeline: Optional[Dict] = None        # full request timeline, if any
    config_hash: str = ""

    def as_dict(self) -> Dict:
        return {"kind": self.kind, "message": self.message,
                "req_id": self.req_id, "timeline": self.timeline,
                "config_hash": self.config_hash}


class InvariantChecker(Observer):
    """Collects (or raises on) invariant violations for one measured run.

    Parameters
    ----------
    strict:
        Raise :class:`InvariantError` at the first violation instead of
        aggregating.
    tol_ns:
        Absolute tolerance for timestamp/accounting comparisons, absorbing
        float rounding across long simulations.
    config_hash:
        Short digest of the audited configuration (see
        :func:`repro.system.config.config_digest`); stamped onto every
        violation and the aggregate report so reproducers are
        self-describing.
    """

    key = "invariant_violations"

    def __init__(self, strict: bool = False, tol_ns: float = 1e-6,
                 config_hash: str = "") -> None:
        self.strict = strict
        self.tol_ns = tol_ns
        self.config_hash = config_hash
        self.violations: List[Violation] = []
        self.counts: Dict[str, int] = {}
        self.checked = 0
        # Read conservation: READs handed to the memory system vs. responses
        # that made it back to the CPU side of the port. Ids are kept so the
        # end-of-run check can name the requests that went missing instead
        # of reporting bare aggregate counts.
        self.reads_submitted = 0
        self.reads_responded = 0
        self._inflight_read_ids: set = set()
        self._completed_ids: set = set()

    # -- violation plumbing ----------------------------------------------------
    def _flag(self, kind: str, message: str, req: Optional[MemRequest] = None) -> None:
        tl = req.timeline() if req is not None else None
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if self.config_hash:
            message = f"{message} [config {self.config_hash}]"
        if self.strict:
            detail = f" timeline={tl}" if tl else ""
            raise InvariantError(f"[{kind}] {message}{detail}")
        if len(self.violations) < MAX_RECORDED:
            self.violations.append(Violation(
                kind=kind, message=message,
                req_id=req.req_id if req is not None else None, timeline=tl,
                config_hash=self.config_hash))

    @property
    def n_violations(self) -> int:
        return sum(self.counts.values())

    def report(self) -> Dict:
        """Aggregate report for ``SimResult.extras['invariant_violations']``."""
        return {
            "count": self.n_violations,
            "checked_requests": self.checked,
            "strict": self.strict,
            "config_hash": self.config_hash,
            "by_kind": dict(sorted(self.counts.items())),
            "violations": [v.as_dict() for v in self.violations],
        }

    # -- per-request checks (response time) ------------------------------------
    def on_mem_submit(self, req: MemRequest, now: float, extra: float) -> None:
        """A READ left the chip towards a memory port."""
        if req.kind == READ:
            self.reads_submitted += 1
            self._inflight_read_ids.add(req.req_id)

    def on_mem_response(self, req: MemRequest) -> None:
        """Memory read data arrived back at the CPU side of the port."""
        self.reads_responded += 1
        self._inflight_read_ids.discard(req.req_id)

    def on_double_complete(self, req: MemRequest) -> None:
        """The completion handler ran again for an already-completed request."""
        self._flag("double_complete",
                   f"request #{req.req_id} completed more than once "
                   f"(CALM join double-counting)", req)

    def on_complete(self, req: MemRequest) -> None:
        """Validate one request's full lifecycle at response time."""
        self.checked += 1
        tol = self.tol_ns

        if req.req_id in self._completed_ids:
            self.on_double_complete(req)
        else:
            self._completed_ids.add(req.req_id)

        if req.t_create < 0:
            self._flag("missing_stage",
                       f"request #{req.req_id} completed without t_create", req)
            return
        if req.t_complete + tol < req.t_create:
            self._flag("non_monotonic",
                       f"request #{req.req_id}: t_complete {req.t_complete:.3f} "
                       f"< t_create {req.t_create:.3f}", req)
            return
        if req.llc_hit is None:
            self._flag("missing_stage",
                       f"request #{req.req_id} completed with unknown LLC outcome", req)
            return

        def chain(*stages: str) -> None:
            prev_name, prev_t = stages[0], getattr(req, stages[0])
            for name in stages[1:]:
                t = getattr(req, name)
                if t + tol < prev_t:
                    self._flag("non_monotonic",
                               f"request #{req.req_id}: {name} {t:.3f} < "
                               f"{prev_name} {prev_t:.3f}", req)
                prev_name, prev_t = name, t

        if req.llc_hit:
            # Served on chip; a wasted concurrent CALM fetch may still be in
            # flight, so memory-side timestamps are deliberately unchecked.
            chain("t_create", "t_llc_done", "t_complete")
            return

        # LLC miss: the request visited the memory system.
        for stage in ("t_llc_done", "t_mc_enqueue", "t_mc_issue", "t_dram_done"):
            if getattr(req, stage) < 0:
                self._flag("missing_stage",
                           f"request #{req.req_id} (LLC miss) completed "
                           f"without {stage}", req)
                return
        chain("t_create", "t_mc_enqueue", "t_mc_issue", "t_dram_done", "t_complete")
        if req.calm:
            # Parallel chains: the LLC lookup races the memory access, so
            # t_llc_done may legitimately land after t_mc_enqueue — but per
            # the paper's join, completion always waits for the LLC response.
            chain("t_create", "t_llc_done", "t_complete")
        else:
            chain("t_create", "t_llc_done", "t_mc_enqueue")

        # Component conservation. The analysis layer clamps a negative
        # on-chip residual to zero; the checker reports it instead.
        if req.cxl_delay < -tol:
            self._flag("negative_component",
                       f"request #{req.req_id}: cxl_delay {req.cxl_delay:.3f} < 0",
                       req)
        residual = (req.total_latency - req.queuing_delay - req.dram_service
                    - req.cxl_delay)
        if residual < -tol:
            self._flag("negative_residual",
                       f"request #{req.req_id}: components exceed total latency "
                       f"by {-residual:.3f} ns (total={req.total_latency:.3f}, "
                       f"queuing={req.queuing_delay:.3f}, "
                       f"dram={req.dram_service:.3f}, cxl={req.cxl_delay:.3f})",
                       req)

    # -- system-level checks (end of run) --------------------------------------
    def finish(self, chip, elapsed_ns: float) -> Dict:
        """Validate end-of-run aggregate state of the whole memory system;
        returns :meth:`report`."""
        from repro.cxl.channel import CxlChannel

        tol = self.tol_ns
        for ch in chip.ddr_channels:
            stats = ch.stats
            for key, val in stats.items():
                if val < 0:
                    self._flag("negative_counter",
                               f"{ch.name}: counter {key} is negative ({val})")
            total = stats.get("bytes", 0.0)
            rd = stats.get("bytes_rd", 0.0)
            wr = stats.get("bytes_wr", 0.0)
            if abs(total - rd - wr) > tol:
                self._flag("stats_inconsistent",
                           f"{ch.name}: bytes {total} != bytes_rd {rd} + "
                           f"bytes_wr {wr}")
            cas = stats.get("num_rd", 0.0) + stats.get("num_wr", 0.0)
            prepared = stats.get("row_hits", 0.0) + stats.get("num_act", 0.0)
            if prepared + tol < cas:
                self._flag("stats_inconsistent",
                           f"{ch.name}: {cas:.0f} CAS commands but only "
                           f"{prepared:.0f} row hits + activates")
            if elapsed_ns > 0:
                # Data moves on serialized buses, so bytes within the window
                # cannot exceed peak * elapsed (slack: one in-flight burst
                # per sub-channel straddling the measurement start).
                slack = 64.0 * 2 * len(ch.subs)
                limit = ch.peak_bandwidth_gbps * elapsed_ns + slack
                if total > limit:
                    self._flag("bandwidth_exceeds_peak",
                               f"{ch.name}: moved {total:.0f} B in "
                               f"{elapsed_ns:.0f} ns "
                               f"({total / elapsed_ns:.2f} GB/s) > peak "
                               f"{ch.peak_bandwidth_gbps:.2f} GB/s")
            cap = getattr(ch, "read_q_cap", None)
            hiwat = getattr(ch, "read_q_high_watermark", None)
            if cap is not None and hiwat is not None and hiwat() > cap:
                self._flag("queue_cap_exceeded",
                           f"{ch.name}: read-queue high watermark {hiwat()} "
                           f"exceeds read_q_cap {cap}")

        for port in chip.ports:
            if not isinstance(port, CxlChannel):
                continue
            if elapsed_ns > 0:
                for direction, link in (("tx", port.tx), ("rx", port.rx)):
                    goodput = link.goodput_gbps
                    slack = 72.0  # one in-flight message straddling the start
                    if link.bytes_moved > goodput * elapsed_ns + slack:
                        self._flag(
                            "bandwidth_exceeds_peak",
                            f"{port.name}.{direction}: moved "
                            f"{link.bytes_moved:.0f} B in {elapsed_ns:.0f} ns "
                            f"({link.bytes_moved / elapsed_ns:.2f} GB/s) > "
                            f"link goodput {goodput:.2f} GB/s")

        for key, val in chip.stats.items():
            if val < 0:
                self._flag("negative_counter",
                           f"chip: counter {key} is negative ({val})")

        if self.reads_submitted != self.reads_responded:
            # Name the offending requests, not just the aggregate counts:
            # lost reads are still in the in-flight set; phantom responses
            # leave it empty with the counters skewed the other way.
            lost = sorted(self._inflight_read_ids)
            detail = (f"; lost request ids: {lost[:10]}"
                      + (" ..." if len(lost) > 10 else "")) if lost else ""
            self._flag("read_conservation",
                       f"{self.reads_submitted} READs entered the memory "
                       f"system but {self.reads_responded} responses "
                       f"returned{detail}")
        return self.report()
