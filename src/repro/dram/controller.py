"""FR-FCFS DDR5 channel controller.

One :class:`DDRChannel` models a full DDR5 channel: two independent 32-bit
sub-channels, each with its own data bus, rank/bank timing state and
read/write queues. Scheduling is First-Ready FCFS (row hits first, then
oldest), with posted writes drained on a high/low watermark policy and on
read-queue idleness, and bus-turnaround penalties between read and write
bursts.

The controller is event-driven at command granularity: each scheduling pass
reserves the command/data timeline of one request and schedules the next
pass at the earliest time another CAS could issue, so consecutive bursts
pack back-to-back and bank preparation (PRE/ACT) of the next request
overlaps the current data transfer.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.engine import Component, Simulator
from repro.dram.bank import Bank, Rank
from repro.dram.mapping import AddressMapping, DramCoord
from repro.dram.timing import DDR5Timing
from repro.request import MemRequest, READ, WRITE, WRITEBACK

#: A queued request: (request, its rank, its bank, its row).
_Entry = Tuple[MemRequest, Rank, Bank, int]

_INF = float("inf")


class _SubChannel:
    """One 32-bit DDR5 sub-channel: queues, banks, data bus.

    Queue entries are ``(req, rank, bank, row)``: the request, its
    :class:`Rank` and :class:`Bank` state records and its row, resolved once
    at admission. Each DDR5 command rule has one home here: the
    row-hit/conflict/closed-bank choice and the ACT (tRCD, tRAS, tRC, tRRD,
    tFAW), RD (tRTP) and WR (tWR) timing are inline in :meth:`_issue_one`;
    PRE (tRP), shared by a row conflict and the idle close, is
    :meth:`_precharge`; refresh is :meth:`Rank.refresh_blackout`. Counters
    go straight into the owning channel's ``stats``.
    """

    __slots__ = (
        "owner", "tm", "ranks", "reads", "writes", "overflow", "bus_free",
        "last_was_write", "draining", "pass_pending", "read_q_cap",
        "read_q_hiwat", "write_hi", "write_lo", "_horizon", "tBURST",
        "bytes_per_access",
    )

    def __init__(self, owner: "DDRChannel", tm: DDR5Timing, ranks: int,
                 read_q_cap: int, write_hi: int, write_lo: int) -> None:
        self.owner = owner
        self.tm = tm
        # Properties on DDR5Timing, recomputed on every access: read once.
        self.tBURST = tm.tBURST
        self.bytes_per_access = tm.bytes_per_access
        # One full row-miss pipeline: the scheduling-pass lookahead.
        self._horizon = tm.tRP + tm.tRCD + tm.tCL
        self.ranks = [Rank(tm, tm.banks) for _ in range(ranks)]
        self.reads: List[_Entry] = []
        self.writes: List[_Entry] = []
        #: Reads arriving while the scheduler queue is at ``read_q_cap``:
        #: they wait outside the controller (modelling the issuer stalled by
        #: back-pressure) and are admitted FIFO as scheduler entries free up.
        self.overflow: List[_Entry] = []
        self.bus_free = 0.0
        self.last_was_write = False
        self.draining = False
        self.pass_pending = False
        self.read_q_cap = read_q_cap
        self.read_q_hiwat = 0
        self.write_hi = write_hi
        self.write_lo = write_lo

    # -- queue admission ----------------------------------------------------
    def enqueue(self, req: MemRequest, coord: DramCoord) -> bool:
        """Accept a request; returns ``False`` when back-pressured.

        ``t_mc_enqueue`` is stamped at arrival either way, so back-pressure
        wait shows up as queuing delay, where it belongs.
        """
        owner = self.owner
        req.t_mc_enqueue = owner.sim.now
        rank = self.ranks[coord.rank]
        entry = (req, rank, rank.banks[coord.bank], coord.row)
        if req.kind == READ:
            reads = self.reads
            if len(reads) >= self.read_q_cap:
                self.overflow.append(entry)
                st = owner.stats
                st["read_q_stalls"] = st.get("read_q_stalls", 0.0) + 1.0
                return False
            reads.append(entry)
            if len(reads) > self.read_q_hiwat:
                self.read_q_hiwat = len(reads)
        else:
            self.writes.append(entry)
        if not self.pass_pending:
            self.pass_pending = True
            owner.sim.schedule(0.0, self._schedule_pass)
        return True

    # -- scheduling ---------------------------------------------------------
    #: FR-FCFS reordering window: only this many oldest entries are
    #: candidates, matching a real controller's bounded scheduler CAM and
    #: keeping scheduling O(window) even when open-loop probes overflow the
    #: queue. Calibrated against the paper's Figure 2a load-latency curve
    #: (mean/p90 latency at 60% load: paper 160/285 ns, this model 133/282).
    SCAN_WINDOW = 4

    #: Idle window (ns) before an unreferenced open row is precharged.
    CLOSE_TIMEOUT = 45.0

    def _schedule_pass(self) -> None:
        """Commit bus slots for queued requests within the lookahead horizon.

        Multiple requests are committed per pass so that row preparation
        (PRE/ACT) of later requests overlaps earlier data transfers, as in a
        real pipelined controller. The horizon bounds how far ahead slots are
        committed, preserving FR-FCFS reordering opportunity for new arrivals.
        """
        self.pass_pending = False
        horizon = self._horizon
        sim = self.owner.sim
        reads = self.reads
        writes = self.writes
        while True:
            # Serve reads first; drain posted writes from ``write_hi`` down
            # to ``write_lo``, or when no read waits.
            nw = len(writes)
            if self.draining and nw <= self.write_lo:
                self.draining = False
            if self.draining or nw >= self.write_hi:
                self.draining = True
                queue = writes
            elif reads:
                queue = reads
            elif writes:
                queue = writes
            else:
                return
            now = sim.now
            if self.bus_free - horizon > now + 1e-6:
                # Bus slots are committed far enough ahead; wake up when the
                # pipeline needs feeding again. The minimum quantum guards
                # against float-precision livelock at the horizon boundary.
                self.pass_pending = True
                wake = max(self.bus_free - horizon, now + 0.01)
                sim.schedule_at(wake, self._schedule_pass)
                return
            self._issue_one(queue)

    def _issue_one(self, queue: List[_Entry]) -> None:
        """Pick one request FR-FCFS and commit its command timeline."""
        owner = self.owner
        sim = owner.sim
        st = owner.stats
        now = sim.now
        tm = self.tm
        tRP = tm.tRP
        tRCD = tm.tRCD

        # First-ready FCFS within the scan window: the oldest request whose
        # bank can deliver data earliest. Row hits beat row conflicts, and
        # requests to ready banks beat requests to banks still serving tRC
        # from a previous activation; this keeps the data bus busy under
        # bank conflicts.
        best_i = i = 0
        best_key = _INF
        for req, _rank, bank, row in queue[:self.SCAN_WINDOW]:
            open_row = bank.open_row
            if open_row == row:
                ready = bank.next_wr if req.kind != READ else bank.next_rd
                if ready < now:
                    ready = now
            else:
                t = now
                if open_row is not None:
                    if bank.next_pre > t:
                        t = bank.next_pre
                    t = t + tRP
                if bank.next_act > t:
                    t = bank.next_act
                ready = t + tRCD
            if ready < best_key - 1e-9:
                best_key = ready
                best_i = i
                if ready <= now:
                    break
            i += 1

        req, rank, bank, row = queue.pop(best_i)
        if self.overflow and len(self.reads) < self.read_q_cap:
            # A scheduler slot freed up: admit the oldest back-pressured
            # read (it is younger than everything already queued, so the
            # tail keeps FCFS age order).
            self.reads.append(self.overflow.pop(0))
        is_write = req.kind != READ

        # Command timeline: (optional PRE, ACT,) then CAS. ``t`` never drops
        # below ``now``. Refresh is only consulted when ``t`` reaches the
        # next refresh or sits inside the last one.
        t = now
        if t >= rank.next_refresh or t < rank.refresh_end:
            t = rank.refresh_blackout(t)
        first_cmd_t: Optional[float] = None
        if bank.open_row != row:
            if bank.open_row is not None:
                # Row conflict: PRE once tRAS/tRTP/tWR allow.
                if bank.next_pre > t:
                    t = bank.next_pre
                self._precharge(bank, t)
                first_cmd_t = t
            # ACT: the bank's tRP/tRC window, then the rank's tRRD and tFAW.
            if bank.next_act > t:
                t = bank.next_act
            if rank.next_act_any > t:
                t = rank.next_act_any
            hist = rank.act_history
            faw = hist[0] + tm.tFAW
            if faw > t:
                t = faw
            if t >= rank.next_refresh or t < rank.refresh_end:
                t = rank.refresh_blackout(t)
            bank.open_row = row
            bank.use_count += 1
            x = t + tRCD
            if x > bank.next_rd:
                bank.next_rd = x
            if x > bank.next_wr:
                bank.next_wr = x
            x = t + tm.tRAS
            if x > bank.next_pre:
                bank.next_pre = x
            x = x + tRP               # (act + tRAS) + tRP: tRC
            if x > bank.next_act:
                bank.next_act = x
            hist.append(t)
            del hist[0]
            rank.next_act_any = t + tm.tRRD_S
            st["num_act"] = st.get("num_act", 0.0) + 1.0
            if first_cmd_t is None:
                first_cmd_t = t
        else:
            st["row_hits"] = st.get("row_hits", 0.0) + 1.0

        # CAS issue: honour bank readiness, bus availability and turnaround.
        if is_write:
            cas_latency = tm.tCWL
            cas_t = bank.next_wr
            turnaround = 0.0 if self.last_was_write else tm.tRTW
        else:
            cas_latency = tm.tCL
            cas_t = bank.next_rd
            turnaround = tm.tWTR_S if self.last_was_write else 0.0
        if t > cas_t:
            cas_t = t
        data_start = cas_t + cas_latency
        x = self.bus_free + turnaround
        if x > data_start:
            data_start = x
        cas_t = data_start - cas_latency
        tBURST = self.tBURST
        data_end = data_start + tBURST

        bank.use_count += 1
        if is_write:
            # Write recovery gates the next PRE.
            x = cas_t + tm.tCWL + tBURST + tm.tWR
            if x > bank.next_pre:
                bank.next_pre = x
            st["num_wr"] = st.get("num_wr", 0.0) + 1.0
        else:
            x = cas_t + tm.tRTP
            if x > bank.next_pre:
                bank.next_pre = x
            st["num_rd"] = st.get("num_rd", 0.0) + 1.0
        self.bus_free = data_end
        self.last_was_write = is_write

        # Adaptive page policy: close the row after a short idle window
        # unless another queued request (within the scan window) hits it.
        # The deferral keeps rows open for closed-loop streams whose next
        # line arrives one round-trip later, while random rows still close
        # in time for the next conflict to skip the PRE.
        window = self.SCAN_WINDOW
        keep_open = False
        for _req, _rank, b, r in self.reads[:window]:
            if b is bank and r == row:
                keep_open = True
                break
        if not keep_open:
            for _req, _rank, b, r in self.writes[:window]:
                if b is bank and r == row:
                    keep_open = True
                    break
        if not keep_open:
            close_t = now + self.CLOSE_TIMEOUT
            if bank.next_pre > close_t:
                close_t = bank.next_pre
            sim.schedule_at(close_t, self._deferred_close, bank,
                            bank.use_count)

        # Queuing ends when the first command for this request goes out
        # (PRE/ACT for a row conflict, CAS for a row hit).
        if req.t_mc_issue < 0:
            req.t_mc_issue = first_cmd_t if first_cmd_t is not None else cas_t
        req.t_dram_done = data_end
        nbytes = self.bytes_per_access
        st["bytes"] = st.get("bytes", 0.0) + nbytes
        if is_write:
            st["bytes_wr"] = st.get("bytes_wr", 0.0) + nbytes
        else:
            st["bytes_rd"] = st.get("bytes_rd", 0.0) + nbytes
            queuing = req.t_mc_issue - req.t_mc_enqueue
            st["sum_read_queuing"] = (st.get("sum_read_queuing", 0.0)
                                      + (queuing if queuing > 0.0 else 0.0))
            st["sum_read_service"] = (st.get("sum_read_service", 0.0)
                                      + (data_end - req.t_mc_issue))
            sim.schedule_at(data_end, owner._respond, req)

    def _precharge(self, bank: Bank, t: float) -> None:
        """PRE at ``t``: the bank closes and may re-ACT after tRP."""
        bank.open_row = None
        x = t + self.tm.tRP
        if x > bank.next_act:
            bank.next_act = x
        st = self.owner.stats
        st["num_pre"] = st.get("num_pre", 0.0) + 1.0

    def _deferred_close(self, bank: Bank, token: int) -> None:
        """Precharge the bank if it has been idle since the close was armed."""
        if bank.use_count == token and bank.open_row is not None:
            t = self.owner.sim.now
            self._precharge(bank, bank.next_pre if bank.next_pre > t else t)

    @property
    def read_queue_len(self) -> int:
        """Queued reads, including any back-pressured beyond the cap."""
        return len(self.reads) + len(self.overflow)

    @property
    def write_queue_len(self) -> int:
        """Queued (posted, not yet issued) writes."""
        return len(self.writes)


class DDRChannel(Component):
    """A DDR5 channel (two sub-channels) with FR-FCFS scheduling.

    Parameters
    ----------
    sim:
        Shared simulator.
    name:
        Component name for stats.
    timing:
        Sub-channel timing parameters.
    subchannels, ranks:
        Channel organization (defaults: paper's Table III).
    response_fn:
        Called as ``response_fn(req)`` when read data is available; defaults
        to ``req.callback(req)``.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        timing: DDR5Timing = None,
        subchannels: int = 2,
        ranks: int = 1,
        read_q_cap: int = 48,
        write_hi: int = 24,
        write_lo: int = 8,
        response_fn: Optional[Callable[[MemRequest], None]] = None,
        system_channels: int = 1,
    ) -> None:
        """``system_channels`` is the total DDR-channel count the system
        interleaves lines across; the mapping strips those bits so this
        channel's sub-channel/bank decode is uncorrelated with the upstream
        channel-select bits."""
        super().__init__(sim, name)
        from repro.dram.timing import DDR5_4800
        if read_q_cap < 1:
            raise ValueError(f"read_q_cap must be >= 1, got {read_q_cap}")
        self.read_q_cap = read_q_cap
        self.timing = timing or DDR5_4800
        self.mapping = AddressMapping(
            channels=system_channels, subchannels=subchannels, ranks=ranks,
            banks=self.timing.banks, rows=self.timing.rows,
        )
        self.subs = [
            _SubChannel(self, self.timing, ranks, read_q_cap, write_hi, write_lo)
            for _ in range(subchannels)
        ]
        self.response_fn = response_fn

    # -- public interface ---------------------------------------------------
    def enqueue(self, req: MemRequest) -> bool:
        """Accept a line-granularity request. Writes are posted (no reply).

        Returns ``False`` when the target sub-channel's read queue is at
        ``read_q_cap`` and the request was back-pressured (it is still
        served, FIFO, once a scheduler slot frees up).
        """
        if req.kind not in (READ, WRITE, WRITEBACK):
            raise ValueError(f"unknown request kind {req.kind}")
        coord = self.mapping.decode(req.addr)
        return self.subs[coord.subchannel].enqueue(req, coord)

    def _respond(self, req: MemRequest) -> None:
        if self.response_fn is not None:
            self.response_fn(req)
        elif req.callback is not None:
            req.callback(req)

    def close(self) -> None:
        """Drop the upward callback and the sub-channels' back-references
        (see :meth:`repro.system.builder.Chip.close`); counters stay
        readable."""
        self.response_fn = None
        for s in self.subs:
            s.owner = None

    # -- introspection -------------------------------------------------------
    @property
    def peak_bandwidth_gbps(self) -> float:
        """Aggregate peak bandwidth of the channel in GB/s."""
        return self.timing.peak_bandwidth_gbps * len(self.subs)

    def bandwidth_utilization(self, elapsed_ns: float) -> float:
        """Fraction of peak bandwidth used over ``elapsed_ns``."""
        if elapsed_ns <= 0:
            return 0.0
        gbps = self.stats.get("bytes", 0.0) / elapsed_ns  # bytes/ns == GB/s
        return gbps / self.peak_bandwidth_gbps

    def read_queue_len(self) -> int:
        """Total queued (not yet issued) reads across sub-channels."""
        return sum(s.read_queue_len for s in self.subs)

    def write_queue_len(self) -> int:
        """Total queued (not yet issued) posted writes across sub-channels."""
        return sum(s.write_queue_len for s in self.subs)

    def read_q_high_watermark(self) -> int:
        """Largest scheduler-visible read-queue depth since the last reset.

        The invariant checker asserts this never exceeds ``read_q_cap``.
        """
        return max(s.read_q_hiwat for s in self.subs)

    def reset_stats(self) -> None:
        """Zero counters and queue high watermarks (measurement boundary)."""
        super().reset_stats()
        for s in self.subs:
            s.read_q_hiwat = len(s.reads)
