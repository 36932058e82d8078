"""Trace-driven out-of-order core.

The core dispatches trace operations in program order into a finite ROB,
issues loads out of order once their dependencies resolve, and retires in
order. Non-memory instructions cost ``1/width`` cycles each. L1/L2 lookups
are performed functionally at dispatch and cost fixed hit latencies; L2
misses are handed to the chip (LLC + memory system) through the
``l2_miss_fn`` hook and complete asynchronously.

Timing model invariants:

- dispatch of instruction *n* waits until instruction *n - ROB* retired;
- a load's issue waits for its dependency's completion;
- at most ``mshr`` core-originated line misses are outstanding; further
  misses queue at the MSHR file;
- stores are posted: they allocate/dirty lines (RFO on miss) and consume
  bandwidth but never stall dispatch or retirement.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.engine import Component, Simulator
from repro.cache.cache import CacheLevel
from repro.cache.mshr import MSHRFile
from repro.cpu.trace import Trace

LINE_MASK = ~0x3F


class CoreParams:
    """Microarchitectural parameters (paper Table III defaults)."""

    def __init__(
        self,
        freq_ghz: float = 2.4,
        width: int = 4,
        rob: int = 256,
        mshrs: int = 16,
        l1_hit_cyc: int = 4,
        l2_hit_cyc: int = 8,
    ) -> None:
        self.freq_ghz = freq_ghz
        self.width = width
        self.rob = rob
        self.mshrs = mshrs
        self.l1_hit_cyc = l1_hit_cyc
        self.l2_hit_cyc = l2_hit_cyc

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.freq_ghz

    @property
    def dispatch_ns(self) -> float:
        """Frontend time per instruction at full width."""
        return self.cycle_ns / self.width


class Core(Component):
    """One out-of-order core with private L1D and L2.

    Parameters
    ----------
    l2_miss_fn:
        ``l2_miss_fn(core, op_idx, addr, is_write, pc)`` called *at issue
        time* (sim.now is the issue instant) when an access misses the L2.
        The chip must later call :meth:`complete_miss`. Prefetches call
        ``l2_miss_fn(core, -1, line, False, pc, prefetch=True)``.
    l2_writeback_fn:
        ``l2_writeback_fn(core, addr)`` for dirty L2 evictions.

    :attr:`done` turns true once the trace is fully executed and drained.
    """

    def __init__(
        self,
        sim: Simulator,
        core_id: int,
        params: CoreParams,
        l1: CacheLevel,
        l2: CacheLevel,
        l2_miss_fn: Callable,
        l2_writeback_fn: Callable,
        prefetcher=None,
    ) -> None:
        super().__init__(sim, f"core{core_id}")
        self.core_id = core_id
        self.params = params
        self.l1 = l1
        self.l2 = l2
        self.l2_miss_fn = l2_miss_fn
        self.l2_writeback_fn = l2_writeback_fn
        self.prefetcher = prefetcher
        self.mshr = MSHRFile(params.mshrs)
        # Hot-path bindings: the cache arrays, the two hit latencies (the
        # same products the issue path used to form per access) and the
        # frontend time per instruction.
        self._l1a = l1.array
        self._l2a = l2.array
        self._l1_lat = params.l1_hit_cyc * params.cycle_ns
        self._l2_lat = (params.l1_hit_cyc + params.l2_hit_cyc) * params.cycle_ns
        self._dispatch_ns = params.dispatch_ns
        # Observer slot (repro.observer), set by ``Chip.set_observer`` at
        # the measurement boundary; never reset by _reset_run_state so it
        # survives the warmup -> measurement restart.
        self.observer = None
        self._reset_run_state()

    def _reset_run_state(self) -> None:
        self.gaps: List[int] = []
        self.addrs: List[int] = []
        self.writes: List[int] = []
        self.pcs: List[int] = []
        self.deps: List[int] = []
        self.instr_no: List[int] = []
        self.comp: List[float] = []
        self.idx = 0
        self.n_ops = 0
        self.frontend = 0.0
        self.retire_floor = 0.0
        self.rob_q: deque = deque()            # (instr_no, op_idx) loads in program order
        self.dep_waiters: Dict[int, List[int]] = {}
        self.disp_plan: Dict[int, float] = {}  # planned issue floor for dep-blocked ops
        self.mshr_pending: deque = deque()     # (op_idx, is_write) waiting for an MSHR
        self.outstanding = 0                   # in-flight L2 misses (incl. merged waits)
        self.rob_stall_on: Optional[int] = None
        self.start_time = 0.0
        self.finish_time = 0.0
        self.done = True
        self.total_instrs = 0

    # -- run control ------------------------------------------------------------
    def start(self, trace: Trace, at: Optional[float] = None) -> None:
        """Begin executing ``trace``; may only be called when idle."""
        if not self.done:
            raise RuntimeError(f"{self.name} is still running")
        self._reset_run_state()
        arr = trace.arr
        self.gaps = arr["gap"].tolist()
        self.addrs = arr["addr"].tolist()
        self.writes = arr["is_write"].tolist()
        self.pcs = arr["pc"].tolist()
        self.deps = arr["dep"].tolist()
        n = len(arr)
        self.n_ops = n
        self.comp = [-1.0] * n
        # Op i is instruction sum(gaps[:i+1]) + i: the skipped
        # instructions so far plus the memory ops themselves.
        ino = (np.cumsum(arr["gap"].astype(np.int64) + 1) - 1).tolist()
        self.instr_no = ino
        self.total_instrs = ino[-1] + 1 if ino else 0
        self.done = n == 0
        t0 = self.sim.now if at is None else at
        self.start_time = t0
        self.frontend = t0
        self.retire_floor = t0
        if self.done:
            self.finish_time = t0
        else:
            self.sim.schedule_at(t0, self._advance)

    @property
    def ipc(self) -> float:
        """Committed IPC of the last completed run."""
        elapsed = self.finish_time - self.start_time
        if elapsed <= 0:
            return 0.0
        cycles = elapsed * self.params.freq_ghz
        return self.total_instrs / cycles

    # -- dispatch loop ---------------------------------------------------------
    def _advance(self) -> None:
        if self.done or self.rob_stall_on is not None:
            return
        dispatch_ns = self._dispatch_ns
        rob = self.params.rob
        while self.idx < self.n_ops:
            i = self.idx
            ino = self.instr_no[i]
            # ROB gate: instruction `ino` needs instruction `ino - rob` retired.
            target = ino - rob
            q = self.rob_q
            while q and q[0][0] <= target:
                h_ino, h_idx = q[0]
                c = self.comp[h_idx]
                if c < 0.0:
                    self.rob_stall_on = h_idx
                    return
                if c > self.retire_floor:
                    self.retire_floor = c
                q.popleft()
            self.frontend += (self.gaps[i] + 1) * dispatch_ns
            if self.retire_floor > self.frontend:
                self.frontend = self.retire_floor
            disp = self.frontend
            is_write = self.writes[i]
            if not is_write:
                q.append((ino, i))
            dep = self.deps[i]
            self.idx += 1
            if dep > 0:
                j = i - dep
                cj = self.comp[j]
                if cj < 0.0:
                    # Source still outstanding: issue this op when it lands.
                    self.disp_plan[i] = disp
                    self.dep_waiters.setdefault(j, []).append(i)
                    continue
                if cj > disp:
                    disp = cj
            self._issue(i, disp)
        self._maybe_finish()

    # -- memory access -----------------------------------------------------------
    def _issue(self, i: int, t: float) -> None:
        """Perform the cache access for op ``i`` issuing at time ``t``."""
        addr = self.addrs[i]
        is_write = self.writes[i]
        if self._l1a.lookup(addr, is_write):
            self._set_comp(i, t + self._l1_lat)
            return
        if self._l2a.lookup(addr, is_write):
            self._fill_l1(addr, bool(is_write))
            self._set_comp(i, t + self._l2_lat)
            return
        # L2 miss: allocate an MSHR and go off-chip.
        self._miss(i, t)

    def _miss(self, i: int, t: float) -> None:
        line = self.addrs[i] & LINE_MASK
        status = self.mshr.allocate(line, i)
        if status is None:
            self.mshr_pending.append(i)
            if self.observer is not None:
                self.observer.on_mshr_stall(self.core_id, i, t)
            return
        self.outstanding += 1
        if status == "merged":
            if self.observer is not None:
                self.observer.on_mshr_merge(self.core_id, i)
            return  # rides the in-flight request for this line
        now = self.sim.now
        self.sim.schedule_at(now if now > t else t, self._send_miss, i)

    def _send_miss(self, i: int) -> None:
        addr = self.addrs[i]
        pc = self.pcs[i]
        self.l2_miss_fn(self, i, addr, bool(self.writes[i]), pc)
        if self.prefetcher is not None and not self.writes[i]:
            self._issue_prefetches(addr, pc)

    def _issue_prefetches(self, addr: int, pc: int) -> None:
        """Consult the prefetcher and launch fills for untracked lines.

        Prefetches share the MSHR file (a later demand miss to the same
        line merges into the in-flight prefetch) but never displace demand
        capacity: the file must have a free slot.
        """
        for target in self.prefetcher.on_miss(addr, pc):
            line = target & LINE_MASK
            if self.mshr.full or self.mshr.outstanding(line):
                continue
            if self._l1a.probe(line) or self._l2a.probe(line):
                continue
            self.mshr.allocate(line)
            self.l2_miss_fn(self, -1, line, False, pc, prefetch=True)

    def complete_miss(self, op_idx: int, addr: int) -> None:
        """Chip calls this when the line for ``op_idx`` arrives (sim.now)."""
        t = self.sim.now
        line = addr & LINE_MASK
        waiters = self.mshr.complete(line)
        writes = self.writes
        dirty = False
        for w in waiters:
            if writes[w]:
                dirty = True
                break
        victim = self._l2a.fill(line, dirty)
        if victim is not None and victim[1]:
            self.l2_writeback_fn(self, victim[0])
        self._fill_l1(line, dirty)
        for w in waiters:
            self.outstanding -= 1
            self._set_comp(w, t)
        # MSHR slots freed: issue queued misses now.
        while self.mshr_pending and not self.mshr.full:
            nxt = self.mshr_pending.popleft()
            self._miss(nxt, t)

    # -- fills and writebacks ----------------------------------------------------
    def _fill_l1(self, addr: int, dirty: bool) -> None:
        victim = self._l1a.fill(addr, dirty)
        if victim is not None and victim[1]:
            # Dirty L1 victim folds into the L2 (write-back hierarchy).
            if not self._l2a.set_dirty(victim[0]):
                v2 = self._l2a.fill(victim[0], True)
                if v2 is not None and v2[1]:
                    self.l2_writeback_fn(self, v2[0])

    # -- completion plumbing -------------------------------------------------------
    def _set_comp(self, i: int, t: float) -> None:
        self.comp[i] = t
        for w in self.dep_waiters.pop(i, ()):  # dependents now have their data time
            disp = self.disp_plan.pop(w)
            self._issue(w, t if t > disp else disp)
        if self.rob_stall_on == i:
            self.rob_stall_on = None
            if t > self.retire_floor:
                self.retire_floor = t
            now = self.sim.now
            if now > self.frontend:
                self.frontend = now
            self._advance()
        elif not self.done and self.idx >= self.n_ops:
            self._maybe_finish()

    def _maybe_finish(self) -> None:
        if self.done or self.idx < self.n_ops or self.rob_stall_on is not None:
            return
        if self.outstanding > 0 or self.mshr_pending or self.dep_waiters:
            return
        last = max([c for c in self.comp if c >= 0.0], default=self.frontend)
        self.finish_time = max(self.frontend, last)
        self.done = True
