"""Unit tests for the trace-driven out-of-order core model."""

import numpy as np
import pytest

from repro.engine import Simulator
from repro.cache.cache import CacheLevel
from repro.cpu.core import Core, CoreParams
from repro.cpu.trace import Trace, TRACE_DTYPE


class FakeMemory:
    """Memory backend with a fixed latency, tracking miss arrivals."""

    def __init__(self, sim, latency=100.0):
        self.sim = sim
        self.latency = latency
        self.misses = []
        self.writebacks = []

    def l2_miss(self, core, op_idx, addr, is_write, pc):
        self.misses.append((self.sim.now, op_idx, addr, is_write))
        self.sim.schedule(self.latency, core.complete_miss, op_idx, addr)

    def l2_writeback(self, core, addr):
        self.writebacks.append(addr)


def build_core(sim, mem, params=None):
    params = params or CoreParams()
    l1 = CacheLevel("l1", 16 * 1024, 8, 4 / 2.4)
    l2 = CacheLevel("l2", 64 * 1024, 8, 8 / 2.4)
    return Core(sim, 0, params, l1, l2, mem.l2_miss, mem.l2_writeback)


def trace_of(addrs, gap=0, deps=None, writes=None):
    n = len(addrs)
    arr = np.zeros(n, dtype=TRACE_DTYPE)
    arr["gap"] = gap
    arr["addr"] = addrs
    if deps is not None:
        arr["dep"] = deps
    if writes is not None:
        arr["is_write"] = writes
    return Trace(arr)


class TestCoreBasics:
    def test_empty_trace_finishes_immediately(self):
        sim = Simulator()
        mem = FakeMemory(sim)
        core = build_core(sim, mem)
        core.start(trace_of([]))
        assert core.done
        assert not sim.queue

    def test_all_misses_reach_memory(self):
        sim = Simulator()
        mem = FakeMemory(sim)
        core = build_core(sim, mem)
        core.start(trace_of([i * 64 * 1001 for i in range(10)]))
        sim.run()
        assert core.done
        assert len(mem.misses) == 10

    def test_l1_hits_do_not_reach_memory(self):
        sim = Simulator()
        mem = FakeMemory(sim)
        core = build_core(sim, mem)
        core.start(trace_of([0x1000] * 20))
        sim.run()
        assert len(mem.misses) == 1  # only the cold miss

    def test_ipc_counts_gap_instructions(self):
        sim = Simulator()
        mem = FakeMemory(sim, latency=10.0)
        core = build_core(sim, mem)
        core.start(trace_of([0x1000] * 50, gap=9))
        sim.run()
        assert core.total_instrs == 500
        assert core.ipc > 0.5  # hits only: near-full throughput

    def test_mshr_merging(self):
        """Back-to-back accesses to one missing line produce one request."""
        sim = Simulator()
        mem = FakeMemory(sim, latency=200.0)
        core = build_core(sim, mem)
        core.start(trace_of([0x8000, 0x8008, 0x8010]))
        sim.run()
        assert len(mem.misses) == 1


class TestDependencies:
    def test_dep_chain_serializes(self):
        """Dependent misses must complete one memory latency apart."""
        sim = Simulator()
        mem = FakeMemory(sim, latency=100.0)
        core = build_core(sim, mem)
        addrs = [i * 64 * 1009 for i in range(4)]
        core.start(trace_of(addrs, deps=[0, 1, 1, 1]))
        sim.run()
        times = [t for t, *_ in mem.misses]
        assert times[1] >= times[0] + 100.0
        assert times[3] >= times[0] + 300.0

    def test_independent_misses_overlap(self):
        sim = Simulator()
        mem = FakeMemory(sim, latency=100.0)
        core = build_core(sim, mem)
        addrs = [i * 64 * 1009 for i in range(4)]
        core.start(trace_of(addrs))
        sim.run()
        times = [t for t, *_ in mem.misses]
        assert times[3] - times[0] < 50.0  # all in flight together

    def test_dep_ipc_lower_than_independent(self):
        def run(deps):
            sim = Simulator()
            mem = FakeMemory(sim, latency=150.0)
            core = build_core(sim, mem)
            addrs = [i * 64 * 1013 for i in range(40)]
            core.start(trace_of(addrs, gap=2, deps=deps))
            sim.run()
            return core.ipc

        chained = run([0] + [1] * 39)
        independent = run(None)
        assert chained < independent * 0.5


class TestRobAndMshr:
    def test_rob_limits_runahead(self):
        """With a tiny ROB, a long miss stalls the frontend."""
        def run(rob):
            sim = Simulator()
            mem = FakeMemory(sim, latency=300.0)
            params = CoreParams(rob=rob)
            core = build_core(sim, mem, params)
            addrs = [0x10000 * 977] + [0x1000] * 100  # 1 miss + 100 hits
            core.start(trace_of(addrs, gap=5))
            sim.run()
            return core.finish_time - core.start_time

        small = run(16)
        large = run(4096)
        assert small > large  # small ROB stalled behind the miss

    def test_mshr_limit_bounds_outstanding(self):
        sim = Simulator()
        mem = FakeMemory(sim, latency=500.0)
        params = CoreParams(mshrs=2)
        core = build_core(sim, mem, params)
        addrs = [i * 64 * 1021 for i in range(8)]
        core.start(trace_of(addrs))
        sim.run()
        # With latency 500 and 2 MSHRs, arrivals come in waves of <= 2.
        times = sorted(t for t, *_ in mem.misses)
        assert times[2] >= times[0] + 500.0

    def test_restart_requires_done(self):
        sim = Simulator()
        mem = FakeMemory(sim, latency=100.0)
        core = build_core(sim, mem)
        core.start(trace_of([0x123400]))
        with pytest.raises(RuntimeError):
            core.start(trace_of([0x1000]))


class TestStores:
    def test_stores_do_not_block_retirement(self):
        """A store miss must not slow the frontend the way a load does."""
        def run(writes):
            sim = Simulator()
            mem = FakeMemory(sim, latency=400.0)
            core = build_core(sim, mem, CoreParams(rob=32))
            addrs = [i * 64 * 1031 for i in range(20)]
            core.start(trace_of(addrs, gap=3, writes=writes))
            sim.run()
            return core.finish_time - core.start_time

        all_stores = run([1] * 20)
        all_loads = run(None)
        assert all_stores < all_loads

    def test_dirty_line_writeback_emitted(self):
        sim = Simulator()
        mem = FakeMemory(sim, latency=10.0)
        core = build_core(sim, mem)
        # Write a line, then stream enough lines to evict it from L1+L2.
        addrs = [0x40] + [((i * 8191) + 7) * 64 for i in range(1, 3000)]
        writes = [1] + [0] * 2999
        core.start(trace_of(addrs, writes=writes))
        sim.run()
        assert len(mem.writebacks) >= 1
