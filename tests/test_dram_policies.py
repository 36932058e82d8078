"""Focused tests for DRAM controller policies: deferred close, turnaround,
write drain, and refresh interaction."""

import pytest

from repro.engine import Simulator
from repro.dram import LoadLatencyProbe
from repro.dram.controller import DDRChannel, _SubChannel
from repro.dram.timing import DDR5_4800 as TM
from repro.request import MemRequest, READ, WRITE


def make_channel():
    sim = Simulator()
    return sim, DDRChannel(sim, "c")


class TestDeferredClose:
    def test_row_closes_after_idle(self):
        sim, chan = make_channel()
        done = []
        chan.enqueue(MemRequest(0x0, READ, callback=lambda r: done.append(r)))
        sim.run()
        # After the idle window elapses, the bank must be precharged.
        bank_states = [b.open_row for s in chan.subs for r in s.ranks
                       for b in r.banks]
        assert all(row is None for row in bank_states)
        assert chan.stats.get("num_pre", 0) >= 1

    def test_quick_same_row_reuse_hits(self):
        """A second access within the close window must be a row hit."""
        sim, chan = make_channel()
        times = {}

        def cb(req):
            times[req.req_id] = (req.t_mc_issue, req.t_dram_done)

        r1 = MemRequest(0x0, READ, callback=cb)
        r2 = MemRequest(0x80, READ, callback=cb)  # same sub, same row
        sim.schedule_at(0.0, chan.enqueue, r1)
        sim.schedule_at(35.0, chan.enqueue, r2)  # strictly inside CLOSE_TIMEOUT
        sim.run()
        # Row hit: issue-to-data is CAS+burst only (no ACT).
        issue2, done2 = times[r2.req_id]
        assert done2 - issue2 < TM.tRCD + TM.tCL  # no activation in the path
        assert chan.stats["row_hits"] >= 1

    def test_late_same_row_reuse_misses(self):
        """After the idle close, the same row needs a fresh ACT."""
        sim, chan = make_channel()
        times = {}

        def cb(req):
            times[req.req_id] = (req.t_mc_enqueue, req.t_dram_done)

        r1 = MemRequest(0x0, READ, callback=cb)
        r2 = MemRequest(0x80, READ, callback=cb)
        sim.schedule_at(0.0, chan.enqueue, r1)
        sim.schedule_at(500.0, chan.enqueue, r2)  # well past CLOSE_TIMEOUT
        sim.run()
        enq2, done2 = times[r2.req_id]
        # ACT + CAS + burst, but no PRE (bank already closed).
        assert done2 - enq2 == pytest.approx(
            TM.tRCD + TM.tCL + TM.tBURST, abs=1.0)


class TestWriteDrain:
    def test_watermark_triggers_drain(self):
        sim, chan = make_channel()
        sub = chan.subs[0]
        # Flood with writes beyond the high watermark, all to sub 0.
        n = sub.write_hi + 8
        for i in range(n):
            # line even -> sub 0 (system_channels=1, line%2 subchannel)
            chan.enqueue(MemRequest(i * 2 * 64 * 257, WRITE))
        sim.run()
        assert chan.stats["num_wr"] == n

    def test_reads_resume_after_drain(self):
        sim, chan = make_channel()
        done = []
        for i in range(40):
            chan.enqueue(MemRequest(i * 2 * 64 * 257, WRITE))
        chan.enqueue(MemRequest(0x40 * 999 * 2, READ,
                                callback=lambda r: done.append(sim.now)))
        sim.run()
        assert len(done) == 1


class TestTurnaround:
    def test_mixed_traffic_slower_than_pure_reads(self):
        def run(kinds):
            sim, chan = make_channel()
            for i, k in enumerate(kinds):
                chan.enqueue(MemRequest(i * 64 * 509, k))
            sim.run()
            return sim.now

        pure = run([READ] * 40)
        mixed = run([READ, WRITE] * 20)
        assert mixed >= pure * 0.95  # bus turnarounds cannot make it faster


class TestRefreshUnderLoad:
    def test_some_requests_hit_refresh_window(self):
        sim, chan = make_channel()
        lat = []

        def cb(req):
            lat.append(sim.now - req.t_mc_enqueue)

        # Sparse arrivals across several tREFI periods.
        for i in range(200):
            req = MemRequest(i * 64 * 1013, READ, callback=cb)
            sim.schedule_at(i * 100.0, chan.enqueue, req)
        sim.run()
        # Most are fast, a few were parked behind a ~295 ns tRFC window.
        slow = [x for x in lat if x > 200.0]
        assert 0 < len(slow) < len(lat) // 2


@pytest.fixture
def knobs():
    """Restore the calibration class attributes a test sets."""
    saved = (_SubChannel.SCAN_WINDOW, _SubChannel.CLOSE_TIMEOUT)
    yield _SubChannel
    _SubChannel.SCAN_WINDOW, _SubChannel.CLOSE_TIMEOUT = saved


class TestCalibrationKnobs:
    """The class-level knobs reach the scheduler of channels built later."""

    @staticmethod
    def mean_latency(load):
        pt = LoadLatencyProbe(seed=5).measure(load, n_requests=1500,
                                             warmup=200)
        return pt.mean_latency

    def test_scan_window_reaches_pick(self, knobs):
        knobs.SCAN_WINDOW = 1
        fcfs = self.mean_latency(0.55)
        knobs.SCAN_WINDOW = 16
        wide = self.mean_latency(0.55)
        # Strict FCFS queues far behind bank conflicts (1548 vs 89 ns).
        assert fcfs > 5 * wide

    def test_close_timeout_reaches_page_policy(self, knobs):
        knobs.CLOSE_TIMEOUT = 0.0
        eager = self.mean_latency(0.45)
        knobs.CLOSE_TIMEOUT = 1e9
        open_page = self.mean_latency(0.45)
        # Random traffic: leaving rows open costs the next conflict a PRE.
        assert open_page > eager + 3.0
