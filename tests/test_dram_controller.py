"""Unit tests for the FR-FCFS DDR channel controller."""

import dataclasses
import hashlib
import random

import pytest

from repro.engine import Simulator
from repro.dram.controller import DDRChannel
from repro.dram.mapping import DramCoord
from repro.dram.timing import DDR5_4800
from repro.request import MemRequest, READ, WRITE


def run_reads(addrs, arrivals=None, system_channels=1):
    """Drive a channel with reads; return (channel, latencies by req order)."""
    sim = Simulator()
    chan = DDRChannel(sim, "c", system_channels=system_channels)
    done = {}

    def cb(req):
        done[req.req_id] = sim.now - req.t_mc_enqueue

    reqs = []
    for i, a in enumerate(addrs):
        req = MemRequest(a, READ, callback=cb)
        reqs.append(req)
        t = arrivals[i] if arrivals else float(i) * 0.01
        sim.schedule_at(t, chan.enqueue, req)
    sim.run()
    return sim, chan, [done[r.req_id] for r in reqs], reqs


class TestDDRChannel:
    def test_single_read_unloaded_latency(self):
        _, _, lats, _ = run_reads([0x10000])
        # ACT + CAS + burst ~ 37 ns for a closed bank.
        assert 30.0 < lats[0] < 45.0

    def test_all_reads_complete(self):
        _, _, lats, _ = run_reads([i * 64 * 977 for i in range(50)])
        assert len(lats) == 50
        assert all(lat > 0 for lat in lats)

    def test_row_hits_faster_than_conflicts(self):
        # Same row back to back vs alternating rows in one bank.
        # Line layout (sub 0): line = ((row*32 + bank)*128 + col)*2.
        seq = [0x0, 0x80, 0x100, 0x180]  # sub 0, row 0, cols 0..3
        # Row 32 keeps the XOR-folded bank identical (32 & 31 == 0).
        row32 = 32 * 32 * 128 * 2 * 64
        conflict = [0x0, row32, 0x100, row32 + 0x100]
        _, _, hits, _ = run_reads(seq)
        _, _, confl, _ = run_reads(conflict)
        assert sum(hits) < sum(confl)

    def test_timestamps_populated(self):
        _, _, _, reqs = run_reads([0x4000])
        r = reqs[0]
        assert r.t_mc_enqueue >= 0
        assert r.t_mc_issue >= r.t_mc_enqueue
        assert r.t_dram_done > r.t_mc_issue

    def test_writes_are_posted_and_counted(self):
        sim = Simulator()
        chan = DDRChannel(sim, "c")
        for i in range(30):
            chan.enqueue(MemRequest(i * 64 * 131, WRITE))
        sim.run()
        assert chan.stats["num_wr"] == 30
        assert chan.stats["bytes_wr"] == 30 * 64

    def test_bandwidth_accounting(self):
        sim, chan, _, _ = run_reads([i * 64 for i in range(100)])
        assert chan.stats["bytes"] == 100 * 64
        util = chan.bandwidth_utilization(sim.now)
        assert 0.0 < util <= 1.0

    def test_unknown_kind_rejected(self):
        sim = Simulator()
        chan = DDRChannel(sim, "c")
        req = MemRequest(0, READ)
        req.kind = 99
        with pytest.raises(ValueError):
            chan.enqueue(req)

    def test_peak_bandwidth(self):
        sim = Simulator()
        chan = DDRChannel(sim, "c")
        assert chan.peak_bandwidth_gbps == pytest.approx(38.4)

    def test_write_drain_does_not_starve_reads(self):
        """Reads interleaved with heavy writes must still complete promptly."""
        sim = Simulator()
        chan = DDRChannel(sim, "c")
        lat = []

        def cb(req):
            lat.append(sim.now - req.t_mc_enqueue)

        rng_addr = 0
        for i in range(200):
            rng_addr += 64 * 509
            kind = WRITE if i % 2 else READ
            req = MemRequest(rng_addr, kind, callback=cb if kind == READ else None)
            sim.schedule_at(i * 8.0, chan.enqueue, req)
        sim.run()
        assert len(lat) == 100
        assert sum(lat) / len(lat) < 500.0

    def test_system_channels_strip_interleave_bits(self):
        """With system_channels=4, lines 0,4,8,... must spread across both
        sub-channels rather than aliasing onto one."""
        sim = Simulator()
        chan = DDRChannel(sim, "c", system_channels=4)
        for i in range(64):
            chan.enqueue(MemRequest(i * 4 * 64, READ, callback=lambda r: None))
        sim.run()
        counts = [s.ranks[0] for s in chan.subs]
        served = [chan.subs[0], chan.subs[1]]
        bursts = [sum(1 for _ in ()) for _ in served]
        # Both sub-channels must have transferred data.
        assert chan.stats["num_rd"] == 64
        busy = [s.bus_free for s in chan.subs]
        assert all(b > 0 for b in busy)

    def test_refresh_overhead_visible_at_long_horizon(self):
        """Across >> tREFI of simulated time, refreshes must have occurred."""
        sim = Simulator()
        chan = DDRChannel(sim, "c")
        for i in range(100):
            sim.schedule_at(i * 100.0, chan.enqueue,
                            MemRequest(i * 64 * 997, READ, callback=lambda r: None))
        sim.run()
        refreshes = sum(r.refreshes_done for s in chan.subs for r in s.ranks)
        assert refreshes >= 1


class TestReadQueueBackPressure:
    """The read_q_cap bounds the scheduler-visible queue (satellite fix)."""

    def test_overflow_beyond_cap(self):
        sim = Simulator()
        chan = DDRChannel(sim, "c")
        cap = chan.read_q_cap
        # Alias every read onto sub-channel 0 so one queue absorbs them all.
        ok = [chan.enqueue(MemRequest(i * 128 * 997, READ,
                                      callback=lambda r: None))
              for i in range(cap + 12)]
        sub = chan.subs[0]
        assert len(sub.reads) == cap
        assert len(sub.overflow) == 12
        assert sub.read_queue_len == cap + 12
        assert chan.read_queue_len() == cap + 12
        # enqueue() reports back-pressure for exactly the deferred tail.
        assert ok[:cap] == [True] * cap
        assert ok[cap:] == [False] * 12
        assert chan.stats["read_q_stalls"] == 12

    def test_overflow_still_served_and_watermark_capped(self):
        sim = Simulator()
        chan = DDRChannel(sim, "c")
        cap = chan.read_q_cap
        done = []
        for i in range(cap + 20):
            chan.enqueue(MemRequest(i * 128 * 997, READ,
                                    callback=lambda r: done.append(r)))
        sim.run()
        assert len(done) == cap + 20
        assert chan.stats["num_rd"] == cap + 20
        # The scheduler-visible queue never exceeded the cap.
        assert chan.read_q_high_watermark() <= cap

    def test_overflow_admitted_fifo(self):
        sim = Simulator()
        chan = DDRChannel(sim, "c")
        cap = chan.read_q_cap
        order = []
        # Stride of two lines: everything on sub-channel 0, same bank and
        # row, so FR-FCFS degenerates to strict FCFS and the completion
        # order is deterministic.
        reqs = [MemRequest(i * 128, READ,
                           callback=lambda r: order.append(r.req_id))
                for i in range(cap + 8)]
        for r in reqs:
            chan.enqueue(r)
        sim.run()
        # The back-pressured tail completes after the head of the queue
        # (FIFO admission; same-bank-pattern addresses keep age order).
        tail_ids = {r.req_id for r in reqs[cap:]}
        assert set(order[-8:]) == tail_ids

    def test_cap_validated(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            DDRChannel(sim, "c", read_q_cap=0)

    def test_watermark_resets_with_stats(self):
        sim = Simulator()
        chan = DDRChannel(sim, "c")
        for i in range(8):
            chan.enqueue(MemRequest(i * 128 * 997, READ,
                                    callback=lambda r: None))
        assert chan.read_q_high_watermark() == 8
        sim.run()
        chan.reset_stats()
        assert chan.read_q_high_watermark() == 0


def _stress_stream(mapping, seed):
    """A seeded request stream that drives every command rule.

    Six 4 µs epochs (several tREFI windows), each with a cold read burst
    past ``read_q_cap`` across many banks (closed banks, more than four
    ACTs per tFAW window), same-row streams (row hits), same-bank
    different-row pairs (row conflicts), a posted-write burst past
    ``write_hi``, alternating reads and writes (both bus turnarounds) and
    a random background trickle; then chains of back-to-back row
    conflicts whose ACTs wait out tRC and whose PREs wait out tWR.
    """
    rng = random.Random(seed)
    sys_ch = mapping.channels

    def addr(sub, rank, bank, row, col):
        return mapping.encode(DramCoord(channel=rng.randrange(sys_ch),
                                        subchannel=sub, rank=rank, bank=bank,
                                        row=row, col=col))

    def rand_addr():
        # A raw line in a 64 MB region: decoded differently per mapping.
        return rng.randrange(1 << 20) << 6

    out = []  # (arrival time, byte address, kind)
    for epoch in range(6):
        base = epoch * 4000.0
        for i in range(130):
            out.append((base + i * 0.05, rand_addr(), READ))
        for i in range(48):
            sub, bank = i % 2, (i // 2) % 3
            out.append((base + 1200.0 + i * 0.5,
                        addr(sub, 0, bank, epoch, i // 6), READ))
        for i in range(24):
            bank = rng.randrange(mapping.banks)
            kind = READ if i % 3 else WRITE
            for row in (2 * i, 2 * i + 1):
                out.append((base + 1600.0 + i * 6.0,
                            addr(0, mapping.ranks - 1, bank, row, i), kind))
        for i in range(70):
            out.append((base + 2000.0 + i * 0.2, rand_addr(), WRITE))
        for i in range(60):
            out.append((base + 2600.0 + i * 3.0, rand_addr(),
                        READ if i % 2 else WRITE))
        t = base
        while t < base + 4000.0:
            t += rng.expovariate(1 / 25.0)
            out.append((t, rand_addr(), READ if rng.random() < 0.7 else WRITE))
    # Back-to-back row conflicts on three banks: each ACT waits out the
    # bank's tRC (reads) and each PRE the write recovery (writes), float
    # sums a re-association can move.
    for i in range(300):
        for bank in (1, 2, 3):
            out.append((24000.0 + i * 40.0, addr(1, 0, bank, 100 + i, 0), READ))
    for i in range(100):
        for bank in (4, 5, 6):
            out.append((40000.0 + i * 80.0, addr(1, 0, bank, 100 + i, 0), WRITE))
    return out


#: DDR5-7200 with every timing a whole number of clocks, as a controller
#: counts them: most sums are inexact in binary, so re-associating a
#: timing expression moves the timeline here.
_CK = 2000.0 / 7200.0
_FAST_TIMING = dataclasses.replace(
    DDR5_4800, name="DDR5-7200", data_rate_mts=7200.0, tCL=58 * _CK,
    tRCD=58 * _CK, tRP=58 * _CK, tRAS=116 * _CK, tWR=108 * _CK, tRTP=27 * _CK,
    tCWL=56 * _CK, tRRD_S=8 * _CK, tFAW=40 * _CK, tWTR_S=9 * _CK,
    tRTW=14 * _CK)


class TestExactTimeline:
    """Pins the channel's full command timeline, bit for bit.

    The digest covers every request's (enqueue, issue, done) times, the
    stats items in insertion order, refresh counts, queue watermarks, the
    event count and the final clock. Any change to a timing expression
    (including float re-association) or to the events fired moves it, so
    re-record the digests only for a deliberate change to the modelled
    DDR5 behaviour.
    """

    DIGESTS = {
        "default": "289fea3a6bd85cbf51cb535b57dca69e"
                   "8c985d0e4eee4f8a77c820b5be922026",
        "ranks2": "684935f26b27b2a5cbdcc02f30839b47"
                  "04a288593454d489c7f81c9c94ffa1e6",
        "sysch4": "3b83a03817f364f2fc972a3576e03553"
                  "ecad8e73dcab63858ea344ee92a90852",
        "fast": "56161cefd327eeeee9df4db7c39e4808"
                "d3ef42a105dcec0629ba7dd24cf19d73",
    }

    SETUPS = {
        "default": {},
        "ranks2": {"ranks": 2},
        "sysch4": {"system_channels": 4},
        "fast": {"timing": _FAST_TIMING},
    }

    @staticmethod
    def _digest(**kw):
        sim = Simulator()
        chan = DDRChannel(sim, "c", **kw)
        reqs = []
        for t, a, kind in _stress_stream(chan.mapping, seed=20240):
            req = MemRequest(a, kind)
            reqs.append(req)
            sim.schedule_at(t, chan.enqueue, req)
        sim.run()
        s = chan.stats
        assert s["row_hits"] > 0 and s["num_pre"] > 0 and s["num_act"] > 0
        assert s["read_q_stalls"] > 0 and s["num_wr"] > 0
        assert all(r.refreshes_done >= 5 for sub in chan.subs
                   for r in sub.ranks)
        payload = (
            [(r.t_mc_enqueue, r.t_mc_issue, r.t_dram_done) for r in reqs],
            list(s.items()),
            [r.refreshes_done for sub in chan.subs for r in sub.ranks],
            [sub.read_q_hiwat for sub in chan.subs],
            sim.events_fired, sim.now,
        )
        return hashlib.sha256(repr(payload).encode()).hexdigest()

    @pytest.mark.parametrize("setup", list(SETUPS))
    def test_timeline_digest(self, setup):
        assert self._digest(**self.SETUPS[setup]) == self.DIGESTS[setup]
