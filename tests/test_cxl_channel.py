"""Integration-ish tests for a CXL channel with a Type-3 device behind it."""

import pytest

from repro.engine import Simulator
from repro.cxl import CxlChannel, CxlType3Device, X8_CXL, X8_CXL_ASYM
from repro.cxl.link import SerialLink
from repro.cxl.profiles import DEMYSTIFY_B, FIXED, LatencySampler
from repro.request import MemRequest, READ, WRITE


def read_through(channel_kwargs=None, n=1, addr_stride=64 * 977):
    sim = Simulator()
    chan = CxlChannel(sim, "cxl0", **(channel_kwargs or {}))
    done = []

    def cb(req):
        done.append((sim.now, req))

    for i in range(n):
        req = MemRequest(i * addr_stride, READ, callback=cb)
        req.t_create = 0.0
        sim.schedule_at(0.0, chan.submit, req)
    sim.run()
    return sim, chan, done


class TestCxlChannel:
    def test_read_completes(self):
        _, _, done = read_through()
        assert len(done) == 1

    def test_unloaded_read_latency_includes_premium(self):
        """CXL read ~ DRAM (37 ns) + >= 52.5 ns interface premium."""
        _, _, done = read_through()
        t, req = done[0]
        assert 80.0 < t < 120.0
        assert req.cxl_delay == pytest.approx(53.0, abs=2.0)

    def test_dram_timestamps_behind_cxl(self):
        _, _, done = read_through()
        _, req = done[0]
        assert req.t_mc_enqueue > 10.0   # after TX traversal
        assert req.t_dram_done > req.t_mc_enqueue

    def test_write_is_posted_and_reaches_dram(self):
        sim = Simulator()
        chan = CxlChannel(sim, "cxl0")
        for i in range(10):
            chan.submit(MemRequest(i * 64 * 131, WRITE))
        sim.run()
        total_wr = sum(c.stats.get("num_wr", 0) for c in chan.device.channels)
        assert total_wr == 10
        assert chan.stats["tx_bytes"] == 10 * 72

    def test_tx_link_congestion_adds_delay(self):
        """Many simultaneous writes must serialize on the 13 GB/s TX link."""
        sim = Simulator()
        chan = CxlChannel(sim, "cxl0")
        reqs = [MemRequest(i * 64 * 131, WRITE) for i in range(50)]
        for r in reqs:
            chan.submit(r)
        sim.run()
        delays = [r.cxl_delay for r in reqs]
        assert max(delays) > min(delays) + 10.0  # queue built up

    def test_asym_faster_reads_slower_writes(self):
        _, _, d_sym = read_through({"params": X8_CXL})
        _, _, d_asym = read_through({"params": X8_CXL_ASYM})
        assert d_asym[0][1].cxl_delay < d_sym[0][1].cxl_delay

    def test_two_ddr_channels_split_traffic(self):
        sim = Simulator()
        chan = CxlChannel(sim, "cxl0", n_ddr_channels=2, system_channels=2)
        for i in range(40):
            chan.submit(MemRequest(i * 64, READ, callback=lambda r: None))
        sim.run()
        counts = [c.stats.get("num_rd", 0) for c in chan.device.channels]
        assert counts[0] > 0 and counts[1] > 0
        assert sum(counts) == 40

    def test_peak_bandwidth_reflects_device(self):
        sim = Simulator()
        one = CxlChannel(sim, "a", n_ddr_channels=1)
        two = CxlChannel(sim, "b", n_ddr_channels=2, system_channels=2)
        assert two.peak_bandwidth_gbps == pytest.approx(2 * one.peak_bandwidth_gbps)


class CrossingLog:
    """Observer stub: each crossing's (send time, arrival time)."""

    def __init__(self):
        self.tx, self.rx = [], []

    def on_cxl_tx(self, req, now, arrive):
        self.tx.append((now, arrive))

    def on_cxl_rx(self, req, now, arrive):
        self.rx.append((now, arrive))


def crossings(kind, n, gap_ns, **channel_kwargs):
    """Send ``n`` requests ``gap_ns`` apart; the channel and its crossings."""
    sim = Simulator()
    chan = CxlChannel(sim, "cxl0", **channel_kwargs)
    chan.observer = log = CrossingLog()
    for i in range(n):
        sim.schedule_at(i * gap_ns, chan.submit,
                        MemRequest(i * 64 * 131, kind, callback=lambda r: None))
    sim.run()
    return chan, log


def bare(goodput_gbps, sends, nbytes):
    """The bare crossing (port, FIFO wire, port) for each send time."""
    link = SerialLink(goodput_gbps)
    port = X8_CXL.port_latency_ns
    return [(now, link.transfer(now + port, nbytes) + port) for now in sends]


class TestCxlChannelProfile:
    def test_fixed_profile_has_no_sampler(self):
        chan = CxlChannel(Simulator(), "cxl0")
        assert chan.profile is FIXED
        assert chan.sampler is None

    def test_fixed_crossing_is_the_bare_expression(self):
        # Bit for bit, not approximately: 50 writes 3.7 ns apart queue on
        # the 13 GB/s TX link.
        _, log = crossings(WRITE, 50, 3.7)
        assert log.tx == bare(X8_CXL.tx_goodput_gbps,
                              [now for now, _ in log.tx], 72)

    def test_profile_extra_on_device_bound_crossing_only(self):
        _, flog = crossings(READ, 20, 2.0)
        prof, plog = crossings(READ, 20, 2.0, profile=DEMYSTIFY_B,
                               profile_seed=7)
        assert prof.sampler.draws == 20
        floor = DEMYSTIFY_B.read_knots[0][1]
        for (t_f, a_f), (t_p, a_p) in zip(flog.tx, plog.tx):
            assert t_p == t_f and a_p >= a_f + floor
        assert plog.rx == bare(X8_CXL.rx_goodput_gbps,
                               [now for now, _ in plog.rx], 72)

    def test_min_read_premium_includes_profile_floor(self):
        sim = Simulator()
        fixed = CxlChannel(sim, "a").min_read_premium_ns()
        prof = CxlChannel(sim, "b", profile=DEMYSTIFY_B).min_read_premium_ns()
        assert fixed == X8_CXL.min_read_latency_ns()
        assert prof == fixed + DEMYSTIFY_B.min_read_extra_ns()

    def test_reset_link_counters_restarts_draw_stream(self):
        chan, _ = crossings(READ, 10, 50.0, profile=DEMYSTIFY_B,
                            profile_seed=3)
        assert chan.sampler.draws == 10
        chan.reset_link_counters()
        assert chan.sampler.draws == 0
        assert chan.tx.bytes_moved == chan.rx.bytes_moved == 0.0
        fresh = LatencySampler(DEMYSTIFY_B, 3)
        assert ([chan.sampler.sample_read() for _ in range(10)]
                == [fresh.sample_read() for _ in range(10)])


class TestCxlType3Device:
    def test_needs_a_channel(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            CxlType3Device(sim, "dev", n_ddr_channels=0)

    def test_response_fallback_to_callback(self):
        sim = Simulator()
        dev = CxlType3Device(sim, "dev")
        done = []
        req = MemRequest(0x1000, READ, callback=lambda r: done.append(r))
        dev.submit(req)
        sim.run()
        assert done == [req]


class TestDeviceChannelDecode:
    """Device-local channel select must be uniform (satellite fix).

    The raw double modulo ((addr >> 6) % system_channels) % n skews the
    distribution whenever n does not divide system_channels (8 over 3
    would load the local channels 3:3:2); the device now rounds the
    interleave width up to a multiple of its channel count.
    """

    def test_width_rounded_up_to_multiple(self):
        sim = Simulator()
        dev = CxlType3Device(sim, "dev", n_ddr_channels=3, system_channels=8)
        assert dev.system_channels == 9
        # Already divisible: untouched.
        dev2 = CxlType3Device(sim, "dev2", n_ddr_channels=2, system_channels=8)
        assert dev2.system_channels == 8
        # Degenerate standalone default keeps the old promotion to n.
        dev3 = CxlType3Device(sim, "dev3", n_ddr_channels=3, system_channels=1)
        assert dev3.system_channels == 3

    def test_distribution_uniform_when_not_divisible(self):
        sim = Simulator()
        dev = CxlType3Device(sim, "dev", n_ddr_channels=3, system_channels=8)
        # Lines covering the full (rounded) interleave pattern 4x over.
        for g in range(9 * 4):
            dev.submit(MemRequest(g * 64, READ, callback=lambda r: None))
        counts = [c.read_queue_len() for c in dev.channels]
        assert counts == [12, 12, 12]

    def test_distribution_exact_when_divisible(self):
        sim = Simulator()
        dev = CxlType3Device(sim, "dev", n_ddr_channels=2, system_channels=8)
        for g in range(8 * 5):
            dev.submit(MemRequest(g * 64, READ, callback=lambda r: None))
        counts = [c.read_queue_len() for c in dev.channels]
        assert counts == [20, 20]
