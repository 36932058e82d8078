"""CalmR epoch-estimation behaviour under a simulated clock."""

import pytest

from repro.calm.policy import CalmR


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestEpochRollover:
    def test_estimates_update_per_epoch(self):
        clk = FakeClock()
        p = CalmR(0.7, peak_bandwidth_gbps=100.0, epoch_ns=100.0, now_fn=clk)
        # Epoch 1: 50 L2 misses, 25 LLC misses over 100 ns.
        for i in range(50):
            p.decide(0, 0)
            p.observe(0, 0, llc_hit=(i % 2 == 0), was_calm=False)
        clk.t = 101.0
        p.decide(0, 0)  # triggers the roll
        assert p.bw_unfiltered == pytest.approx(50 * 64 / 101.0, rel=0.05)
        assert p.bw_filtered == pytest.approx(25 * 64 / 101.0, rel=0.05)

    def test_epoch_spans_the_stats_reset(self):
        """The measurement boundary resets the outcome counters, not the
        epoch: LLC misses observed before the reset still count in it."""
        clk = FakeClock()
        p = CalmR(0.7, peak_bandwidth_gbps=100.0, epoch_ns=100.0, now_fn=clk)
        for i in range(40):
            if i == 30:
                p.reset_stats()
            p.decide(0, 0)
            p.observe(0, 0, llc_hit=(i % 4 == 0), was_calm=False)
        assert p.stats.serial_llc_miss == 8
        clk.t = 100.0
        p.decide(0, 0)  # triggers the roll
        assert p.bw_unfiltered == 40 * 64.0 / 100.0
        assert p.bw_filtered == 30 * 64.0 / 100.0
        clk.t = 200.0
        p.decide(0, 0)
        assert p.bw_filtered == 0.0

    def test_estimates_decay_when_traffic_stops(self):
        clk = FakeClock()
        p = CalmR(0.7, peak_bandwidth_gbps=10.0, epoch_ns=100.0, now_fn=clk)
        for _ in range(200):
            p.decide(0, 0)
            p.observe(0, 0, llc_hit=False, was_calm=False)
        clk.t = 101.0
        p.decide(0, 0)
        assert p.bw_filtered > 7.0  # way above the cap
        # A quiet epoch: only the single decision above, then roll again.
        clk.t = 500.0
        p.decide(0, 0)
        assert p.bw_filtered < 1.0  # estimate reflects the quiet period

    def test_decision_rate_tracks_headroom(self):
        """With filtered BW near zero and unfiltered high, nearly all
        misses should go CALM; with filtered at the cap, none should."""
        clk = FakeClock()
        p = CalmR(0.5, peak_bandwidth_gbps=100.0, epoch_ns=100.0,
                  now_fn=clk, seed=5)
        # Epoch with all LLC hits: unfiltered high, filtered ~0.
        for _ in range(100):
            p.decide(0, 0)
            p.observe(0, 0, llc_hit=True, was_calm=False)
        clk.t = 101.0
        grants = sum(p.decide(0, 0) for _ in range(100))
        assert grants > 60
