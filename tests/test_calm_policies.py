"""Unit tests for CALM policies and telemetry."""

import dataclasses

import pytest

from repro.calm import (
    AlwaysCalm, CalmR, IdealPredictor, MapIPredictor, NeverCalm,
    make_calm_policy,
)
from repro.calm.policy import MapICalm


class TestFactory:
    def test_specs(self):
        assert isinstance(make_calm_policy("never"), NeverCalm)
        assert isinstance(make_calm_policy("always"), AlwaysCalm)
        assert isinstance(make_calm_policy("mapi"), MapICalm)
        assert isinstance(make_calm_policy("ideal"), IdealPredictor)
        p = make_calm_policy("calm_70")
        assert isinstance(p, CalmR)
        assert p.r_fraction == pytest.approx(0.7)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_calm_policy("turbo")


class TestBounds:
    def test_never(self):
        p = NeverCalm()
        assert not p.decide(0x40, 0x1000)

    def test_always(self):
        p = AlwaysCalm()
        assert p.decide(0x40, 0x1000)


class TestCalmR:
    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            CalmR(r_fraction=0.0)

    def test_calm_allowed_with_headroom(self):
        clock = [0.0]
        p = CalmR(0.7, peak_bandwidth_gbps=100.0, now_fn=lambda: clock[0])
        # No estimate yet: full headroom, always CALM.
        assert p.decide(0x40, 0)

    def test_suppressed_when_filtered_bw_exceeds_cap(self):
        clock = [0.0]
        p = CalmR(0.5, peak_bandwidth_gbps=10.0, epoch_ns=100.0,
                  now_fn=lambda: clock[0])
        # Epoch 1: 100 L2 misses all missing LLC in 100 ns = 64 GB/s >> cap.
        for _ in range(100):
            p.decide(0, 0)
            p.observe(0, 0, llc_hit=False, was_calm=False)
        clock[0] = 101.0
        p.decide(0, 0)  # rolls the epoch; estimates now huge
        assert p.bw_filtered > 0.5 * 10.0
        calms = sum(p.decide(0, 0) for _ in range(50))
        assert calms == 0

    def test_probabilistic_between_bounds(self):
        clock = [0.0]
        p = CalmR(0.7, peak_bandwidth_gbps=1000.0, epoch_ns=100.0,
                  now_fn=lambda: clock[0], seed=11)
        # Moderate load: filtered ~ 320 GB/s of 700 cap, unfiltered ~ 640.
        for i in range(1000):
            p.decide(0, 0)
            p.observe(0, 0, llc_hit=(i % 2 == 0), was_calm=False)
        clock[0] = 101.0
        decisions = [p.decide(0, 0) for _ in range(400)]
        frac = sum(decisions) / len(decisions)
        assert 0.2 < frac < 1.0

    def test_name_embeds_percentage(self):
        assert CalmR(0.6).name == "calm_60"


class TestMapI:
    def test_predictor_learns_missing_pc(self):
        m = MapIPredictor()
        pc = 0x1234
        for _ in range(8):
            m.train(pc, was_miss=True)
        assert m.predict_miss(pc)

    def test_predictor_learns_hitting_pc(self):
        m = MapIPredictor()
        pc = 0x1234
        for _ in range(8):
            m.train(pc, was_miss=False)
        assert not m.predict_miss(pc)

    def test_counters_saturate(self):
        m = MapIPredictor(counter_bits=2)
        for _ in range(100):
            m.train(0, True)
        assert m.table[m._index(0)] == 3

    def test_accuracy_tracking(self):
        m = MapIPredictor()
        for _ in range(4):
            m.train(0, True)
        m.predict_miss(0)
        m.train(0, True)
        assert m.accuracy > 0

    def test_policy_trains_through_observe(self):
        p = MapICalm()
        pc = 0x777
        for _ in range(8):
            p.observe(pc, 0, llc_hit=True, was_calm=False)
        assert not p.decide(pc, 0)


class TestIdeal:
    def test_requires_probe(self):
        p = IdealPredictor()
        with pytest.raises(RuntimeError):
            p.decide(0, 0)

    def test_oracle_follows_llc_state(self):
        present = {0x1000}
        p = IdealPredictor(probe_fn=lambda a: a in present)
        assert not p.decide(0, 0x1000)   # present -> no CALM
        assert p.decide(0, 0x2000)       # absent -> CALM


class TestCalmStats:
    """Outcomes are counted by ``observe``, the same for every policy."""

    def test_classification(self):
        p = NeverCalm()
        p.observe(0, 0, llc_hit=True, was_calm=True)    # false positive
        p.observe(0, 0, llc_hit=False, was_calm=True)   # true positive
        p.observe(0, 0, llc_hit=True, was_calm=False)   # true negative
        p.observe(0, 0, llc_hit=False, was_calm=False)  # false negative
        s = p.stats
        assert s.calm_llc_hit == 1
        assert s.calm_llc_miss == 1
        assert s.serial_llc_hit == 1
        assert s.serial_llc_miss == 1
        assert s.total == 4

    def test_rates(self):
        p = AlwaysCalm()
        for _ in range(3):
            p.observe(0, 0, llc_hit=False, was_calm=True)
        p.observe(0, 0, llc_hit=True, was_calm=True)
        p.observe(0, 0, llc_hit=False, was_calm=False)
        s = p.stats
        # fp rate: 1 wasted fetch / (4 misses + 1 wasted) accesses
        assert s.false_positive_rate == pytest.approx(1 / 5)
        assert s.false_negative_rate == pytest.approx(1 / 4)

    def test_reset(self):
        p = NeverCalm()
        p.observe(0, 0, llc_hit=True, was_calm=True)
        p.reset_stats()
        assert p.stats.total == 0

    @pytest.mark.parametrize("make", [NeverCalm, AlwaysCalm, MapICalm,
                                      IdealPredictor,
                                      lambda: CalmR(0.7, now_fn=lambda: 0.0)])
    def test_every_policy_counts_alike(self, make):
        p = make()
        for hit, calm in ((True, True), (False, True), (False, True),
                          (True, False), (False, False)):
            p.observe(0x40, 0, llc_hit=hit, was_calm=calm)
        assert dataclasses.astuple(p.stats) == (1, 2, 1, 1)


class TestCalmRClockWiring:
    """An unwired CalmR must fail loudly, not degenerate (satellite fix)."""

    def test_decide_without_clock_raises(self):
        p = CalmR(0.7)
        with pytest.raises(RuntimeError, match="now_fn"):
            p.decide(0x40, 0)

    def test_factory_spec_without_clock_raises_on_decide(self):
        p = make_calm_policy("calm_70")
        with pytest.raises(RuntimeError, match="now_fn"):
            p.decide(0x40, 0)

    def test_factory_wires_clock(self):
        clock = [0.0]
        p = make_calm_policy("calm_70", peak_bandwidth_gbps=100.0,
                             now_fn=lambda: clock[0])
        assert p.decide(0x40, 0) in (True, False)

    def test_construction_without_clock_is_fine(self):
        # Building an unwired policy (e.g. just to read its name) is legal;
        # only decide() needs the clock.
        assert CalmR(0.6).name == "calm_60"
