"""Tiered-memory policy tests: config, TierManager, and oracle teeth.

Three layers:

* unit/property coverage of :class:`~repro.tiering.manager.TierManager`
  (placement, promotion, epoch rollover, the determinism contract);
* property proof that epoch-with-zero-budget routes identically to
  static placement — the manager-level core of the ``migration_identity``
  metamorphic oracle;
* mutation tests that reintroduce a seeded bug per new oracle
  (device-bypass, leaky migration accounting, swapped hit/miss
  accounting) and require the oracle to catch it. Campaigns that need a
  monkeypatched class run in-process (``workers=1`` pattern, see
  ``test_fuzz_mutation.py``).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cxl.channel import CxlChannel
from repro.cxl.slowmedia import SsdMediaChannel
from repro.exec.spec import TaskSpec
from repro.fuzz.oracles import run_oracle
from repro.request import READ
from repro.tiering.config import TIERING_PRESETS, TieringConfig, get_tiering
from repro.tiering.manager import TierManager


def _mgr(policy="static", **kw) -> TierManager:
    kw.setdefault("local_capacity_pages", 4)
    kw.setdefault("promote_threshold", 2)
    cfg = TieringConfig(policy=policy, **kw)
    return TierManager(cfg, n_local_ports=1, far_ddr_total=4, ddr_per_cxl=2)


def _page_addr(page: int, shift: int = 12) -> int:
    return page << shift


class TestTieringConfig:
    def test_presets_cover_the_cli_spellings(self):
        assert set(TIERING_PRESETS) == {"static", "lru", "epoch", "epoch-frozen"}
        assert TIERING_PRESETS["epoch-frozen"].migrations_per_epoch == 0

    def test_get_tiering_unknown_lists_valid(self):
        with pytest.raises(KeyError, match="static"):
            get_tiering("nope")

    @pytest.mark.parametrize("kw", [
        dict(policy="fifo"), dict(local_channels=0),
        dict(local_capacity_pages=0), dict(page_shift=25),
        dict(epoch_ns=0.0), dict(migrations_per_epoch=-1),
        dict(migration_cost_ns=-1.0), dict(promote_threshold=0),
    ])
    def test_validation_rejects(self, kw):
        with pytest.raises(ValueError):
            TieringConfig(**kw)


class TestTierManagerPlacement:
    def test_first_touch_pins_local_until_full_then_spills(self):
        m = _mgr()
        for p in range(4):
            port, extra = m.route(_page_addr(p), 0.0)
            assert port == 0 and extra == 0.0
        port, extra = m.route(_page_addr(9), 0.0)
        assert port >= 1 and extra == 0.0
        assert m.snapshot()["local_pages"] == 4.0
        assert m.snapshot()["total_pages"] == 5.0

    def test_static_never_migrates(self):
        m = _mgr("static")
        for _ in range(50):
            for p in range(8):
                m.route(_page_addr(p), 0.0)
        snap = m.snapshot()
        assert snap["promotions"] == 0.0 and snap["demotions"] == 0.0
        assert snap["migration_stall_ns"] == 0.0

    def test_lines_interleave_within_the_far_tier(self):
        m = _mgr()
        for p in range(4):
            m.route(_page_addr(p), 0.0)  # fill local
        ports = {m.route(_page_addr(10) + 64 * i, 0.0)[0] for i in range(8)}
        # 4 far DDR channels behind 2 CXL ports -> ports 1 and 2.
        assert ports == {1, 2}

    def test_lru_promotes_at_threshold_charging_the_trigger(self):
        m = _mgr("lru")
        for p in range(4):
            m.route(_page_addr(p), 0.0)
        far = _page_addr(9)
        _, extra0 = m.route(far, 0.0)
        assert extra0 == 0.0  # first far touch: below threshold
        _, extra1 = m.route(far, 0.0)
        assert extra1 == m.cfg.migration_cost_ns  # promotion trigger pays
        port2, extra2 = m.route(far, 0.0)
        assert port2 == 0 and extra2 == 0.0  # now local, free
        snap = m.snapshot()
        assert snap["promotions"] == 1.0 and snap["demotions"] == 1.0
        assert snap["migration_stall_ns"] == m.cfg.migration_cost_ns

    def test_lru_demotes_the_least_recently_used_page(self):
        m = _mgr("lru")
        for p in range(4):
            m.route(_page_addr(p), 0.0)
        m.route(_page_addr(0), 0.0)  # refresh page 0: page 1 is now LRU
        far = _page_addr(9)
        m.route(far, 0.0)
        m.route(far, 0.0)  # promotion demotes page 1
        assert m.placement[1] is False
        assert m.placement[0] is True and m.placement[9] is True

    def test_epoch_rollover_swaps_hot_far_with_cold_local(self):
        m = _mgr("epoch", epoch_ns=1000.0, migrations_per_epoch=2,
                 migration_cost_ns=100.0)
        for p in range(4):
            m.route(_page_addr(p), 0.0)
        hot = _page_addr(9)
        for _ in range(4):
            m.route(hot, 10.0)  # hot far page, never-touched locals are cold
        port, extra = m.route(hot, 1001.0)  # first request after the boundary
        assert port == 0  # promoted at the epoch boundary
        # The migrated copy is usable migration_cost_ns after the boundary;
        # a request racing it waits out the remainder.
        assert extra == pytest.approx(1000.0 + 100.0 - 1001.0)
        snap = m.snapshot()
        assert snap["promotions"] == 1.0 and snap["demotions"] == 1.0

    def test_idle_epochs_collapse_lazily(self):
        m = _mgr("epoch", epoch_ns=100.0, migrations_per_epoch=4)
        m.route(_page_addr(0), 0.0)
        m.route(_page_addr(0), 12_345.0)  # 123 silent epochs later
        assert m.cur_epoch == 123
        assert m.snapshot()["promotions"] == 0.0

    def test_reset_stats_keeps_placement(self):
        m = _mgr("lru")
        for p in range(6):
            m.route(_page_addr(p), 0.0)
        placement = dict(m.placement)
        m.reset_stats()
        assert m.placement == placement
        snap = m.snapshot()
        assert snap["local_serves"] == 0.0 and snap["far_serves"] == 0.0
        assert snap["total_pages"] == 6.0

    def test_snapshot_key_set_is_policy_independent(self):
        # The migration-identity oracle diffs results bit-for-bit, so no
        # policy may leak private keys into the snapshot.
        keysets = set()
        for policy in ("static", "lru", "epoch"):
            m = _mgr(policy)
            for p in range(8):
                m.route(_page_addr(p), float(p))
            keysets.add(frozenset(m.snapshot()))
        assert len(keysets) == 1


class TestManagerMigrationIdentity:
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=40),
                              st.floats(min_value=0.0, max_value=50_000.0,
                                        allow_nan=False)),
                    min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_zero_budget_epoch_routes_like_static(self, touches):
        # The manager-level core of the migration_identity oracle: with a
        # zero swap budget the epoch machinery (rollovers included) must
        # route every request exactly like static first-touch pinning.
        frozen = TierManager(
            TieringConfig(policy="epoch", migrations_per_epoch=0,
                          local_capacity_pages=4, epoch_ns=500.0),
            n_local_ports=1, far_ddr_total=4, ddr_per_cxl=2)
        static = TierManager(
            TieringConfig(policy="static", local_capacity_pages=4),
            n_local_ports=1, far_ddr_total=4, ddr_per_cxl=2)
        times = sorted(t for _, t in touches)
        for (page, _), now in zip(touches, times):
            assert frozen.route(_page_addr(page), now) == \
                static.route(_page_addr(page), now)
        assert frozen.snapshot() == static.snapshot()

    @given(st.sampled_from(["static", "lru", "epoch"]),
           st.lists(st.integers(min_value=0, max_value=60),
                    min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_routing_is_deterministic(self, policy, pages):
        # Same touch sequence -> same decisions, fresh-instance replay.
        def run():
            m = _mgr(policy, epoch_ns=700.0)
            out = [m.route(_page_addr(p), 13.0 * i)
                   for i, p in enumerate(pages)]
            return out, m.snapshot()
        assert run() == run()


# ---------------------------------------------------------------------------
# Mutation tests: each new oracle must catch its seeded bug.
# ---------------------------------------------------------------------------

#: Fails under the device-bypass bug: a 2-channel twin the streaming far
#: tier must not beat (the fixed 128-page local tier is a small fraction
#: of the footprint at 1200 ops, so the far path dominates the mean).
BOUND_CASE = TaskSpec(base="coaxial-4x",
                      overrides={"tiering": "static", "n_mem_ports": 1,
                                 "ddr_per_cxl": 1},
                      workload="stream-copy", ops=1200, seed=1)

#: The epoch preset rolls dozens of 4 us epochs at this trace length, so
#: the frozen twin exercises the rollover path the leaky bug corrupts.
MIGRATION_CASE = TaskSpec(base="coaxial-4x", overrides={"tiering": "epoch"},
                          workload="masstree", ops=600, seed=1)

#: Capacity churn against the scaled-down cxl-ssd hierarchy reaches the
#: device with hundreds of cache hits and thousands of media misses.
SSD_CASE = TaskSpec(base="cxl-ssd", workload="capacity-churn", ops=1200,
                    seed=1)


def _bypass_submit(self, req):
    # Seeded bug: the channel "delivers" without ever visiting the Type-3
    # device — no DDR access, no link serialization, no premium.
    key = "reads" if req.kind == READ else "writes"
    self.stats[key] = self.stats.get(key, 0.0) + 1.0
    self.sim.schedule_at(self.sim.now, self._deliver, req)


@pytest.mark.slow
class TestMutationTieringBound:
    def test_clean_tree_passes(self):
        assert run_oracle("tiering_bound", BOUND_CASE) is None

    def test_oracle_catches_device_bypass(self, monkeypatch):
        monkeypatch.setattr(CxlChannel, "submit", _bypass_submit)
        detail = run_oracle("tiering_bound", BOUND_CASE)
        assert detail is not None
        assert "beats all-local-DRAM twin" in detail


@pytest.mark.slow
class TestMutationMigrationIdentity:
    def test_clean_tree_passes(self):
        assert run_oracle("migration_identity", MIGRATION_CASE) is None

    def test_oracle_catches_leaky_accounting(self, monkeypatch):
        # Seeded bug: every epoch rollover counts a promotion even with a
        # zero swap budget — the migration-accounting drift the oracle
        # exists to catch.
        orig = TierManager._roll_epoch

        def leaky_roll(self, ep):
            orig(self, ep)
            self.stats["promotions"] += 1.0

        monkeypatch.setattr(TierManager, "_roll_epoch", leaky_roll)
        detail = run_oracle("migration_identity", MIGRATION_CASE)
        assert detail is not None
        assert "diverged" in detail


@pytest.mark.slow
class TestMutationSsdHitPath:
    def test_clean_tree_passes(self):
        assert run_oracle("ssd_hit_path", SSD_CASE) is None

    def test_oracle_catches_swapped_accounting(self, monkeypatch):
        # Seeded bug: hit/miss service accounting inverted at completion.
        orig = SsdMediaChannel._complete_read

        def swapped(self, req, hit, t_arrive):
            orig(self, req, not hit, t_arrive)

        monkeypatch.setattr(SsdMediaChannel, "_complete_read", swapped)
        detail = run_oracle("ssd_hit_path", SSD_CASE)
        assert detail is not None
        assert "hit path slower than miss path" in detail
