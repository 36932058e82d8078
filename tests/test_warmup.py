"""Set-parallel LRU functional warmup vs the generic scalar replay.

``_replay_lru_sets`` replays phase 0 one cache level at a time in numpy
(:mod:`repro.cache.warmup`); ``_replay_functional`` replays one access at a
time through the cache arrays, for any replacement policy. The contract is
exact: on an LRU chip every set of every L1, L2 and LLC slice holds the
same ``(tag, dirty)`` items in the same insertion (LRU) order, with Python
``int`` tags and ``bool`` dirty bits. ``_replay_functional_lru``, phase 0's
entry point, picks between the two from the chip's policy and the
busiest-set share of each level's stream. One level's pass, ``lru_pass``,
is also checked on its own against a dict-per-set reference, every
per-event output included.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cache.cache import CacheArray
from repro.cache.warmup import lru_pass
from repro.engine.kernel import Simulator
from repro.fuzz.oracles import cache_state
from repro.system import sim
from repro.system.builder import Chip
from repro.system.config import ALL_CONFIGS, SystemConfig
from repro.workloads import get_workload

#: The scalar reference, bound before any test monkeypatches the module.
_scalar = sim._replay_functional


def columns(lines, writes=None):
    """A stream's ``(addr, is_write)`` columns for line numbers ``lines``."""
    addr = np.asarray(lines, np.uint64) << np.uint64(6)
    is_write = np.zeros(len(addr), np.uint8)
    if writes is not None:
        is_write[:] = writes
    return addr, is_write


def phase0(cfg: SystemConfig, workload, ops: int, seed: int = 1):
    """The streams ``simulate()`` replays in phase 0, for a fresh chip."""
    traces, _, spec = sim._workload_traces(cfg, workload, ops, seed)
    warm = [t.split(int(len(t) * sim.WARMUP_FRAC))[0] for t in traces]
    return sim._warmup_streams(Chip(Simulator(), cfg), spec, traces, warm,
                               seed)


def scalar(cfg: SystemConfig, streams) -> Chip:
    chip = Chip(Simulator(), cfg)
    _scalar(chip, streams)
    return chip


def assert_exact(cfg: SystemConfig, streams) -> Chip:
    chip = Chip(Simulator(), cfg)
    assert sim._replay_lru_sets(chip, streams)
    assert cache_state(chip) == cache_state(scalar(cfg, streams))
    return chip


class TestNamedConfigs:
    @pytest.mark.parametrize("workload", ["stream-copy", "lbm", "mcf",
                                          "canneal"])
    @pytest.mark.parametrize("config", sorted(ALL_CONFIGS))
    def test_matches_scalar(self, config, workload):
        cfg = ALL_CONFIGS[config]()
        chip = assert_exact(cfg, phase0(cfg, get_workload(workload), 200))
        # The streams really fill every level and leave dirty lines.
        state = cache_state(chip).values()
        assert all(any(sets) for sets in state)
        assert any(v for sets in state for s in sets for _, _, v, _ in s)

    def test_inactive_cores_stay_cold(self):
        cfg = replace(ALL_CONFIGS["ddr-baseline"](), active_cores=5)
        streams = phase0(cfg, get_workload("mcf"), 200)
        assert {c for c, _, _ in streams} == set(range(5))
        chip = assert_exact(cfg, streams)
        for core in chip.cores[5:]:
            assert core.l1.array.occupancy() == core.l2.array.occupancy() == 0

    def test_catalog_streams_are_generated_columns(self):
        # Each core's sample is the addr/is_write columns of the trace the
        # sample's seed generates alone, and each prefix is the columns of
        # the core's timed-warmup prefix, three times.
        cfg = ALL_CONFIGS["ddr-baseline"]()
        spec = get_workload("canneal")
        n = cfg.active_cores
        streams = phase0(cfg, spec, 200, seed=4)
        assert len(streams) == 4 * n
        n_warm = len(streams[0][1])
        assert n_warm == 3 * 48 * 1024 // n
        for c, addr, is_write in streams[:n]:
            arr = spec.generate(n_warm, seed=4 + 1000 * c + 503).arr
            assert addr.dtype == np.uint64 and is_write.dtype == np.uint8
            assert np.array_equal(addr, arr["addr"])
            assert np.array_equal(is_write, arr["is_write"])
        for i, (c, addr, is_write) in enumerate(streams[n:]):
            assert c == i // 3
            arr = spec.generate(200, seed=4 + 1000 * c).arr[:50]
            assert np.array_equal(addr, arr["addr"])
            assert np.array_equal(is_write, arr["is_write"])

    def test_explicit_trace_list_uses_ghost_samples(self):
        cfg = ALL_CONFIGS["coaxial-4x"]()
        names = itertools.cycle(["mcf", "lbm", "stream-copy", "canneal"])
        mix = [get_workload(next(names)).generate(400, seed=c)
               for c in range(cfg.active_cores)]
        traces, name, spec = sim._workload_traces(cfg, mix, None, 1)
        assert (name, spec) == ("mix", None)
        warm = [t.split(100)[0] for t in traces]
        streams = sim._warmup_streams(Chip(Simulator(), cfg), spec, traces,
                                      warm, 1)
        # Core 0's sample is its own trace, repeated, with address bit 41
        # flipped: the same structure on disjoint lines.
        _, addr, is_write = streams[0]
        arr = traces[0].arr
        reps = len(addr) // len(arr)
        assert reps > 1 and len(addr) == reps * len(arr)
        assert np.array_equal(addr, np.tile(arr["addr"] ^ np.uint64(1 << 41),
                                            reps))
        assert np.array_equal(is_write, np.tile(arr["is_write"], reps))
        assert_exact(cfg, streams)

    def test_empty_prefix(self):
        # ops_per_core=2 leaves no timed-warmup prefix to replay.
        cfg = ALL_CONFIGS["cxl-ssd"]()
        streams = phase0(cfg, get_workload("lbm"), 2)
        assert all(len(a) == 0 for _, a, _ in streams[cfg.active_cores:])
        assert_exact(cfg, streams)


@st.composite
def small_chips(draw):
    """A small random geometry plus streams over a narrow line range, so
    hits, conflicts and dirty L1->L2 and L2->LLC victims are common."""
    n_cores = draw(st.integers(1, 3))
    rows = draw(st.integers(1, 2))
    cols = draw(st.integers(-(-n_cores // rows), 3))
    cfg = SystemConfig(
        n_cores=n_cores, mesh_rows=rows, mesh_cols=cols,
        l1_kb=1, l1_ways=draw(st.sampled_from([1, 2, 4, 8])),
        l2_kb=draw(st.sampled_from([1, 2])),
        l2_ways=draw(st.sampled_from([1, 2, 4, 8])),
        llc_kb_per_core=draw(st.sampled_from([1, 2])),
        llc_ways=draw(st.sampled_from([1, 2, 4, 8])))
    base = draw(st.sampled_from([0, 1 << 30, 1 << 57]))
    span = draw(st.integers(1, 96))
    streams = []
    for _ in range(draw(st.integers(0, 6))):
        n = draw(st.integers(0, 60))
        lines = draw(st.lists(st.integers(0, span - 1), min_size=n,
                              max_size=n))
        writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        addr, is_write = columns([base + x for x in lines], writes)
        core = draw(st.integers(0, n_cores - 1))
        streams.extend([(core, addr, is_write)] * draw(st.integers(1, 3)))
    return cfg, streams


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_chips())
def test_random_geometry_matches_scalar(case):
    assert_exact(*case)


def dict_pass(sets, lines, writes, n_sets, ways, set_dirty=None):
    """``lru_pass`` one event at a time: a dict per set, least recent first."""
    state = [{} for _ in range(n_sets)]
    marks = [False] * len(sets) if set_dirty is None else set_dirty.tolist()
    events = []
    for s, x, w, mark in zip(sets.tolist(), lines.tolist(), writes.tolist(),
                             marks):
        d = state[s]
        if x in d:
            events.append((True, x, d[x]))
            d[x] = True if mark else (d.pop(x) or w)
            continue
        v = next(iter(d)) if len(d) >= ways else -1
        events.append((False, v, d.get(v, False)))
        if not mark:
            d.pop(v, None)
            d[x] = w
    hit, victim, vdirty = zip(*events) if events else ((), (), ())
    rows = [item for d in state for item in d.items()]
    return dict(hit=np.array(hit, bool), victim=np.array(victim, np.int64),
                victim_dirty=np.array(vdirty, bool),
                counts=np.array([len(d) for d in state], np.intp),
                lines=np.array([x for x, _ in rows], np.int64),
                dirty=np.array([v for _, v in rows], bool))


@st.composite
def level_streams(draw):
    """One level's events: uneven set loads, idle sets, tags in a narrow
    range (hits and evictions), and set_dirty marks on present and absent
    lines."""
    n_sets = draw(st.integers(1, 8))
    ways = draw(st.integers(1, 16))
    base = draw(st.sampled_from([0, 1 << 30, 1 << 57]))
    # A few busy sets, so the busiest-first labels really permute them.
    busy = draw(st.lists(st.integers(0, n_sets - 1), min_size=1, max_size=3))
    n = draw(st.integers(0, 120))
    sets = draw(st.lists(st.sampled_from(busy) | st.integers(0, n_sets - 1),
                         min_size=n, max_size=n))
    tags = draw(st.lists(st.integers(0, ways + 2), min_size=n, max_size=n))
    writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    marks = draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n))
    sets = np.array(sets, np.int32)
    lines = base + np.array(tags, np.int64) * n_sets + sets
    return (sets, lines, np.array(writes, bool), n_sets, ways,
            None if marks is None else np.array(marks, bool))


@settings(max_examples=300, deadline=None)
@given(level_streams())
def test_lru_pass_matches_dict_reference(case):
    sets, lines, writes, n_sets, ways, marks = case
    set_events = np.bincount(sets, minlength=n_sets)
    got = lru_pass(sets, lines, writes, set_events, ways, set_dirty=marks)
    for name, want in dict_pass(*case).items():
        have = getattr(got, name)
        assert have.dtype == want.dtype, name
        assert np.array_equal(have, want), name


def one_set_stride(cores: int):
    """Each core's 3,000 accesses all land in its own L1 set 0."""
    cfg = ALL_CONFIGS["ddr-baseline"]()
    l1_sets = cfg.l1_kb * 1024 // (cfg.l1_ways * 64)
    return cfg, [(c, *columns(np.arange(3000) * l1_sets + (c << 24),
                              np.arange(3000) % 3 == 0))
                 for c in range(cores)]


def refuse(*args):
    raise AssertionError("scalar fallback taken")


class TestPathSelection:
    def test_one_set_stride_takes_scalar_path(self, monkeypatch):
        # One core's accesses all in one L1 set: one array step per access,
        # so the set-parallel pass would be far slower.
        cfg, streams = one_set_stride(1)
        chip = Chip(Simulator(), cfg)
        assert not sim._replay_lru_sets(chip, streams, sim.MAX_SET_SHARE)
        assert not any(any(sets) for sets in cache_state(chip).values())
        calls = []
        monkeypatch.setattr(sim, "_replay_functional",
                            lambda *a: calls.append(a) or _scalar(*a))
        sim._replay_functional_lru(chip, streams)
        assert len(calls) == 1
        assert cache_state(chip) == cache_state(scalar(cfg, streams))

    def test_wide_one_set_stride_takes_set_parallel_path(self, monkeypatch):
        # The same stride on every core of a 12-core chip: each step now
        # advances twelve sets, and the busiest holds 1/12 of the events.
        cfg, streams = one_set_stride(12)
        monkeypatch.setattr(sim, "_replay_functional", refuse)
        chip = Chip(Simulator(), cfg)
        sim._replay_functional_lru(chip, streams)
        assert cache_state(chip) == cache_state(scalar(cfg, streams))

    def test_benchmark_stream_takes_set_parallel_path(self, monkeypatch):
        cfg = ALL_CONFIGS["ddr-baseline"]()
        streams = phase0(cfg, get_workload("mcf"), 100)
        monkeypatch.setattr(sim, "_replay_functional", refuse)
        chip = Chip(Simulator(), cfg)
        sim._replay_functional_lru(chip, streams)
        assert cache_state(chip) == cache_state(scalar(cfg, streams))

    def test_warm_caches_take_scalar_path(self):
        # The set-parallel pass replays from empty caches only.
        cfg = ALL_CONFIGS["cxl-ssd"]()
        streams = phase0(cfg, get_workload("mcf"), 200)
        chip = Chip(Simulator(), cfg)
        sim._replay_functional_lru(chip, streams)
        assert not sim._replay_lru_sets(chip, streams)
        sim._replay_functional_lru(chip, streams)
        assert cache_state(chip) == cache_state(scalar(cfg, streams + streams))

    @pytest.mark.parametrize("policy", ["random", "srrip"])
    def test_non_lru_chip_takes_scalar_path(self, policy):
        # The set-parallel pass knows only LRU, so it refuses the chip
        # untouched and phase 0 is the generic replay.
        cfg = replace(ALL_CONFIGS["cxl-ssd"](), replacement=policy)
        streams = phase0(cfg, get_workload("mcf"), 200)
        chip = Chip(Simulator(), cfg)
        assert not sim._replay_lru_sets(chip, streams)
        assert not any(any(sets) for sets in cache_state(chip).values())
        sim._replay_functional_lru(chip, streams)
        state = cache_state(chip)
        assert all(any(sets) for sets in state.values())
        assert state == cache_state(scalar(cfg, streams))


class TestLoadLru:
    def test_rows_set_recency_order(self):
        arr = CacheArray(2, 2)
        arr.load_lru([2, 1], [7, 3, 9], [False, True, True])
        assert [list(s.items()) for s in arr._sets] == [
            [(7, False), (3, True)], [(9, True)]]
        # Tag 7 is least recent, so it is the victim; set 1 has room.
        assert arr.fill(((5 << 1) | 0) << 6) == (((7 << 1) | 0) << 6, False)
        assert arr.fill(((5 << 1) | 1) << 6) is None

    def test_replaces_previous_contents(self):
        arr = CacheArray(2, 2)
        arr.fill(0)
        arr.load_lru([0, 1], [4], [False])
        assert [list(s.items()) for s in arr._sets] == [[], [(4, False)]]
