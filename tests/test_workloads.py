"""Unit tests for workload generators, the catalog, and mixes."""

import numpy as np
import pytest

from repro.cpu.trace import Trace
from repro.workloads import SUITES, WORKLOADS, get_workload, make_mixes, workload_names
from repro.workloads.generators import (
    _page_scatter, graph_analytics, hot_cold, kmeans_scan, kvs,
    pointer_chase, stream, strided,
)


class TestPageScatter:
    def test_preserves_page_offsets(self):
        rng = np.random.default_rng(1)
        addr = np.array([0x1234, 0x5678], dtype=np.int64)
        out = _page_scatter(addr, rng)
        assert out[0] & 0xFFF == 0x234
        assert out[1] & 0xFFF == 0x678

    def test_bijective_on_frames(self):
        rng = np.random.default_rng(1)
        frames = np.arange(10000, dtype=np.int64) << 12
        out = _page_scatter(frames, rng)
        assert len(np.unique(out >> 12)) == 10000

    def test_same_rng_state_reproducible(self):
        a1 = _page_scatter(np.arange(64, dtype=np.int64) * 4096,
                           np.random.default_rng(9))
        a2 = _page_scatter(np.arange(64, dtype=np.int64) * 4096,
                           np.random.default_rng(9))
        assert np.array_equal(a1, a2)


class TestGenerators:
    @pytest.mark.parametrize("gen,kwargs", [
        (stream, {}),
        (hot_cold, {}),
        (pointer_chase, {}),
        (strided, {}),
        (graph_analytics, {}),
        (kvs, {}),
        (kmeans_scan, {}),
    ])
    def test_produces_valid_trace(self, gen, kwargs):
        t = gen(500, seed=3, **kwargs)
        assert isinstance(t, Trace)
        assert t.n_ops == 500  # constructor validation ran

    def test_stream_write_fraction_copy(self):
        t = stream(1000, 1, n_read_streams=1, has_write_stream=True)
        assert t.write_fraction == pytest.approx(0.5, abs=0.05)

    def test_stream_write_fraction_triad(self):
        t = stream(999, 1, n_read_streams=2, has_write_stream=True)
        assert t.write_fraction == pytest.approx(1 / 3, abs=0.05)

    def test_stream_no_reuse(self):
        t = stream(2000, 1)
        lines = t.arr["addr"] >> 6
        assert len(np.unique(lines)) == 2000

    def test_hot_cold_hot_fraction(self):
        t = hot_cold(4000, 1, hot_lines=64, cold_lines=1 << 20, hot_prob=0.8)
        # Hot lines live in at most 64 + page-boundary distinct lines.
        lines, counts = np.unique(t.arr["addr"] >> 6, return_counts=True)
        hot_hits = counts[counts > 5].sum()
        assert hot_hits / t.n_ops > 0.6

    def test_pointer_chase_dep_structure(self):
        t = pointer_chase(600, 1, chain_len=6, write_frac=0.0)
        deps = t.arr["dep"]
        assert (deps[np.arange(600) % 6 != 0] == 1).all()
        assert (deps[np.arange(600) % 6 == 0] == 0).all()

    def test_graph_alternates_edge_vertex(self):
        t = graph_analytics(1000, 1)
        pcs = t.arr["pc"]
        assert (pcs[0::2] == 0x10000).all()
        assert (pcs[1::2] == 0x10010).all()

    def test_kvs_dependent_levels(self):
        t = kvs(500, 1, levels=5)
        level = np.arange(500) % 5
        assert (t.arr["dep"][level > 0] == 1).all()

    def test_gap_controls_memory_intensity(self):
        t_dense = hot_cold(2000, 1, gap=2.0)
        t_sparse = hot_cold(2000, 1, gap=50.0)
        assert t_sparse.n_instrs > 5 * t_dense.n_instrs

    def test_struct_seed_lockstep_structure(self):
        """Two cores of one workload share gaps but not addresses."""
        a = hot_cold(1000, seed=1, struct_seed=77)
        b = hot_cold(1000, seed=2, struct_seed=77)
        assert np.array_equal(a.arr["gap"], b.arr["gap"])
        assert np.array_equal(a.arr["is_write"], b.arr["is_write"])
        assert not np.array_equal(a.arr["addr"], b.arr["addr"])


class TestCatalog:
    def test_all_catalog_workloads_present(self):
        # 36 paper workloads (Table IV + MIS) + 3 scenario traces.
        assert len(workload_names()) == 39

    def test_suites_cover_paper_table(self):
        assert len(SUITES["SPEC"]) == 12
        assert len(SUITES["LIGRA"]) == 13
        assert len(SUITES["STREAM"]) == 4
        assert len(SUITES["PARSEC"]) == 5
        assert len(SUITES["KVS"]) == 1
        assert len(SUITES["ANALYTICS"]) == 1
        assert len(SUITES["SCENARIO"]) == 3

    def test_unknown_name_helpful_error(self):
        with pytest.raises(KeyError, match="valid"):
            get_workload("nope")

    def test_every_entry_generates(self):
        for name in workload_names():
            t = get_workload(name).generate(200, seed=5)
            assert t.n_ops == 200
            assert t.name == name

    def test_paper_targets_recorded(self):
        # Every Table IV workload carries its paper targets; the SCENARIO
        # traces exist for the tiering/device models and have none.
        for w in WORKLOADS.values():
            if w.suite == "SCENARIO":
                assert w.paper_ipc is None and w.paper_mpki is None
            else:
                assert w.paper_ipc is not None and w.paper_ipc > 0
                assert w.paper_mpki is not None and w.paper_mpki > 0

    def test_generation_deterministic(self):
        t1 = get_workload("mcf").generate(300, seed=4)
        t2 = get_workload("mcf").generate(300, seed=4)
        assert np.array_equal(t1.arr, t2.arr)

    def test_different_cores_different_addresses(self):
        t1 = get_workload("mcf").generate(300, seed=4)
        t2 = get_workload("mcf").generate(300, seed=5)
        assert not np.array_equal(t1.arr["addr"], t2.arr["addr"])


#: A job-service warm sample's length (3x the baseline LLC's lines over 12
#: cores), beside short traces that stop mid-pattern.
SHARED_SIZES = [1, 7, 250, 12288]
SHARED_SEEDS = [1, 503, 1503, 11503]


class TestSharedStructure:
    """``generate_many`` and ``sample`` draw the structure once for all
    seeds; each seed's output is exactly what ``generate`` builds alone."""

    @pytest.mark.parametrize("n", SHARED_SIZES)
    @pytest.mark.parametrize("name", workload_names())
    def test_generate_many_is_per_seed_generate(self, name, n):
        spec = get_workload(name)
        many = spec.generate_many(n, SHARED_SEEDS)
        assert len(many) == len(SHARED_SEEDS)
        for seed, trace in zip(SHARED_SEEDS, many):
            one = spec.generate(n, seed=seed)
            assert trace.name == one.name == name
            assert trace.arr.dtype == one.arr.dtype
            for field in one.arr.dtype.names:
                assert np.array_equal(trace.arr[field], one.arr[field]), field

    @pytest.mark.parametrize("n", SHARED_SIZES)
    @pytest.mark.parametrize("name", workload_names())
    def test_sample_is_the_addr_and_write_columns(self, name, n):
        spec = get_workload(name)
        addrs, is_write = spec.sample(n, SHARED_SEEDS)
        assert len(addrs) == len(SHARED_SEEDS)
        for seed, addr in zip(SHARED_SEEDS, addrs):
            arr = spec.generate(n, seed=seed).arr
            assert addr.dtype == arr["addr"].dtype
            assert is_write.dtype == arr["is_write"].dtype
            assert np.array_equal(addr, arr["addr"])
            assert np.array_equal(is_write, arr["is_write"])


class TestOpCount:
    """An op count below 1 is an error naming the argument; ``None`` is the
    workload's default length."""

    @pytest.mark.parametrize("n", [0, -1])
    def test_entry_points_reject_counts_below_one(self, n):
        spec = get_workload("mcf")
        for call in (lambda: spec.generate(n), lambda: spec.generate_many(n, [1]),
                     lambda: spec.sample(n, [1])):
            with pytest.raises(ValueError, match="n_ops must be >= 1"):
                call()

    def test_none_is_the_default_length(self):
        spec = get_workload("mcf")
        assert spec.generate(None).n_ops == spec.default_ops
        assert spec.generate_many(None, [1, 2])[1].n_ops == spec.default_ops
        assert len(spec.sample(None, [1])[0][0]) == spec.default_ops


class TestMixes:
    def test_mix_count_and_shape(self):
        mixes = make_mixes(n_mixes=3, n_cores=4, ops_per_core=100)
        assert len(mixes) == 3
        for name, traces in mixes:
            assert len(traces) == 4
            assert all(t.n_ops == 100 for t in traces)

    def test_mixes_deterministic(self):
        m1 = make_mixes(2, 4, 100, base_seed=9)
        m2 = make_mixes(2, 4, 100, base_seed=9)
        for (n1, t1), (n2, t2) in zip(m1, m2):
            assert n1 == n2
            for a, b in zip(t1, t2):
                assert np.array_equal(a.arr, b.arr)

    def test_mixes_differ_across_seeds(self):
        m1 = make_mixes(1, 12, 100, base_seed=1)[0][1]
        m2 = make_mixes(1, 12, 100, base_seed=2)[0][1]
        assert any(not np.array_equal(a.arr, b.arr) for a, b in zip(m1, m2))
