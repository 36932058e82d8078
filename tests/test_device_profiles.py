"""Property tests for the per-device CXL latency profiles.

The sampler's determinism is what keeps profiled configs inside the
kernel bit-identity contract, so it is pinned by property tests
rather than examples: same (seed, profile) must mean the same draw
sequence forever, quantiles must be monotone in the quantile argument,
and draw streams recorded into the obs StreamingHistogram must merge
exactly (the property the obs collector's shard-merge relies on).
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cxl.profiles import (
    DEMYSTIFY_B, PROFILES, DeviceProfile, LatencySampler, get_profile,
    splitmix64_stream,
)
from repro.obs.metrics import StreamingHistogram

profile_names = st.sampled_from(sorted(PROFILES))
seeds = st.integers(min_value=0, max_value=(1 << 64) - 1)
quantiles = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestSplitmix64Stream:
    @given(seeds, st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_draws_are_unit_interval(self, seed, index):
        u = splitmix64_stream(seed, index)
        assert 0.0 <= u < 1.0

    @given(seeds, st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_counter_based_purity(self, seed, index):
        # Draw i is a pure function of (seed, i): no hidden state.
        assert splitmix64_stream(seed, index) == splitmix64_stream(seed, index)

    def test_streams_differ_across_seeds(self):
        a = [splitmix64_stream(1, i) for i in range(32)]
        b = [splitmix64_stream(2, i) for i in range(32)]
        assert a != b


class TestProfileQuantiles:
    @given(profile_names, quantiles, quantiles)
    @settings(max_examples=100, deadline=None)
    def test_read_quantile_monotone(self, name, u0, u1):
        p = get_profile(name)
        lo, hi = sorted((u0, u1))
        assert p.read_quantile(lo) <= p.read_quantile(hi)

    @given(profile_names, quantiles, quantiles)
    @settings(max_examples=100, deadline=None)
    def test_write_quantile_monotone(self, name, u0, u1):
        p = get_profile(name)
        lo, hi = sorted((u0, u1))
        assert p.write_quantile(lo) <= p.write_quantile(hi)

    @given(profile_names)
    @settings(max_examples=20, deadline=None)
    def test_quantile_endpoints_hit_knots(self, name):
        p = get_profile(name)
        assert p.read_quantile(0.0) == p.read_knots[0][1]
        assert p.read_quantile(1.0) == p.read_knots[-1][1]

    @given(profile_names, quantiles)
    @settings(max_examples=100, deadline=None)
    def test_quantile_within_knot_range(self, name, u):
        p = get_profile(name)
        assert p.read_knots[0][1] <= p.read_quantile(u) <= p.read_knots[-1][1]

    @given(profile_names)
    @settings(max_examples=20, deadline=None)
    def test_mean_between_min_and_max(self, name):
        p = get_profile(name)
        assert p.min_read_extra_ns() <= p.mean_read_extra_ns() <= p.read_knots[-1][1]

    def test_validation_rejects_bad_knots(self):
        with pytest.raises(ValueError):
            DeviceProfile(name="x", read_knots=((0.0, 1.0),))
        with pytest.raises(ValueError):
            DeviceProfile(name="x", read_knots=((0.1, 0.0), (1.0, 5.0)))
        with pytest.raises(ValueError):
            DeviceProfile(name="x", read_knots=((0.0, 5.0), (1.0, 1.0)))
        with pytest.raises(ValueError):
            DeviceProfile(name="x", read_knots=((0.0, -1.0), (1.0, 5.0)))

    def test_get_profile_unknown_lists_valid(self):
        with pytest.raises(KeyError, match="fixed"):
            get_profile("nope")


class TestSamplerDeterminism:
    @given(profile_names, seeds, st.lists(st.booleans(), max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_same_seed_same_sequence(self, name, seed, kinds):
        # Two independently constructed samplers replay identical streams
        # for any interleaving of read and write draws.
        p = get_profile(name)
        a, b = LatencySampler(p, seed), LatencySampler(p, seed)
        for is_read in kinds:
            if is_read:
                assert a.sample_read() == b.sample_read()
            else:
                assert a.sample_write() == b.sample_write()
        assert a.draws == b.draws == len(kinds)

    @given(profile_names, seeds, st.integers(min_value=1, max_value=50))
    @settings(max_examples=40, deadline=None)
    def test_reset_restarts_the_stream(self, name, seed, n):
        s = LatencySampler(get_profile(name), seed)
        first = [s.sample_read() for _ in range(n)]
        s.reset()
        assert [s.sample_read() for _ in range(n)] == first

    @given(profile_names, seeds, st.integers(min_value=0, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_draws_bounded_by_profile_range(self, name, seed, n):
        p = get_profile(name)
        s = LatencySampler(p, seed)
        for _ in range(n):
            v = s.sample_read()
            assert p.read_knots[0][1] <= v <= p.read_knots[-1][1]


class TestHistogramMergeEquality:
    @given(seeds,
           st.integers(min_value=0, max_value=400),
           st.integers(min_value=0, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_split_streams_merge_exactly(self, seed, n_left, n_right):
        # Recording one sampled stream into a single histogram must equal
        # recording any prefix/suffix split into two and merging — the
        # exact-merge contract the obs shard fold depends on.
        s = LatencySampler(DEMYSTIFY_B, seed)
        values = [s.sample_read() for _ in range(n_left + n_right)]
        whole = StreamingHistogram()
        whole.record_many(values)
        left, right = StreamingHistogram(), StreamingHistogram()
        left.record_many(values[:n_left])
        right.record_many(values[n_left:])
        left.merge(right)
        assert left.buckets == whole.buckets
        assert left.count == whole.count
        assert left.zero_count == whole.zero_count
        assert left.min == whole.min and left.max == whole.max
        assert math.isclose(left.total, whole.total, rel_tol=1e-12, abs_tol=1e-9)

    @given(seeds, st.integers(min_value=1, max_value=300),
           st.floats(min_value=0.01, max_value=0.99, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_histogram_quantile_tracks_profile(self, seed, n, q):
        # The recorded quantile must sit inside the profile's value range
        # (log-bucket relative error is 1%, the range endpoints are wide).
        s = LatencySampler(DEMYSTIFY_B, seed)
        h = StreamingHistogram()
        h.record_many(s.sample_read() for _ in range(n))
        v = h.quantile(q)
        lo = DEMYSTIFY_B.read_knots[0][1]
        hi = DEMYSTIFY_B.read_knots[-1][1]
        assert lo * 0.98 <= v <= hi * 1.02
