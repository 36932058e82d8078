"""Perf-gate math and the committed-baseline write protection."""

import json

import pytest

from repro.exec.perf import (
    BaselineProtectedError, is_committed_baseline, write_bench,
)
from repro.parity import (
    GoldenError, bless_bench, compare_bench, load_bench_baseline,
    load_bench_record,
)
from repro.parity.bench import bench_baseline_payload, record_events_per_s


def sweep_record(eps=50_000.0, events=400_000):
    """A minimal BENCH_sweep.json-shaped record."""
    return {
        "schema": 1, "version": "1.0.0", "workers": 2, "total_wall_s": 5.0,
        "jobs": [{"config": "ddr-baseline", "workload": "mcf", "ops": 800,
                  "seed": 1, "events": events, "cached": False}],
        "summary": {"n_jobs": 1, "n_cached": 0, "n_failed": 0,
                    "sim_wall_s": 4.0, "total_events": events,
                    "events_per_s": eps},
    }


class TestCompareBench:
    def _verdict(self, fresh_eps, base_eps=50_000.0, **kw):
        base = bench_baseline_payload(sweep_record(eps=base_eps))
        return compare_bench(sweep_record(eps=fresh_eps), base, **kw)

    def test_equal_throughput_passes(self):
        v = self._verdict(50_000.0)
        assert v.status == "pass"
        assert v.slowdown == pytest.approx(0.0)

    def test_small_slowdown_passes(self):
        assert self._verdict(42_000.0).status == "pass"      # 16% slower

    def test_warn_band(self):
        v = self._verdict(37_500.0)                          # 25% slower
        assert v.status == "warn"
        assert 0.20 < v.slowdown < 0.35

    def test_fail_band(self):
        v = self._verdict(30_000.0)                          # 40% slower
        assert v.status == "fail"
        assert "FAIL" in v.summary()

    def test_speedup_never_fails(self):
        v = self._verdict(200_000.0)                         # 4x faster
        assert v.status == "pass"
        assert v.slowdown < 0
        assert "faster" in v.summary()

    def test_custom_bands(self):
        assert self._verdict(46_000.0, warn=0.05).status == "warn"
        assert self._verdict(46_000.0, warn=0.05, fail=0.07).status == "fail"

    def test_bad_bands_rejected(self):
        with pytest.raises(ValueError, match="warn <= fail"):
            self._verdict(50_000.0, warn=0.5, fail=0.1)

    def test_zero_eps_record_rejected(self):
        # A fully-cached sweep executed nothing: no measurable throughput.
        with pytest.raises(GoldenError, match="no positive events_per_s"):
            record_events_per_s(sweep_record(eps=0.0))


class TestBaselineFiles:
    def test_bless_and_load_round_trip(self, tmp_path):
        out = tmp_path / "bench.json"
        bless_bench(sweep_record(), out)
        baseline = load_bench_baseline(out)
        assert baseline["baseline"] is True
        assert baseline["events_per_s"] == pytest.approx(50_000.0)
        assert baseline["workers"] == 2

    def test_bless_refuses_overwrite_without_force(self, tmp_path):
        out = tmp_path / "bench.json"
        bless_bench(sweep_record(), out)
        # The one guard write_bench keeps, with its one error type.
        with pytest.raises(BaselineProtectedError, match="--force"):
            bless_bench(sweep_record(eps=60_000.0), out)
        assert issubclass(BaselineProtectedError, GoldenError)
        bless_bench(sweep_record(eps=60_000.0), out, force=True)
        assert load_bench_baseline(out)["events_per_s"] == pytest.approx(60_000.0)

    def test_raw_record_is_not_a_baseline(self, tmp_path):
        p = tmp_path / "raw.json"
        p.write_text(json.dumps(sweep_record()))
        with pytest.raises(GoldenError, match="bless it first"):
            load_bench_baseline(p)

    def test_load_record_errors(self, tmp_path):
        with pytest.raises(GoldenError, match="not found"):
            load_bench_record(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        with pytest.raises(GoldenError, match="not valid JSON"):
            load_bench_record(bad)


class TestWriteBenchGuard:
    def test_plain_write_and_overwrite_ok(self, tmp_path):
        out = tmp_path / "BENCH_sweep.json"
        write_bench(sweep_record(), out)
        write_bench(sweep_record(eps=1.0), out)      # plain records overwrite
        assert not is_committed_baseline(out)

    def test_refuses_to_clobber_committed_baseline(self, tmp_path):
        out = tmp_path / "bench.json"
        bless_bench(sweep_record(), out)
        assert is_committed_baseline(out)
        with pytest.raises(BaselineProtectedError, match="--force"):
            write_bench(sweep_record(), out)
        # Baseline content untouched by the refused write.
        assert load_bench_baseline(out)["events_per_s"] == pytest.approx(50_000.0)

    def test_force_overwrites(self, tmp_path):
        out = tmp_path / "bench.json"
        bless_bench(sweep_record(), out)
        write_bench(sweep_record(), out, force=True)
        assert not is_committed_baseline(out)        # now a plain record

    def test_unreadable_target_not_protected(self, tmp_path):
        out = tmp_path / "junk.json"
        out.write_text("not json")
        assert not is_committed_baseline(out)
        write_bench(sweep_record(), out)             # heals the file
