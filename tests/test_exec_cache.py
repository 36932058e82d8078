"""Unit tests for the on-disk result cache and full-config job keying."""

import dataclasses
import json


from repro.exec.cache import (
    ResultCache, config_fingerprint, default_cache_dir, job_digest, job_key,
)
from repro.system.config import baseline_config, coaxial_config
from repro.system.stats import SimResult


def _result(name="w", ipc=1.0):
    return SimResult(
        config_name="cfg", workload_name=name, ipc=ipc, core_ipcs=[ipc],
        instructions=1000, elapsed_ns=1000.0, n_misses=10,
        avg_miss_latency=100.0, avg_onchip=10.0, avg_queuing=50.0,
        avg_dram=40.0, avg_cxl=0.0, p90_miss_latency=150.0,
        bandwidth_gbps=10.0, read_bandwidth_gbps=8.0, write_bandwidth_gbps=2.0,
        peak_bandwidth_gbps=38.4, llc_mpki=20.0, llc_hit_rate=0.3,
        extras={"events_fired": 123.0},
    )


class TestKeying:
    def test_fingerprint_covers_every_field(self):
        cfg = baseline_config()
        fp = config_fingerprint(cfg)
        for f in dataclasses.fields(cfg):
            assert any(k == f.name or k.startswith(f.name + ".")
                       for k in fp), f"field {f.name} missing from fingerprint"

    def test_unlisted_knob_changes_key(self):
        """The old hand-listed key ignored e.g. the prefetcher knobs."""
        cfg = baseline_config()
        for knob, value in (("prefetcher", "stride"), ("prefetch_degree", 3),
                            ("rob", 257), ("mshrs", 17), ("l1_kb", 32),
                            ("noc_hop_cyc", 4), ("replacement", "srrip")):
            other = cfg.replace(**{knob: value})
            assert job_key(cfg, "mcf", 300, 1) != job_key(other, "mcf", 300, 1)
            assert job_digest(cfg, "mcf", 300, 1) != job_digest(other, "mcf", 300, 1)

    def test_nested_cxl_params_in_key(self):
        from repro.cxl.link import X8_CXL_ASYM
        cfg = coaxial_config()
        other = cfg.replace(cxl_params=X8_CXL_ASYM)
        assert job_digest(cfg, "mcf", 300, 1) != job_digest(other, "mcf", 300, 1)

    def test_digest_stable_and_distinct(self):
        cfg = baseline_config()
        d = job_digest(cfg, "mcf", 300, 1)
        assert d == job_digest(cfg, "mcf", 300, 1)
        assert len(d) == 64
        assert d != job_digest(cfg, "mcf", 300, 2)
        assert d != job_digest(cfg, "gcc", 300, 1)
        assert d != job_digest(cfg, "mcf", 301, 1)
        assert d != job_digest(cfg, "mcf", 300, 1, salt="x")

    def test_tables_key_uses_full_config(self):
        from repro.analysis.tables import _key
        cfg = baseline_config()
        assert _key(cfg, "mcf", None, 1) != _key(
            cfg.replace(prefetch_degree=4), "mcf", None, 1)


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cfg = baseline_config()
        assert cache.get(cfg, "mcf", 300, 1) is None
        cache.put(cfg, "mcf", 300, 1, _result())
        got = cache.get(cfg, "mcf", 300, 1)
        assert got is not None
        assert dataclasses.asdict(got) == dataclasses.asdict(_result())
        assert cache.counters() == {"hits": 1, "misses": 1, "stores": 1}

    def test_different_config_misses(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache.put(baseline_config(), "mcf", 300, 1, _result())
        assert cache.get(coaxial_config(), "mcf", 300, 1) is None

    def test_corrupt_entry_treated_as_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cfg = baseline_config()
        cache.put(cfg, "mcf", 300, 1, _result())
        (path,) = (tmp_path / "results").glob("*/*.json")
        path.write_text("{not json")
        assert cache.get(cfg, "mcf", 300, 1) is None
        # The corrupt file is dropped so a rewrite heals the cache.
        assert cache.size() == 0

    def test_size_and_clear(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cfg = baseline_config()
        for seed in (1, 2, 3):
            cache.put(cfg, "mcf", 300, seed, _result())
        assert cache.size() == 3
        assert cache.clear() == 3
        assert cache.size() == 0

    def test_salt_separates_namespaces(self, tmp_path):
        a = ResultCache(root=tmp_path, salt="a")
        b = ResultCache(root=tmp_path, salt="b")
        a.put(baseline_config(), "mcf", 300, 1, _result())
        assert b.get(baseline_config(), "mcf", 300, 1) is None
        assert a.get(baseline_config(), "mcf", 300, 1) is not None

    def test_entry_is_valid_json_with_metadata(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache.put(baseline_config(), "mcf", 300, 1, _result())
        (path,) = (tmp_path / "results").glob("*/*.json")
        payload = json.loads(path.read_text())
        assert payload["job"] == {"config": "ddr-baseline", "workload": "mcf",
                                  "ops": 300, "seed": 1}
        assert payload["result"]["ipc"] == 1.0


class TestCacheDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "x"))
        assert default_cache_dir() == tmp_path / "x"

    def test_no_disk_cache_env(self, monkeypatch):
        from repro.exec.cache import disk_cache_enabled
        monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
        assert disk_cache_enabled()
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        assert not disk_cache_enabled()
