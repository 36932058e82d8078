"""Real-oracle soundness: a small seeded campaign must run clean.

The oracle tolerances in :mod:`repro.fuzz.oracles` were calibrated so a
clean tree passes sustained random campaigns (``repro fuzz run --trials 50
--seed 0`` is the acceptance bar; nightly CI runs bigger ones). This smoke
slice keeps a miniature version of that guarantee in the tier-1 suite so a
tolerance regression or an oracle crash shows up in CI, not at night.
"""

import pytest

from repro.exec.spec import TaskSpec
from repro.fuzz.gen import generate_cases
from repro.fuzz.harness import FuzzRunner
from repro.fuzz.oracles import ORACLES, applicable_oracles, run_oracle


@pytest.mark.slow
def test_small_campaign_runs_clean(tmp_path):
    report = FuzzRunner(trials=3, seed=0, workers=1, shrink_failures=False,
                        corpus_dir=tmp_path).run()
    assert report.errors == [], f"oracle crashes: {report.errors}"
    assert report.failures == [], (
        "clean-tree fuzz failures (tolerances drifted or a real bug): "
        + "; ".join(f"{f.oracle}: {f.detail}" for f in report.failures))
    assert report.checks_run > 0


@pytest.mark.slow
def test_diff_kernel_oracle_on_named_configs():
    # The differential oracle's strongest claim — fast and reference
    # kernels bit-identical — pinned on one DDR and one CXL config.
    for base in ("ddr-baseline", "coaxial-4x"):
        case = TaskSpec(base=base, workload="mcf", ops=300, seed=1)
        assert run_oracle("diff_kernel", case) is None


@pytest.mark.slow
def test_observers_oracle_on_named_configs():
    # Validate, obs and tracing together leave every result field of a
    # plain run unchanged on both loops: one flat and one tiered config.
    for base, workload in (("coaxial-4x", "mcf"),
                           ("tiered-epoch", "capacity-churn")):
        case = TaskSpec(base=base, workload=workload, ops=300, seed=1)
        assert run_oracle("observers", case) is None


def test_diff_warmup_oracle_catches_dropped_victims(monkeypatch):
    # Clean on a named config; a set-parallel pass that stops handing
    # dirty victims down a level must fail it.
    from repro.system import sim

    case = TaskSpec(base="cxl-ssd", workload="lbm", ops=300, seed=1)
    assert run_oracle("diff_warmup", case) is None
    handed_down = sim._next_level
    monkeypatch.setattr(sim, "_next_level", lambda first, second, *rest:
                        handed_down(first, second & False, *rest))
    detail = run_oracle("diff_warmup", case)
    assert detail is not None and "diverged" in detail


def test_diff_warmup_oracle_reports_a_refused_pass(monkeypatch):
    # A pass that refuses a fresh LRU chip leaves its caches empty; the
    # oracle says so instead of a divergence at LRU position 0.
    from repro.system import sim

    monkeypatch.setattr(sim, "_replay_lru_sets", lambda *args: False)
    case = TaskSpec(base="cxl-ssd", workload="lbm", ops=300, seed=1)
    detail = run_oracle("diff_warmup", case)
    assert detail is not None and "refused" in detail


def test_diff_cache_oracle_reads_disk_after_a_cache_off_run(monkeypatch):
    # A run_one with the disk cache off leaves the disk layer unresolved,
    # not resolved to "off": the oracle's second run must still be read
    # from its scratch cache directory (one miss, then one hit).
    from repro.analysis import tables
    from repro.exec.cache import ResultCache

    case = TaskSpec(base="ddr-baseline", workload="mcf", ops=200, seed=1)
    job = case.build_job()
    monkeypatch.setattr(tables, "_disk", None)
    monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
    tables.clear_cache()
    tables.run_one(job.config, job.workload, job.ops, seed=job.seed)
    lookups = []
    real_get = ResultCache.get

    def get(self, *args):
        hit = real_get(self, *args)
        lookups.append("hit" if hit is not None else "miss")
        return hit

    monkeypatch.setattr(ResultCache, "get", get)
    assert run_oracle("diff_cache", case) is None
    assert lookups == ["miss", "hit"]


def test_every_default_oracle_applies_somewhere():
    # No oracle may be dead weight: across a modest sample each default
    # oracle must be applicable to at least one generated case.
    cases = generate_cases(60, seed=1)
    seen = set()
    for c in cases:
        seen.update(applicable_oracles(c))
    missing = {n for n, o in ORACLES.items() if o.default} - seen
    assert not missing, f"oracles never applicable in 60 cases: {missing}"
