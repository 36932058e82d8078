"""Unit tests for the process-pool sweep runner."""

import time

import pytest

from repro.exec.cache import ResultCache
from repro.exec.runner import (
    PoolRunner, SweepJob, SweepRunner, default_workers,
)
from repro.exec.spec import SpecError, expand_specs
from repro.system.config import baseline_config

OPS = 250


def _sleep_return(seconds):
    """Module-level pool worker: sleep, then echo (picklable)."""
    time.sleep(seconds)
    return seconds


def _hang_forever(seconds):
    """Module-level pool worker simulating a hung worker process."""
    time.sleep(seconds)
    return seconds


class TestExpandGrid:
    """The one grid expander, :func:`expand_specs`, and its jobs."""

    def test_grid_shape_and_order(self):
        jobs = [s.build_job() for s in expand_specs(
            ["ddr-baseline", "coaxial-4x"], ["mcf", "gcc"],
            ops=100, seeds=[1, 2])]
        assert len(jobs) == 8
        assert jobs[0].config.name == "ddr-baseline"
        assert [j.seed for j in jobs[:2]] == [1, 2]
        assert jobs[-1].config.name == "coaxial-4x"
        assert all(j.ops == 100 for j in jobs)

    def test_unknown_config_rejected(self):
        with pytest.raises(SpecError, match="'base'"):
            [s.build_job() for s in expand_specs(["nope"], ["mcf"])]


class TestDefaultWorkers:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_workers() == 3

    def test_env_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            default_workers()
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            default_workers()

    def test_default_is_positive(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_workers() >= 1


class TestInlineRunner:
    def test_runs_and_orders_results(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        runner = SweepRunner(workers=1, cache=cache)
        jobs = [SweepJob(baseline_config(), w, OPS, 1) for w in ("mcf", "BFS")]
        results = runner.run(jobs)
        assert [r.job.workload for r in results] == ["mcf", "BFS"]
        assert all(r.result is not None and not r.cached for r in results)
        assert all(r.wall_s > 0 and r.events > 0 for r in results)
        assert cache.counters()["stores"] == 2

    def test_cache_pass_short_circuits(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        jobs = [SweepJob(baseline_config(), "mcf", OPS, 1)]
        cold = SweepRunner(workers=1, cache=cache).run(jobs)
        warm = SweepRunner(workers=1, cache=cache).run(jobs)
        assert not cold[0].cached and warm[0].cached
        assert warm[0].result.ipc == cold[0].result.ipc
        assert warm[0].events == cold[0].events  # telemetry survives the cache

    def test_failed_job_reported_after_retries(self):
        runner = SweepRunner(workers=1, retries=1)
        results = runner.run([SweepJob(baseline_config(), "no-such-wl", OPS, 1)])
        (r,) = results
        assert r.result is None
        assert r.attempts == 2
        assert "no-such-wl" in r.error

    def test_progress_callback_sees_every_job(self, tmp_path):
        seen = []
        runner = SweepRunner(
            workers=1, cache=ResultCache(root=tmp_path),
            progress=lambda done, total, jr: seen.append((done, total)))
        runner.run([SweepJob(baseline_config(), w, OPS, 1)
                    for w in ("mcf", "BFS")])
        assert seen == [(1, 2), (2, 2)]


class TestPoolRunner:
    def test_pool_matches_job_order(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        jobs = [s.build_job() for s in expand_specs(
            ["ddr-baseline"], ["mcf", "BFS", "gcc"], ops=OPS)]
        results = SweepRunner(workers=2, cache=cache).run(jobs)
        assert [r.job.workload for r in results] == ["mcf", "BFS", "gcc"]
        assert all(r.result is not None for r in results)
        assert cache.counters() == {"hits": 0, "misses": 3, "stores": 3}

    def test_pool_failure_after_retries(self):
        runner = SweepRunner(workers=2, retries=1)
        jobs = [SweepJob(baseline_config(), "mcf", OPS, 1),
                SweepJob(baseline_config(), "no-such-wl", OPS, 1)]
        results = runner.run(jobs)
        assert results[0].result is not None
        assert results[1].result is None and results[1].attempts == 2


class TestPoolRunnerDeadlines:
    """Regression tests for the timeout/retry/accounting bugs.

    Before the fix: the per-job timeout only started once the settle loop
    *waited* on that index, a hung worker permanently occupied a pool slot
    and wedged ``ProcessPoolExecutor.__exit__``, and ``wall_s`` included
    time the loop spent blocked on earlier indices.
    """

    def test_hung_worker_times_out_and_pool_shuts_down(self):
        # The hung task sleeps far beyond the timeout; the runner must
        # settle the timeout within ~2x the deadline and return without
        # blocking on pool shutdown (the worker process is killed).
        timeout = 0.5
        runner = PoolRunner(_hang_forever, workers=2,
                            job_timeout_s=timeout, retries=0)
        t0 = time.perf_counter()
        (out,) = runner.run([60.0])
        elapsed = time.perf_counter() - t0
        assert out.value is None
        assert "timeout" in out.error
        assert out.attempts == 1
        assert elapsed < 4 * timeout  # ~2x deadline + process-kill slack

    def test_hung_worker_does_not_starve_siblings(self):
        # One hung item next to fast items: the fast items must all
        # complete even though the hung worker's slot is torn down and the
        # survivors migrate to a fresh pool.
        runner = PoolRunner(_hang_forever, workers=2,
                            job_timeout_s=0.75, retries=0)
        outs = runner.run([60.0, 0.05, 0.05, 0.05])
        assert "timeout" in outs[0].error
        assert [o.value for o in outs[1:]] == [0.05, 0.05, 0.05]

    def test_deadline_runs_from_submission_not_settle(self):
        # Item 1 exceeds the timeout while the loop is blocked settling
        # item 0. Its clock started at submission, so it must be timed out
        # at ~timeout — not given a fresh full timeout once reached.
        timeout = 0.6
        runner = PoolRunner(_hang_forever, workers=2,
                            job_timeout_s=timeout, retries=0)
        t0 = time.perf_counter()
        outs = runner.run([0.3, 60.0])
        elapsed = time.perf_counter() - t0
        assert outs[0].value == 0.3
        assert "timeout" in outs[1].error
        # Old behaviour settled item 1 no earlier than 0.3 + timeout; the
        # fixed runner settles it at ~timeout.
        assert elapsed < 0.3 + timeout

    def test_retry_gets_fresh_deadline_and_succeeds(self):
        # retries=1: the first attempt times out, the resubmission gets a
        # full fresh deadline and completes.
        runner = PoolRunner(_sleep_return, workers=2,
                            job_timeout_s=0.4, retries=1)
        outs = runner.run([1.0, 0.05])
        # item 0 sleeps past the deadline twice -> both attempts time out
        assert outs[0].attempts == 2 and "timeout" in outs[0].error
        assert outs[1].value == 0.05 and outs[1].attempts == 1

    def test_wall_s_is_completion_relative(self):
        # A fast item settled *after* a slow lower-index item must report
        # its own runtime, not the time the settle loop sat blocked.
        runner = PoolRunner(_sleep_return, workers=2)
        outs = runner.run([0.8, 0.05])
        assert outs[0].value == 0.8 and outs[1].value == 0.05
        assert outs[1].wall_s < 0.5, (
            f"fast job wall_s={outs[1].wall_s:.2f}s includes settle-loop "
            f"blocking on the slow job")
        assert outs[0].wall_s >= 0.7


class TestRunSuiteWorkers:
    def test_parallel_suite_matches_serial(self, tmp_path, monkeypatch):
        import repro.analysis.tables as tables
        monkeypatch.setattr(tables, "_disk", ResultCache(root=tmp_path))
        tables.clear_cache()
        cfg = baseline_config()
        par = tables.run_suite(cfg, ["mcf", "BFS"], ops_per_core=OPS, workers=2)
        tables.clear_cache()
        ser = tables.run_suite(cfg, ["mcf", "BFS"], ops_per_core=OPS)
        assert par.ipcs() == ser.ipcs()
        tables.clear_cache()
