"""End-to-end tests: the invariant checker against real simulations.

The heart of this file is the mutation test: seed a latency-accounting
bug into the memory system and prove the checker catches it, while the
unmodified simulator reports zero violations under strict validation.
"""

import pytest

from repro.dram.controller import _SubChannel
from repro.exec.runner import SweepJob, SweepRunner
from repro.exec.spec import expand_specs
from repro.system.config import ALL_CONFIGS
from repro.system.sim import simulate
from repro.validate import InvariantError
from repro.workloads import get_workload

OPS = 600


def run(cfg_name, **kw):
    return simulate(ALL_CONFIGS[cfg_name](), get_workload("mcf"),
                    ops_per_core=OPS, **kw)


class TestCleanRuns:
    @pytest.mark.parametrize("cfg", ["ddr-baseline", "coaxial-4x"])
    def test_strict_validation_clean(self, cfg):
        r = run(cfg, validate="strict")
        rep = r.extras["invariant_violations"]
        assert rep["count"] == 0
        assert rep["checked_requests"] > 0
        assert r.invariant_violation_count == 0

    def test_validation_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_VALIDATE", raising=False)
        r = run("ddr-baseline")
        assert "invariant_violations" not in r.extras
        assert r.invariant_violation_count is None

    def test_env_enables_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        r = run("ddr-baseline")
        assert r.extras["invariant_violations"]["count"] == 0

    def test_trace_arg_implies_validation(self):
        # The audit trace is the span ring: with both observers on, it
        # records exactly the requests the checker audited.
        r = run("ddr-baseline", validate="on", tracing="on")
        trace = r.extras["trace"]
        assert trace["requests"] == (
            r.extras["invariant_violations"]["checked_requests"])
        assert trace["requests"] > len(trace["spans"]) == 512


class TestMutationKillsChecker:
    """Seeded corruption must be caught; this proves the checker has teeth."""

    def test_backdated_enqueue_is_caught(self, monkeypatch):
        orig = _SubChannel.enqueue

        def corrupt(self, req, coord):
            ok = orig(self, req, coord)
            if req.t_create >= 0:
                req.t_mc_enqueue = req.t_create - 5.0  # enqueue before create
            return ok

        monkeypatch.setattr(_SubChannel, "enqueue", corrupt)
        r = run("ddr-baseline", validate="on")
        rep = r.extras["invariant_violations"]
        assert rep["by_kind"].get("non_monotonic", 0) > 0
        v = next(v for v in rep["violations"] if v["kind"] == "non_monotonic")
        assert v["req_id"] is not None
        assert v["timeline"]["t_mc_enqueue"] < v["timeline"]["t_create"]

    def test_inflated_cxl_delay_is_caught(self, monkeypatch):
        from repro.cxl.channel import CxlChannel
        orig = CxlChannel._on_dram_response

        def corrupt(self, req):
            req.cxl_delay += 1000.0  # phantom CXL time: components > total
            orig(self, req)

        monkeypatch.setattr(CxlChannel, "_on_dram_response", corrupt)
        r = run("coaxial-4x", validate="on")
        rep = r.extras["invariant_violations"]
        assert rep["by_kind"].get("negative_residual", 0) > 0

    def test_strict_mode_raises_on_mutation(self, monkeypatch):
        orig = _SubChannel.enqueue

        def corrupt(self, req, coord):
            ok = orig(self, req, coord)
            if req.t_create >= 0:
                req.t_mc_enqueue = req.t_create - 5.0
            return ok

        monkeypatch.setattr(_SubChannel, "enqueue", corrupt)
        with pytest.raises(InvariantError):
            run("ddr-baseline", validate="strict")


class TestSweepPropagation:
    def test_expand_grid_carries_validate(self):
        jobs = [s.build_job() for s in expand_specs(
            ["ddr-baseline"], ["mcf"], ops=OPS, seeds=(1,),
            validate="strict")]
        assert all(j.validate == "strict" for j in jobs)

    def test_sweep_job_runs_validated(self):
        job = SweepJob(ALL_CONFIGS["ddr-baseline"](), "mcf", ops=OPS,
                       validate="on")
        runner = SweepRunner(workers=1, cache=None)
        (jr,) = runner.run([job])
        assert jr.result is not None
        assert jr.result.extras["invariant_violations"]["count"] == 0

    def test_default_job_has_no_validate(self):
        job = SweepJob(ALL_CONFIGS["ddr-baseline"](), "mcf")
        assert job.validate is None
