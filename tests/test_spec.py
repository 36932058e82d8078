"""The one job description: ``TaskSpec``'s validator and materializer.

Every front end builds the same spec, so every front end must reject the
same malformed input with the same message: ``TaskSpec.from_dict`` (the
wire and corpus parser), the fleet broker's ``POST /tasks`` and, for the
fields its body accepts, ``repro serve``'s ``POST /jobs``. Each case here
once slipped through at least one of them.
"""

import dataclasses

import pytest

from repro.exec.runner import _simulate_job
from repro.exec.spec import SpecError, TaskSpec, build_config, expand_specs
from repro.system.config import ALL_CONFIGS
from repro.system.sim import simulate
from repro.tiering.config import get_tiering
from repro.workloads import get_workload
from tests.test_fleet import BrokerHarness
from tests.test_serve import ServerHarness

#: (bad spec fields, the field name its message must quote)
BAD = [
    pytest.param({"workload": "nope"}, "'workload'", id="unknown-workload"),
    pytest.param({"ops": -5}, "'ops'", id="ops-negative"),
    pytest.param({"ops": "abc"}, "'ops'", id="ops-string"),
    pytest.param({"validate": "bogus"}, "'validate'", id="validate-bogus"),
    pytest.param({"obs": "bogus"}, "'obs'", id="obs-bogus"),
    pytest.param({"tracing": "bogus"}, "'tracing'", id="tracing-bogus"),
    pytest.param({"overrides": {"tiering": "nope"}}, "'tiering'",
                 id="tiering-unknown"),
    pytest.param({"overrides": {"warp": 9}}, "'overrides'",
                 id="override-unknown-key"),
]

#: Overrides each field accepts on its own that no config may hold: a zero
#: cache size, associativity, port count or core resource, a zero clock, a
#: policy name no factory builds, a prefetcher with no degree, private
#: caches that are not a power-of-two number of sets, or a plain value
#: where a parameter record goes (the message names the field).
BAD_CONFIG = [
    pytest.param({"overrides": {name: value}}, f"{name} must be >= 1",
                 id=f"{name}={value}")
    for name, value in [("n_mem_ports", 0), ("ddr_per_cxl", 0), ("l1_kb", 0),
                        ("l1_ways", 0), ("l2_kb", 0), ("l2_ways", 0),
                        ("llc_kb_per_core", 0), ("llc_kb_per_core", -4),
                        ("llc_ways", 0), ("mshrs", 0), ("rob", 0),
                        ("width", 0)]] + [
    pytest.param({"overrides": overrides}, field, id=field)
    for overrides, field in [
        ({"freq_ghz": 0}, "freq_ghz must be > 0"),
        ({"replacement": "nope"}, "replacement='nope'"),
        ({"calm_policy": "nope"}, "calm_policy='nope'"),
        ({"calm_policy": "calm_x"}, "calm_policy='calm_x'"),
        ({"calm_policy": 70}, "calm_policy=70"),
        ({"prefetcher": "nope"}, "prefetcher='nope'"),
        ({"prefetcher": "nextline", "prefetch_degree": 0},
         "prefetch_degree=0"),
        ({"l1_kb": 24}, "l1_kb=24"),
        ({"l1_kb": 48}, "l1_kb=48")]] + [
    # CXL-only knobs on a DDR base: the builder would ignore them.
    pytest.param({"base": "ddr-baseline", "overrides": overrides}, field,
                 id=f"ddr-{next(iter(overrides))}")
    for overrides, field in [
        ({"ddr_per_cxl": 2}, "ddr_per_cxl=2 requires a CXL config"),
        ({"cxl": "asym"}, "cxl_params 'x8-cxl-asym' requires a CXL config"),
        ({"device_profile": "far-socket"},
         "device_profile='far-socket' requires a CXL config"),
        ({"cxl_backend": "ssd"}, "cxl_backend='ssd' requires a CXL config")]] + [
    # A plain value where the config holds a parameter record: the check
    # passed it, and the builder then crashed reading a field off it.
    pytest.param({"base": "cxl-ssd", "overrides": {"ssd_params": value}},
                 "ssd_params must be SsdParams", id=f"ssd_params-{kind}")
    for kind, value in [("dict", {"cache_ways": 4}), ("str", "big")]]

#: The spec fields a ``POST /jobs`` body can carry, by body key.
SERVE_KEYS = {"workload": "workloads", "ops": "ops", "validate": "validate",
              "tracing": "tracing"}


def spec_dict(bad):
    return {"base": "coaxial-4x", "workload": "mcf", "ops": 100, **bad}


@pytest.fixture(scope="module")
def broker():
    harness = BrokerHarness()
    yield harness
    harness.stop()


@pytest.fixture(scope="module")
def server():
    harness = ServerHarness(pool_workers=1)
    yield harness
    harness.stop()


class TestOneValidator:
    @pytest.mark.parametrize("bad, field", BAD)
    def test_from_dict_rejects(self, bad, field):
        with pytest.raises(SpecError, match=field):
            TaskSpec.from_dict(spec_dict(bad))

    @pytest.mark.parametrize("bad, field", BAD_CONFIG)
    def test_build_job_rejects(self, bad, field):
        spec = TaskSpec.from_dict(spec_dict(bad))
        with pytest.raises(SpecError, match=field):
            spec.build_job()

    @pytest.mark.parametrize("bad, field", BAD + BAD_CONFIG)
    def test_broker_rejects_with_400(self, broker, bad, field):
        status, payload = broker.json("POST", "/tasks",
                                      {"specs": [spec_dict(bad)]})
        assert status == 400, payload
        assert field in payload["error"]
        assert broker.json("GET", "/tasks")[1]["total"] == 0

    @pytest.mark.parametrize("bad, field", [
        p for p in BAD if set(p.values[0]) <= set(SERVE_KEYS)])
    def test_serve_gives_the_broker_message(self, broker, server, bad,
                                            field):
        body = {"configs": ["coaxial-4x"], "workloads": ["mcf"], "ops": 100}
        for key, value in bad.items():
            body[SERVE_KEYS[key]] = [value] if key == "workload" else value
        status, payload = server.json("POST", "/jobs", body)
        assert status == 400, payload
        _, wire = broker.json("POST", "/tasks", {"specs": [spec_dict(bad)]})
        assert payload["error"] == wire["error"]
        assert field in payload["error"]

    def test_joint_constraints_rejected_at_submission(self, broker, server):
        # Each field is fine on its own; the materialized config is not.
        bad = {"base": "ddr-baseline", "workload": "mcf",
               "overrides": {"tiering": "epoch"}}
        assert TaskSpec.from_dict(bad).check()
        with pytest.raises(SpecError, match="requires memory_kind='cxl'"):
            TaskSpec.from_dict(bad).build_job()
        status, payload = broker.json("POST", "/tasks", {"specs": [bad]})
        assert status == 400 and "'overrides'" in payload["error"]

    def test_valid_specs_pass(self):
        for spec in expand_specs(list(ALL_CONFIGS), ["mcf"], ops=100):
            assert spec.build_job().config.name == spec.base


class TestMaterializer:
    def test_tiering_override_simulates_the_preset(self):
        spec = TaskSpec(base="coaxial-4x", overrides={"tiering": "epoch"},
                        workload="mcf", ops=200)
        result, _, _ = _simulate_job(spec.build_job())
        direct = simulate(
            ALL_CONFIGS["coaxial-4x"]().replace(tiering=get_tiering("epoch")),
            get_workload("mcf"), ops_per_core=200, seed=1)
        assert dataclasses.asdict(result) == dataclasses.asdict(direct)

    def test_null_tiering_is_flat(self):
        assert build_config("tiered-epoch", {"tiering": None}).tiering is None

    def test_overrides_reach_every_grid_point(self):
        specs = expand_specs(["coaxial-2x", "coaxial-4x"], ["mcf", "gcc"],
                             overrides={"cxl": "asym"})
        assert len(specs) == 4
        assert all(s.build_job().config.cxl_params
                   == build_config("coaxial-4x", {"cxl": "asym"}).cxl_params
                   for s in specs)
