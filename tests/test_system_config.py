"""Unit tests for system configurations."""

import pytest

from repro.cxl.link import X8_CXL_ASYM
from repro.cxl.slowmedia import SsdParams
from repro.system.config import (
    ALL_CONFIGS, SystemConfig, baseline_config, coaxial_2x_config,
    coaxial_5x_config, coaxial_asym_config, coaxial_config,
)


class TestSystemConfig:
    def test_baseline_matches_paper_table3(self):
        cfg = baseline_config()
        assert cfg.n_cores == 12
        assert cfg.width == 4 and cfg.rob == 256
        assert cfg.memory_kind == "ddr"
        assert cfg.n_ddr_channels == 1
        assert cfg.calm_policy == "never"

    def test_coaxial_4x_shape(self):
        cfg = coaxial_config()
        assert cfg.memory_kind == "cxl"
        assert cfg.n_mem_ports == 4
        assert cfg.n_ddr_channels == 4
        # Half the LLC of the baseline (Table II "balanced").
        assert cfg.llc_kb_per_core == baseline_config().llc_kb_per_core // 2
        assert cfg.calm_policy == "calm_70"

    def test_coaxial_2x_iso_llc(self):
        cfg = coaxial_2x_config()
        assert cfg.n_ddr_channels == 2
        assert cfg.llc_kb_per_core == baseline_config().llc_kb_per_core

    def test_coaxial_5x_iso_pin(self):
        assert coaxial_5x_config().n_ddr_channels == 5

    def test_asym_has_8_ddr_channels(self):
        cfg = coaxial_asym_config()
        assert cfg.n_mem_ports == 4 and cfg.ddr_per_cxl == 2
        assert cfg.n_ddr_channels == 8
        assert cfg.cxl_params == X8_CXL_ASYM

    def test_invalid_memory_kind(self):
        with pytest.raises(ValueError):
            SystemConfig(memory_kind="optane")

    def test_active_cores_bounds(self):
        with pytest.raises(ValueError):
            SystemConfig(active_cores=13)
        assert SystemConfig(active_cores=4).active_cores == 4
        assert SystemConfig().active_cores == 12

    def test_ddr_refuses_cxl_only_fields(self):
        with pytest.raises(ValueError, match="ssd_params=.* requires a CXL"):
            baseline_config(ssd_params=SsdParams(cache_ways=4))
        # Defaults pass on DDR; a CXL base takes any value.
        assert baseline_config(device_profile="fixed", ddr_per_cxl=1)
        assert coaxial_config(ssd_params=SsdParams(cache_ways=4))

    @pytest.mark.parametrize("field, value, expected", [
        ("cxl_params", "x8-cxl", "CxlLinkParams"),
        ("ssd_params", {"cache_ways": 4}, "SsdParams"),
        ("tiering", "epoch", "TieringConfig or None")],
        ids=["cxl_params", "ssd_params", "tiering"])
    def test_parameter_records_must_have_their_type(self, field, value,
                                                    expected):
        # A plain value would pass every other check and crash the builder.
        with pytest.raises(TypeError, match=f"{field} must be {expected}"):
            coaxial_config(**{field: value})
        with pytest.raises(TypeError, match=f"{field} must be {expected}"):
            SystemConfig(**{field: value})

    def test_mesh_must_fit_cores(self):
        with pytest.raises(ValueError):
            SystemConfig(n_cores=20, mesh_rows=2, mesh_cols=2)

    def test_replace_returns_validated_copy(self):
        cfg = baseline_config()
        c2 = cfg.replace(llc_kb_per_core=128)
        assert c2.llc_kb_per_core == 128
        assert cfg.llc_kb_per_core == 256  # original untouched
        with pytest.raises(ValueError):
            cfg.replace(active_cores=99)

    def test_overrides_in_factories(self):
        cfg = coaxial_config(calm_policy="mapi")
        assert cfg.calm_policy == "mapi"

    def test_all_configs_registry(self):
        assert set(ALL_CONFIGS) == {
            "ddr-baseline", "coaxial-2x", "coaxial-4x", "coaxial-5x",
            "coaxial-asym", "tiered-static", "tiered-lru", "tiered-epoch",
            "cxl-ssd", "cxl-profiled",
        }
        for factory in ALL_CONFIGS.values():
            assert isinstance(factory(), SystemConfig)

    def test_paper_configs_subset(self):
        from repro.system.config import PAPER_CONFIGS
        assert set(PAPER_CONFIGS) <= set(ALL_CONFIGS)
        assert len(PAPER_CONFIGS) == 5
