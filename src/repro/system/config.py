"""Server system configurations (paper Tables II/III).

The paper simulates a 12-core slice of a 144-core server: 12 OoO cores
sharing one DDR5-4800 channel in the baseline, versus 2/4/8 CXL-attached
channels in the COAXIAL variants. We reproduce that 12-core simulated
system directly; cache capacities are scaled down (1/8) so that Python-
scale trace lengths exercise realistic hit rates — workloads are calibrated
against the scaled hierarchy, preserving each workload's MPKI band.

Configurations (memory bandwidth relative to baseline):

================  ==============  ===========  ==================
name              memory           LLC/core     relative read BW
================  ==============  ===========  ==================
ddr-baseline      1 DDR5 channel   256 KB       1.0x
coaxial-2x        2 x8 CXL         256 KB       2.0x  (iso-LLC)
coaxial-4x        4 x8 CXL         128 KB       4.0x  (balanced)
coaxial-5x        5 x8 CXL         256 KB       5.0x  (iso-pin)
coaxial-asym      4 CXL-asym (x2)  128 KB       8 DDR channels
================  ==============  ===========  ==================
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.cache import level_sets, make_policy
from repro.calm.policy import make_calm_policy
from repro.cpu.prefetch import make_prefetcher
from repro.cxl.link import CxlLinkParams, X8_CXL, X8_CXL_ASYM
from repro.cxl.profiles import PROFILES
from repro.cxl.slowmedia import DEFAULT_SSD, SsdParams
from repro.tiering.config import TieringConfig, get_tiering


#: Cache sizes, associativities, port counts and core resources: a zero here
#: divides by zero mid-run or (a zero-sized LLC) quietly simulates a one-set cache.
_AT_LEAST_ONE = ("l1_kb", "l1_ways", "l2_kb", "l2_ways", "llc_kb_per_core", "llc_ways",
                 "n_mem_ports", "ddr_per_cxl", "width", "rob", "mshrs")

#: Fields that hold a parameter record: the types each accepts, by name.
_RECORDS = (("cxl_params", CxlLinkParams, "CxlLinkParams"),
            ("ssd_params", SsdParams, "SsdParams"),
            ("tiering", (TieringConfig, type(None)), "TieringConfig or None"))

#: Fields only a CXL build reads. A DDR config keeps them at their defaults:
#: the builder would ignore any other value, so a sweep over one would
#: measure a single point under several cache keys.
CXL_ONLY = ("ddr_per_cxl", "cxl_params", "device_profile", "cxl_backend",
            "ssd_params")


@dataclass
class SystemConfig:
    """Everything needed to build one simulated server."""

    name: str = "ddr-baseline"

    # Cores (Table III)
    n_cores: int = 12
    active_cores: Optional[int] = None     # None = all (Fig 11 uses fewer)
    freq_ghz: float = 2.4
    width: int = 4
    rob: int = 256
    mshrs: int = 16

    # Cache hierarchy (scaled 1/8 from Table III; latencies in core cycles)
    l1_kb: int = 16
    l1_ways: int = 8
    l1_hit_cyc: int = 4
    l2_kb: int = 64
    l2_ways: int = 8
    l2_hit_cyc: int = 8
    llc_kb_per_core: int = 256
    llc_ways: int = 16
    llc_hit_cyc: int = 20
    replacement: str = "lru"

    # NoC (Table III)
    mesh_rows: int = 3
    mesh_cols: int = 4
    noc_hop_cyc: int = 3

    # Memory system
    memory_kind: str = "ddr"               # "ddr" | "cxl"
    n_mem_ports: int = 1                   # DDR channels or CXL channels
    ddr_per_cxl: int = 1                   # DDR channels behind each CXL device
    cxl_params: CxlLinkParams = field(default_factory=lambda: X8_CXL)

    # Device realism (repro.cxl.profiles / repro.cxl.slowmedia):
    # named per-device latency profile ("fixed" = the historical model)
    # and the Type-3 capacity medium behind each CXL port.
    device_profile: str = "fixed"
    cxl_backend: str = "ddr"               # "ddr" | "ssd"
    ssd_params: SsdParams = field(default_factory=lambda: DEFAULT_SSD)

    # Tiered memory (repro.tiering): hot/cold page placement between a
    # small local-DDR tier and the CXL tier. None = flat (untiered).
    tiering: Optional[TieringConfig] = None

    # CALM (Section IV-C); baseline default is serial access
    calm_policy: str = "never"

    # Optional L2 prefetcher ("none" | "nextline" | "stride"); off by
    # default so Table IV calibration is unaffected.
    prefetcher: str = "none"
    prefetch_degree: int = 2

    def __post_init__(self) -> None:
        # Parameter records: a plain value here would pass every check
        # below and fail only when the builder reads a field off it.
        for name, kinds, expected in _RECORDS:
            value = getattr(self, name)
            if not isinstance(value, kinds):
                raise TypeError(f"{name} must be {expected}, got "
                                f"{type(value).__name__} {value!r}")
        for name in _AT_LEAST_ONE:
            value = getattr(self, name)
            if not value >= 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")
        if not self.freq_ghz > 0:
            raise ValueError(f"freq_ghz must be > 0, got {self.freq_ghz!r}")
        # Cache geometry and policy names: checked by the code that builds them.
        for names, build, *args in (
                ("l1_kb l1_ways", level_sets, self.l1_kb * 1024, self.l1_ways),
                ("l2_kb l2_ways", level_sets, self.l2_kb * 1024, self.l2_ways),
                ("replacement", make_policy, self.replacement),
                ("calm_policy", make_calm_policy, self.calm_policy),
                ("prefetcher prefetch_degree", make_prefetcher, self.prefetcher,
                 self.prefetch_degree)):
            try:
                build(*args)
            except ValueError as e:
                given = ", ".join(f"{n}={getattr(self, n)!r}" for n in names.split())
                raise ValueError(f"{given}: {e}") from None
        if self.active_cores is None:
            self.active_cores = self.n_cores
        if not 1 <= self.active_cores <= self.n_cores:
            raise ValueError("active_cores out of range")
        if self.memory_kind not in ("ddr", "cxl"):
            raise ValueError(f"memory_kind must be ddr or cxl, got {self.memory_kind!r}")
        if self.mesh_rows * self.mesh_cols < self.n_cores:
            raise ValueError("mesh too small for core count")
        if self.device_profile not in PROFILES:
            raise ValueError(
                f"unknown device_profile {self.device_profile!r}; "
                f"valid: {sorted(PROFILES)}")
        if self.cxl_backend not in ("ddr", "ssd"):
            raise ValueError(
                f"cxl_backend must be ddr or ssd, got {self.cxl_backend!r}")
        if self.tiering is not None and self.memory_kind != "cxl":
            raise ValueError("tiering requires memory_kind='cxl' "
                             "(the far tier is the CXL memory)")
        if self.memory_kind == "ddr":
            for f in dataclasses.fields(self):
                value = getattr(self, f.name)
                if f.name in CXL_ONLY and value != (
                        f.default_factory() if f.default is dataclasses.MISSING
                        else f.default):
                    given = (f"cxl_params {value.name!r}" if f.name == "cxl_params"
                             else f"{f.name}={value!r}")
                    raise ValueError(f"{given} requires a CXL config (memory_kind='cxl')")

    # -- derived ---------------------------------------------------------------
    @property
    def n_ddr_channels(self) -> int:
        """Total memory channels in the system (local tier included)."""
        if self.memory_kind == "ddr":
            return self.n_mem_ports
        local = self.tiering.local_channels if self.tiering is not None else 0
        return local + self.n_mem_ports * self.ddr_per_cxl

    @property
    def llc_total_kb(self) -> int:
        return self.llc_kb_per_core * self.n_cores

    def replace(self, **kwargs) -> "SystemConfig":
        """A modified copy (dataclasses.replace with validation)."""
        return dataclasses.replace(self, **kwargs)


def _flatten(prefix: str, value: Any, out: Dict[str, Any]) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], out)
    else:
        out[prefix] = value


def config_fingerprint(cfg: SystemConfig) -> Dict[str, Any]:
    """The full config as a flat, JSON-serializable dict: every field,
    nested ones (``cxl_params``) included, so every knob keys the cache."""
    flat: Dict[str, Any] = {}
    _flatten("", dataclasses.asdict(cfg), flat)
    return flat


def config_digest(cfg: SystemConfig, short: int = 12) -> str:
    """Short stable hash of one config's complete fingerprint: names the
    exact configuration in violation reports, BENCH records and fuzz
    reproducers, whatever ``cfg.name`` (fuzzed configs share one) says."""
    blob = json.dumps(config_fingerprint(cfg), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:short]


def baseline_config(**overrides) -> SystemConfig:
    """The DDR-based baseline: 12 cores on one DDR5-4800 channel."""
    cfg = SystemConfig(name="ddr-baseline", memory_kind="ddr", n_mem_ports=1)
    return cfg.replace(**overrides) if overrides else cfg


def coaxial_2x_config(**overrides) -> SystemConfig:
    """COAXIAL-2x: 2 CXL channels, LLC unchanged (iso-LLC)."""
    cfg = SystemConfig(
        name="coaxial-2x", memory_kind="cxl", n_mem_ports=2,
        calm_policy="calm_70",
    )
    return cfg.replace(**overrides) if overrides else cfg


def coaxial_config(**overrides) -> SystemConfig:
    """COAXIAL-4x (the default "COAXIAL"): 4 CXL channels, LLC halved."""
    cfg = SystemConfig(
        name="coaxial-4x", memory_kind="cxl", n_mem_ports=4,
        llc_kb_per_core=128, calm_policy="calm_70",
    )
    return cfg.replace(**overrides) if overrides else cfg


def coaxial_5x_config(**overrides) -> SystemConfig:
    """COAXIAL-5x: iso-pin design (5 CXL channels, LLC unchanged, +17% area)."""
    cfg = SystemConfig(
        name="coaxial-5x", memory_kind="cxl", n_mem_ports=5,
        calm_policy="calm_70",
    )
    return cfg.replace(**overrides) if overrides else cfg


def coaxial_asym_config(**overrides) -> SystemConfig:
    """COAXIAL-asym: 4 asymmetric CXL channels, 2 DDR channels each."""
    cfg = SystemConfig(
        name="coaxial-asym", memory_kind="cxl", n_mem_ports=4,
        ddr_per_cxl=2, cxl_params=X8_CXL_ASYM,
        llc_kb_per_core=128, calm_policy="calm_70",
    )
    return cfg.replace(**overrides) if overrides else cfg


def _tiered_config(preset: str, name: str, **overrides) -> SystemConfig:
    """COAXIAL-4x memory with a 1-channel local-DDR tier in front."""
    cfg = SystemConfig(
        name=name, memory_kind="cxl", n_mem_ports=4,
        llc_kb_per_core=128, calm_policy="calm_70",
        tiering=get_tiering(preset),
    )
    return cfg.replace(**overrides) if overrides else cfg


def tiered_static_config(**overrides) -> SystemConfig:
    """Tiered memory, first-touch static pinning (no migration)."""
    return _tiered_config("static", "tiered-static", **overrides)


def tiered_lru_config(**overrides) -> SystemConfig:
    """Tiered memory, LRU-style immediate promotion on hot far pages."""
    return _tiered_config("lru", "tiered-lru", **overrides)


def tiered_epoch_config(**overrides) -> SystemConfig:
    """Tiered memory, periodic epoch migration with per-page copy cost."""
    return _tiered_config("epoch", "tiered-epoch", **overrides)


def cxl_ssd_config(**overrides) -> SystemConfig:
    """COAXIAL-4x ports backed by SSD slow media + on-device DRAM cache.

    The on-chip hierarchy is scaled down hard (L2 32 KB, LLC 16 KB/core):
    capacity-expansion scenarios assume footprints the SRAM hierarchy
    cannot absorb — that is what routes reuse traffic to the on-device
    DRAM cache in the first place, and at Python-scale trace lengths the
    reuse window only clears the LLC with these capacities.
    """
    cfg = SystemConfig(
        name="cxl-ssd", memory_kind="cxl", n_mem_ports=4,
        l2_kb=32, llc_kb_per_core=16, calm_policy="calm_70",
        cxl_backend="ssd",
    )
    return cfg.replace(**overrides) if overrides else cfg


def cxl_profiled_config(**overrides) -> SystemConfig:
    """COAXIAL-4x with the skewed 'demystify-b' device-latency profile."""
    cfg = SystemConfig(
        name="cxl-profiled", memory_kind="cxl", n_mem_ports=4,
        llc_kb_per_core=128, calm_policy="calm_70",
        device_profile="demystify-b",
    )
    return cfg.replace(**overrides) if overrides else cfg


#: All named configurations, for sweep-style benches.
ALL_CONFIGS = {
    "ddr-baseline": baseline_config,
    "coaxial-2x": coaxial_2x_config,
    "coaxial-4x": coaxial_config,
    "coaxial-5x": coaxial_5x_config,
    "coaxial-asym": coaxial_asym_config,
    "tiered-static": tiered_static_config,
    "tiered-lru": tiered_lru_config,
    "tiered-epoch": tiered_epoch_config,
    "cxl-ssd": cxl_ssd_config,
    "cxl-profiled": cxl_profiled_config,
}

#: The five paper configurations (Tables II/III) — the parity suite's
#: default grid; scenario configs have their own suite/goldens.
PAPER_CONFIGS = (
    "ddr-baseline", "coaxial-2x", "coaxial-4x", "coaxial-5x", "coaxial-asym",
)
