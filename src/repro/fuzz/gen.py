"""Seeded random generation of valid (SystemConfig, workload) fuzz cases.

A :class:`FuzzCase` is deliberately *descriptive*, not constructive: it
names a base configuration from :data:`repro.system.config.ALL_CONFIGS`
plus a JSON-able override dict, a catalog workload, an op count, and a
seed. That keeps cases picklable (they cross the process-pool boundary),
diffable (the shrinker removes overrides one by one), and committable (a
corpus entry is one line of JSON).

Validity is enforced at generation time: every knob is drawn from a domain
that satisfies ``SystemConfig.__post_init__`` *jointly* with the other
knobs (``active_cores <= n_cores``, mesh covers the core count, CXL-only
knobs only on CXL bases), so ``build_config`` never raises on a generated
case.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace as dc_replace
from typing import Any, Dict, Optional, Tuple

from repro.cxl.link import OMI_LIKE, X8_CXL, X8_CXL_ASYM, CxlLinkParams
from repro.system.config import ALL_CONFIGS, SystemConfig
from repro.tiering.config import get_tiering
from repro.workloads.catalog import workload_names

#: The ``cxl_params`` override is spelled as one of these names (keeps the
#: override dict JSON-able; the nested dataclass never enters a case).
CXL_PARAMS_BY_NAME: Dict[str, CxlLinkParams] = {
    "x8": X8_CXL,
    "asym": X8_CXL_ASYM,
    "omi": OMI_LIKE,
}

#: Knob domains the generator draws from. Every value is valid against
#: every base; joint constraints are handled in :func:`generate_case`.
KNOB_DOMAINS: Dict[str, Tuple] = {
    "n_cores": (1, 2, 4, 8, 12),
    "mshrs": (8, 16, 32),
    "l1_kb": (8, 16),
    "l2_kb": (32, 64),
    "llc_kb_per_core": (64, 128, 256),
    "replacement": ("lru", "random", "srrip"),
    "calm_policy": ("never", "always", "mapi", "calm_50", "calm_70", "calm_90"),
    "prefetcher": ("none", "nextline", "stride"),
    "prefetch_degree": (1, 2, 4),
}

#: CXL-only knobs (invalid to override on a DDR base — the builder ignores
#: some and the metamorphic oracles would misread others). ``tiering`` is
#: spelled as a preset name from :data:`repro.tiering.config.TIERING_PRESETS`
#: (or ``None`` = flat) and ``device_profile`` as a name from
#: :data:`repro.cxl.profiles.PROFILES`, keeping the override dict JSON-able.
CXL_KNOB_DOMAINS: Dict[str, Tuple] = {
    "n_mem_ports": (1, 2, 3, 4, 5),
    "ddr_per_cxl": (1, 2),
    "cxl": ("x8", "asym", "omi"),
    "tiering": (None, "static", "lru", "epoch", "epoch-frozen"),
    "device_profile": ("fixed", "demystify-a", "demystify-b", "far-socket"),
    "cxl_backend": ("ddr", "ssd"),
}

#: DDR-only knob domain (a DDR base keeps a smaller port range: the paper's
#: baseline is pin-limited to a handful of parallel DDR channels).
DDR_KNOB_DOMAINS: Dict[str, Tuple] = {
    "n_mem_ports": (1, 2, 4),
}

OPS_RANGE = (300, 1200)


@dataclass(frozen=True)
class FuzzCase:
    """One reproducible fuzz trial: base config + overrides + workload."""

    base: str = "ddr-baseline"
    overrides: Dict[str, Any] = field(default_factory=dict)
    workload: str = "mcf"
    ops: int = 600
    seed: int = 1

    def label(self) -> str:
        ov = ",".join(f"{k}={v}" for k, v in sorted(self.overrides.items()))
        return f"{self.base}[{ov}]/{self.workload}/ops={self.ops}/seed={self.seed}"

    # -- (de)serialization — one compact line of JSON per case ---------------
    def to_dict(self) -> Dict[str, Any]:
        return {"base": self.base, "overrides": dict(self.overrides),
                "workload": self.workload, "ops": self.ops, "seed": self.seed}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "FuzzCase":
        return cls(base=d["base"], overrides=dict(d.get("overrides", {})),
                   workload=d["workload"], ops=int(d["ops"]),
                   seed=int(d.get("seed", 1)))

    @classmethod
    def from_json(cls, blob: str) -> "FuzzCase":
        return cls.from_dict(json.loads(blob))


def build_config(case: FuzzCase) -> SystemConfig:
    """Materialize the case's :class:`SystemConfig` (never raises on a
    generated case — the generator's domains satisfy ``__post_init__``)."""
    if case.base not in ALL_CONFIGS:
        raise KeyError(f"unknown base config {case.base!r}; valid: {list(ALL_CONFIGS)}")
    cfg = ALL_CONFIGS[case.base]()
    kwargs: Dict[str, Any] = {}
    for k, v in case.overrides.items():
        if k == "cxl":
            kwargs["cxl_params"] = CXL_PARAMS_BY_NAME[v]
        elif k == "tiering":
            kwargs["tiering"] = None if v is None else get_tiering(v)
        else:
            kwargs[k] = v
    # n_cores shrinking implies active_cores shrinking; keep them coupled
    # unless the case pins active_cores explicitly.
    if "n_cores" in kwargs and "active_cores" not in kwargs:
        kwargs["active_cores"] = kwargs["n_cores"]
    return dc_replace(cfg, **kwargs) if kwargs else cfg


def with_config_override(case: FuzzCase, **overrides: Any) -> SystemConfig:
    """The case's config with extra field overrides applied on top (used by
    metamorphic oracles to build the transformed twin of a case)."""
    return dc_replace(build_config(case), **overrides)


def generate_case(seed: int, rng: Optional[random.Random] = None) -> FuzzCase:
    """Draw one valid random case, fully determined by ``seed``.

    Each knob is independently overridden with probability ~40%, so cases
    near the named bases (few overrides) and deep in the cross-product
    (many overrides) both occur; the shrinker walks back toward the base.
    """
    r = rng if rng is not None else random.Random(seed)
    base = r.choice(sorted(ALL_CONFIGS))
    is_cxl = ALL_CONFIGS[base]().memory_kind == "cxl"
    overrides: Dict[str, Any] = {}
    for knob, domain in KNOB_DOMAINS.items():
        if r.random() < 0.4:
            overrides[knob] = r.choice(domain)
    extra = CXL_KNOB_DOMAINS if is_cxl else DDR_KNOB_DOMAINS
    for knob, domain in extra.items():
        if r.random() < 0.4:
            overrides[knob] = r.choice(domain)
    if "n_cores" in overrides and r.random() < 0.5:
        overrides["active_cores"] = r.randint(1, overrides["n_cores"])
    # ddr_per_cxl > 1 only makes sense with the asym-style fan-out; keep
    # the plain-x8 pairing too (it is valid), but drop pathological
    # ddr_per_cxl on tiny port counts half the time to spend trials better.
    workload = r.choice(workload_names())
    ops = r.randint(*OPS_RANGE)
    return FuzzCase(base=base, overrides=overrides, workload=workload,
                    ops=ops, seed=r.randint(1, 10_000))


def generate_cases(n: int, seed: int) -> "list[FuzzCase]":
    """``n`` cases from one master seed (stable across runs/platforms)."""
    master = random.Random(seed)
    return [generate_case(master.randrange(2**31), rng=random.Random(master.randrange(2**31)))
            for _ in range(n)]
