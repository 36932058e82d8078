"""Seeded random generation of valid fuzz cases.

A fuzz case is a :class:`~repro.exec.spec.TaskSpec` with an op count: a
base configuration from :data:`repro.system.config.ALL_CONFIGS` plus a
JSON-able override dict, a catalog workload, an op count, and a seed.
That keeps cases picklable (they cross the process-pool boundary),
diffable (the shrinker removes overrides one by one), and committable (a
corpus entry is one line of JSON), and it is the same job description a
sweep, a served job or a fleet task uses.

Validity is enforced at generation time: every knob is drawn from a domain
that satisfies ``SystemConfig.__post_init__`` *jointly* with the other
knobs (``active_cores <= n_cores``, mesh covers the core count, CXL-only
knobs only on CXL bases), so ``build_job`` never rejects a generated case.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.exec.spec import TaskSpec
from repro.system.config import ALL_CONFIGS
from repro.workloads.catalog import workload_names

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

#: Knobs drawn on CXL bases only. A DDR config refuses every one but
#: ``n_mem_ports`` (:data:`repro.system.config.CXL_ONLY` and ``tiering``),
#: and ``n_mem_ports`` has a DDR domain of its own below. ``tiering`` is
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


def generate_case(seed: int, rng: Optional[random.Random] = None) -> TaskSpec:
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
    return TaskSpec(base=base, overrides=overrides, workload=workload,
                    ops=ops, seed=r.randint(1, 10_000))


def generate_cases(n: int, seed: int) -> List[TaskSpec]:
    """``n`` cases from one master seed (stable across runs/platforms)."""
    master = random.Random(seed)
    return [generate_case(master.randrange(2**31), rng=random.Random(master.randrange(2**31)))
            for _ in range(n)]
