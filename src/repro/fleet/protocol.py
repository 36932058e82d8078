"""Wire protocol of the sweep fleet: task specs and result payloads.

A fleet task is *descriptive*, not constructive (the same design as
:class:`repro.fuzz.gen.FuzzCase`): a :class:`TaskSpec` names a base
configuration from :data:`repro.system.config.ALL_CONFIGS` plus a
JSON-able override dict, a catalog workload, an op count, and a seed.
That keeps every message one small JSON document — specs cross process
and host boundaries, ride in HTTP bodies, and diff cleanly — while the
worker materializes the exact :class:`SystemConfig` locally. Overrides
use the same spelling the fuzzer's corpus uses (``"cxl": "asym"`` names
a :data:`~repro.fuzz.gen.CXL_PARAMS_BY_NAME` entry), so a campaign
search point and a fuzz reproducer describe configs identically.

Results travel as the cache's own serialization: ``dataclasses.asdict``
of :class:`SimResult`, reconstructed with ``SimResult(**payload)`` — the
exact round trip the content-addressed disk cache already relies on, so
a result settled over the wire is bit-identical to one settled through a
shared cache directory.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.exec.runner import JobResult, SweepJob
from repro.system.config import ALL_CONFIGS, SystemConfig
from repro.system.stats import SimResult

__all__ = [
    "TaskSpec", "build_spec_config", "expand_specs",
    "result_to_wire", "result_from_wire",
]


@dataclass(frozen=True)
class TaskSpec:
    """One unit of fleet work: a descriptive, JSON-able simulation job."""

    base: str = "ddr-baseline"
    overrides: Dict[str, Any] = field(default_factory=dict)
    workload: str = "mcf"
    ops: Optional[int] = None
    seed: int = 1
    #: Forwarded to ``simulate(...)`` exactly like the SweepJob fields of
    #: the same names (none of them joins the cache key).
    validate: Optional[str] = None
    obs: Optional[str] = None
    tracing: Optional[str] = None
    #: Distributed trace id: minted at ``repro serve`` submit, carried
    #: through broker lease -> worker settle so the worker-side span
    #: export (and ``extras["trace"]``) names the originating job.
    trace_id: Optional[str] = None

    def label(self) -> str:
        ov = ",".join(f"{k}={v}" for k, v in sorted(self.overrides.items()))
        tag = f"[{ov}]" if ov else ""
        return f"{self.base}{tag}/{self.workload}/ops={self.ops}/seed={self.seed}"

    # -- (de)serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {"base": self.base, "workload": self.workload,
                             "ops": self.ops, "seed": self.seed}
        if self.overrides:
            d["overrides"] = dict(self.overrides)
        for key in ("validate", "obs", "tracing", "trace_id"):
            val = getattr(self, key)
            if val is not None:
                d[key] = val
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "TaskSpec":
        if not isinstance(d, dict):
            raise ValueError(f"task spec must be an object, got {type(d).__name__}")
        unknown = set(d) - {"base", "overrides", "workload", "ops", "seed",
                            "validate", "obs", "tracing", "trace_id"}
        if unknown:
            raise ValueError(f"unknown task spec field(s): {sorted(unknown)}")
        return cls(base=d.get("base", "ddr-baseline"),
                   overrides=dict(d.get("overrides") or {}),
                   workload=d.get("workload", "mcf"),
                   ops=d.get("ops"), seed=int(d.get("seed", 1)),
                   validate=d.get("validate"), obs=d.get("obs"),
                   tracing=d.get("tracing"), trace_id=d.get("trace_id"))

    # -- materialization -------------------------------------------------------
    def build_job(self) -> SweepJob:
        """The executable :class:`SweepJob` this spec describes."""
        return SweepJob(config=build_spec_config(self.base, self.overrides),
                        workload=self.workload, ops=self.ops, seed=self.seed,
                        validate=self.validate, obs=self.obs,
                        tracing=self.tracing, trace_id=self.trace_id)


def build_spec_config(base: str, overrides: Dict[str, Any]) -> SystemConfig:
    """Materialize ``base`` + overrides into a :class:`SystemConfig`.

    Mirrors :func:`repro.fuzz.gen.build_config` (same override spelling,
    same ``n_cores``/``active_cores`` coupling) so fleet specs and fuzz
    cases describe configurations identically.
    """
    from repro.fuzz.gen import CXL_PARAMS_BY_NAME

    if base not in ALL_CONFIGS:
        raise KeyError(f"unknown base config {base!r}; valid: {list(ALL_CONFIGS)}")
    cfg = ALL_CONFIGS[base]()
    kwargs: Dict[str, Any] = {}
    for k, v in overrides.items():
        if k == "cxl":
            if v not in CXL_PARAMS_BY_NAME:
                raise KeyError(f"unknown cxl params {v!r}; "
                               f"valid: {list(CXL_PARAMS_BY_NAME)}")
            kwargs["cxl_params"] = CXL_PARAMS_BY_NAME[v]
        else:
            kwargs[k] = v
    if "n_cores" in kwargs and "active_cores" not in kwargs:
        kwargs["active_cores"] = kwargs["n_cores"]
    return cfg.replace(**kwargs) if kwargs else cfg


def expand_specs(configs: Sequence[str], workloads: Sequence[str],
                 ops: Optional[int] = None, seeds: Sequence[int] = (1,),
                 validate: Optional[str] = None, obs: Optional[str] = None,
                 tracing: Optional[str] = None,
                 trace_id: Optional[str] = None) -> List[TaskSpec]:
    """The (config x workload x seed) grid as specs (cf. ``expand_grid``)."""
    specs = []
    for c in configs:
        if c not in ALL_CONFIGS:
            raise KeyError(f"unknown config {c!r}; valid: {list(ALL_CONFIGS)}")
        for w in workloads:
            for s in seeds:
                specs.append(TaskSpec(base=c, workload=w, ops=ops, seed=s,
                                      validate=validate, obs=obs,
                                      tracing=tracing, trace_id=trace_id))
    return specs


def result_to_wire(jr: JobResult) -> Dict[str, Any]:
    """One settled job's execution record as a JSON-able payload.

    The spec identifies the task, so only the outcome rides here.
    """
    return {
        "result": None if jr.result is None else dataclasses.asdict(jr.result),
        "wall_s": jr.wall_s,
        "events": jr.events,
        "cached": jr.cached,
        "attempts": jr.attempts,
        "error": jr.error,
    }


def result_from_wire(job: SweepJob, payload: Dict[str, Any]) -> JobResult:
    """Reconstruct a :class:`JobResult` from its wire payload."""
    raw = payload.get("result")
    result = SimResult(**raw) if raw is not None else None
    return JobResult(job=job, result=result,
                     wall_s=float(payload.get("wall_s", 0.0)),
                     events=int(payload.get("events", 0)),
                     cached=bool(payload.get("cached", False)),
                     attempts=int(payload.get("attempts", 0)),
                     error=payload.get("error"))
