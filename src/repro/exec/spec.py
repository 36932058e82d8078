"""The two job records, with the one validator, materializer and grid expander.

A :class:`TaskSpec` is the one description of a simulation job: a base
configuration from :data:`~repro.system.config.ALL_CONFIGS`, a JSON-able
override dict, a catalog workload, an op count, a seed and the observer
modes. ``repro run``/``sweep``/``campaign`` flags, ``repro serve``'s
``POST /jobs``, the fleet broker's ``POST /tasks`` and the fuzzer's
generator and corpus all build one. It is descriptive, not constructive:
it pickles, rides in an HTTP body as one small JSON object and diffs
cleanly, so it crosses process and host boundaries unchanged.

:meth:`TaskSpec.build_job` is the one validator: it checks every field,
raising a :class:`SpecError` that names the field, and materializes the
:class:`SweepJob` — a concrete :class:`SystemConfig` plus the run knobs —
that the process pool, the fleet worker and the result cache execute.

Overrides name ``SystemConfig`` fields, with two JSON-able spellings:
``"cxl"`` names a :data:`CXL_PARAMS_BY_NAME` link preset (in place of
``cxl_params``) and ``"tiering"`` names a
:data:`~repro.tiering.config.TIERING_PRESETS` preset, ``null`` meaning
flat memory. ``device_profile`` already is a name.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.cxl.link import OMI_LIKE, X8_CXL, X8_CXL_ASYM, CxlLinkParams
from repro.cxl.profiles import PROFILES
from repro.observer import MODES, resolve_mode
from repro.system.config import ALL_CONFIGS, SystemConfig
from repro.tiering.config import TIERING_PRESETS, get_tiering
from repro.workloads.catalog import workload_names

__all__ = ["CXL_PARAMS_BY_NAME", "SpecError", "SweepJob", "TaskSpec",
           "build_config", "expand_specs"]

#: The ``cxl`` override names one of these link presets.
CXL_PARAMS_BY_NAME: Dict[str, CxlLinkParams] = {
    "x8": X8_CXL,
    "asym": X8_CXL_ASYM,
    "omi": OMI_LIKE,
}

#: Override keys whose value is a preset name, and the presets they name.
_NAMED_OVERRIDES: Dict[str, Mapping[str, Any]] = {
    "cxl": CXL_PARAMS_BY_NAME,
    "tiering": TIERING_PRESETS,
    "device_profile": PROFILES,
}

#: Every other override key is a plain ``SystemConfig`` field.
_CONFIG_FIELDS = frozenset(
    f.name for f in dataclasses.fields(SystemConfig)) - {"cxl_params"}

_SPEC_FIELDS = ("base", "overrides", "workload", "ops", "seed",
                "validate", "obs", "tracing", "trace_id")


class SpecError(ValueError):
    """A task spec is invalid; the message starts with the field's name."""


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class SweepJob:
    """One materialized job: what the pool, the worker and the cache run."""

    config: SystemConfig
    workload: str
    ops: Optional[int] = None
    seed: int = 1
    #: Observer modes forwarded to ``simulate(validate=, obs=, tracing=)``
    #: (None = the environment default). Observers never change results,
    #: so none joins the cache key, and a cache hit returns the stored
    #: result as-is, without an ``extras`` payload it was stored without.
    validate: Optional[str] = None
    obs: Optional[str] = None
    tracing: Optional[str] = None
    #: Distributed trace id (minted at ``repro serve`` submit or once per
    #: traced ``repro sweep``), stamped into a freshly simulated result's
    #: ``extras["trace"]["trace_id"]``; never part of the cache key.
    trace_id: Optional[str] = None

    def label(self) -> str:
        return (f"{self.config.name}/{self.workload}/ops={self.ops}"
                f"/seed={self.seed}")


@dataclass(frozen=True)
class TaskSpec:
    """One simulation job, described by names and JSON values."""

    base: str = "ddr-baseline"
    overrides: Dict[str, Any] = field(default_factory=dict)
    workload: str = "mcf"
    ops: Optional[int] = None
    seed: int = 1
    #: Forwarded to ``simulate(...)`` through the SweepJob fields of the
    #: same names (none of them joins the cache key).
    validate: Optional[str] = None
    obs: Optional[str] = None
    tracing: Optional[str] = None
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
        """Parse the wire form and check its fields; unknown fields fail."""
        if not isinstance(d, dict):
            raise SpecError(f"task spec must be an object, "
                            f"got {type(d).__name__}")
        unknown = set(d) - set(_SPEC_FIELDS)
        if unknown:
            raise SpecError(f"unknown task spec field(s): {sorted(unknown)}")
        return cls(**{**d, "overrides": d.get("overrides") or {}}).check()

    # -- validation and materialization ----------------------------------------
    def check(self) -> "TaskSpec":
        """Check every field on its own; returns ``self``.

        :meth:`build_job` adds the joint constraints, which only the
        materialized ``SystemConfig`` knows.
        """
        if not isinstance(self.base, str) or self.base not in ALL_CONFIGS:
            raise SpecError(f"'base' must name a config, got {self.base!r}; "
                            f"valid: {list(ALL_CONFIGS)}")
        if not isinstance(self.workload, str) \
                or self.workload not in workload_names():
            raise SpecError(f"'workload' must name a catalog workload, "
                            f"got {self.workload!r}")
        if self.ops is not None and not (_is_int(self.ops) and self.ops > 0):
            raise SpecError(f"'ops' must be a positive integer or null, "
                            f"got {self.ops!r}")
        if not _is_int(self.seed):
            raise SpecError(f"'seed' must be an integer, got {self.seed!r}")
        for kind in ("validate", "obs", "tracing"):
            value = getattr(self, kind)
            if value is None:
                continue
            try:
                resolve_mode(kind, value)
            except ValueError:
                raise SpecError(f"'{kind}' must be one of {MODES[kind]}, "
                                f"got {value!r}") from None
        if not isinstance(self.overrides, dict):
            raise SpecError(f"'overrides' must be an object, "
                            f"got {type(self.overrides).__name__}")
        for key, value in self.overrides.items():
            names = _NAMED_OVERRIDES.get(key)
            if names is not None:
                if not ((isinstance(value, str) and value in names)
                        or (key == "tiering" and value is None)):
                    flat = " or null" if key == "tiering" else ""
                    raise SpecError(f"'{key}' must be one of "
                                    f"{sorted(names)}{flat}, got {value!r}")
            elif key not in _CONFIG_FIELDS:
                raise SpecError(f"'overrides' key {key!r} is neither 'cxl' "
                                f"nor a SystemConfig field")
        return self

    def build_job(self) -> SweepJob:
        """Validate the spec and materialize the job it describes."""
        self.check()
        try:
            config = build_config(self.base, self.overrides)
        except (TypeError, ValueError) as e:
            raise SpecError(f"'overrides' do not apply to {self.base!r}: "
                            f"{e}") from None
        return SweepJob(config=config, workload=self.workload, ops=self.ops,
                        seed=self.seed, validate=self.validate, obs=self.obs,
                        tracing=self.tracing, trace_id=self.trace_id)


def build_config(base: str, overrides: Mapping[str, Any]) -> SystemConfig:
    """Materialize ``base`` plus spec-spelled overrides into a config.

    Setting ``n_cores`` also sets ``active_cores`` unless the overrides
    pin it. ``SystemConfig.__post_init__`` checks the joint constraints.
    """
    kwargs = dict(overrides)
    if "cxl" in kwargs:
        kwargs["cxl_params"] = CXL_PARAMS_BY_NAME[kwargs.pop("cxl")]
    if kwargs.get("tiering") is not None:
        kwargs["tiering"] = get_tiering(kwargs["tiering"])
    if "n_cores" in kwargs and "active_cores" not in kwargs:
        kwargs["active_cores"] = kwargs["n_cores"]
    cfg = ALL_CONFIGS[base]()
    return cfg.replace(**kwargs) if kwargs else cfg


def expand_specs(configs: Sequence[str], workloads: Sequence[str],
                 ops: Optional[int] = None, seeds: Sequence[int] = (1,),
                 overrides: Optional[Mapping[str, Any]] = None,
                 validate: Optional[str] = None, obs: Optional[str] = None,
                 tracing: Optional[str] = None,
                 trace_id: Optional[str] = None) -> List[TaskSpec]:
    """The (config x workload x seed) grid, ``overrides`` on every point."""
    return [TaskSpec(base=c, overrides=dict(overrides or {}), workload=w,
                     ops=ops, seed=s, validate=validate, obs=obs,
                     tracing=tracing, trace_id=trace_id)
            for c in configs for w in workloads for s in seeds]
