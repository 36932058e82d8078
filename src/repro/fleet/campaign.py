"""Campaign driver: successive-halving search over the config space.

A campaign replaces a static sweep grid with a budgeted search. The
space is the cartesian product of knob values (``parse_search`` turns
``"calm_budget=4,8,16;cxl=x8,asym"`` into candidates — each candidate is
one override dict applied to a base config). Successive halving then
spends simulation budget adaptively: every surviving candidate runs at
the current rung's op count, the top ``1/eta`` by objective advance, and
the next rung multiplies the op budget by ``eta``. Bad configurations
are eliminated on cheap short runs; only contenders get long ones.

The driver is executor-agnostic: anything with
``run(specs) -> List[JobResult]`` works, so the same campaign runs on an
in-process pool (:class:`~repro.exec.runner.LocalExecutor`) or a fleet
of hosts (:class:`~repro.fleet.client.FleetClient`). All rung specs are
submitted as one batch per rung, which is exactly the shape the broker's
work-stealing lease loop load-balances well. A rung in which every
candidate failed raises :class:`CampaignFailed` instead of crowning one.

Objectives (all scored per candidate as the mean across its workloads):

``ipc``
    maximize mean committed IPC;
``miss_latency``
    minimize mean average miss latency (ns);
``speedup``
    maximize geometric-mean IPC ratio vs the *unmodified* base config
    run at the same rung budget (the baseline rides along every rung, so
    the comparison is always like-for-like).

Ties break deterministically by candidate label.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Dict, List, Optional, Sequence

from repro.exec.runner import JobResult
from repro.exec.spec import SpecError, TaskSpec

__all__ = ["Campaign", "CampaignFailed", "CampaignResult", "Candidate",
           "OBJECTIVES", "parse_search", "run_campaign"]

#: objective name -> (higher_is_better, result field description)
OBJECTIVES = {
    "ipc": True,
    "miss_latency": False,
    "speedup": True,
}


class CampaignFailed(RuntimeError):
    """Every candidate of a rung failed, so there is no winner."""


@dataclass(frozen=True)
class Candidate:
    """One point in the search space: a base config plus overrides."""

    base: str
    overrides: Dict[str, Any] = field(default_factory=dict)

    def label(self) -> str:
        ov = ",".join(f"{k}={v}" for k, v in sorted(self.overrides.items()))
        return f"{self.base}[{ov}]" if ov else self.base

    def specs(self, workloads: Sequence[str], ops: int, seed: int,
              obs: Optional[str]) -> List[TaskSpec]:
        return [TaskSpec(base=self.base, overrides=dict(self.overrides),
                         workload=w, ops=ops, seed=seed, obs=obs)
                for w in workloads]


def parse_search(search: str) -> List[Candidate]:
    """Expand a ``knob=v1,v2;knob2=v3,v4`` search string (for one base).

    Values are parsed as JSON scalars where possible (``4`` -> int,
    ``0.5`` -> float, ``true`` -> bool) and kept as strings otherwise
    (``cxl=asym`` names a CXL parameter preset). The base config is
    attached by the caller; this returns override dicts only, as
    candidates with ``base=""`` placeholders replaced via
    :func:`attach_base`.
    """
    knobs: List[str] = []
    values: List[List[Any]] = []
    for clause in filter(None, (c.strip() for c in search.split(";"))):
        knob, sep, raw = clause.partition("=")
        if not sep or not knob.strip() or not raw.strip():
            raise SpecError(f"bad search clause {clause!r} "
                            "(want knob=v1,v2,...)")
        vals: List[Any] = []
        for tok in filter(None, (t.strip() for t in raw.split(","))):
            try:
                vals.append(json.loads(tok))
            except json.JSONDecodeError:
                vals.append(tok)
        knobs.append(knob.strip())
        values.append(vals)
    if not knobs:
        raise SpecError("empty search space")
    return [Candidate(base="", overrides=dict(zip(knobs, combo)))
            for combo in product(*values)]


def attach_base(candidates: Sequence[Candidate], base: str) -> List[Candidate]:
    return [Candidate(base=base, overrides=c.overrides) for c in candidates]


@dataclass
class CampaignResult:
    """Outcome of one campaign: the winner plus the full rung history."""

    objective: str
    winner: Candidate
    winner_score: float
    rungs: List[Dict[str, Any]]
    total_jobs: int
    total_sim_wall_s: float
    cache_hits: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "objective": self.objective,
            "winner": {"base": self.winner.base,
                       "overrides": self.winner.overrides,
                       "label": self.winner.label(),
                       "score": self.winner_score},
            "rungs": self.rungs,
            "total_jobs": self.total_jobs,
            "total_sim_wall_s": round(self.total_sim_wall_s, 3),
            "cache_hits": self.cache_hits,
        }


class Campaign:
    """Successive halving over candidates, on any executor."""

    def __init__(self, executor: Any, candidates: Sequence[Candidate],
                 workloads: Sequence[str], objective: str = "ipc",
                 ops0: int = 500, eta: int = 3, max_rungs: int = 4,
                 seed: int = 1, obs: Optional[str] = None,
                 log: Any = lambda msg: None):
        if objective not in OBJECTIVES:
            raise SpecError(f"unknown objective {objective!r}; "
                            f"valid: {list(OBJECTIVES)}")
        if not candidates:
            raise SpecError("campaign needs at least one candidate")
        if eta < 2:
            raise SpecError("eta must be >= 2")
        # miss-latency scoring reads avg_miss_latency from SimResult
        # directly; obs histograms are only needed for fleet quantile
        # reporting, so campaigns don't force obs on.
        self.executor = executor
        self.candidates = sorted(candidates, key=lambda c: c.label())
        self.workloads = list(workloads)
        self.objective = objective
        self.ops0 = ops0
        self.eta = eta
        self.max_rungs = max_rungs
        self.seed = seed
        self.obs = obs
        self.log = log

    # -- scoring ---------------------------------------------------------------
    def _score(self, cand_results: List[JobResult],
               base_results: Dict[str, JobResult]) -> float:
        ok = [jr for jr in cand_results if jr.result is not None]
        if not ok:
            # A candidate whose every job failed always loses the rung.
            return -math.inf if OBJECTIVES[self.objective] else math.inf
        if self.objective == "ipc":
            return sum(jr.result.ipc for jr in ok) / len(ok)
        if self.objective == "miss_latency":
            return sum(jr.result.avg_miss_latency for jr in ok) / len(ok)
        # speedup: geomean of per-workload IPC ratio vs the baseline run
        ratios = []
        for jr in ok:
            base = base_results.get(jr.job.workload)
            if base is None or base.result is None or base.result.ipc <= 0:
                continue
            ratios.append(jr.result.ipc / base.result.ipc)
        if not ratios:
            return -math.inf
        return math.exp(sum(math.log(r) for r in ratios) / len(ratios))

    # -- driving ---------------------------------------------------------------
    def run(self) -> CampaignResult:
        higher = OBJECTIVES[self.objective]
        alive = list(self.candidates)
        history: List[Dict[str, Any]] = []
        total_jobs = 0
        total_wall = 0.0
        cache_hits = 0
        winner_score = 0.0
        for rung in range(self.max_rungs):
            ops = self.ops0 * (self.eta ** rung)
            need_base = self.objective == "speedup"
            baseline = Candidate(base=alive[0].base)
            specs: List[TaskSpec] = []
            spans: List[tuple] = []      # (candidate, start, end) into specs
            for cand in alive:
                start = len(specs)
                specs.extend(cand.specs(self.workloads, ops, self.seed,
                                        self.obs))
                spans.append((cand, start, len(specs)))
            base_start = len(specs)
            if need_base and baseline not in alive:
                specs.extend(baseline.specs(self.workloads, ops, self.seed,
                                            self.obs))
            self.log(f"rung {rung}: {len(alive)} candidate(s) x "
                     f"{len(self.workloads)} workload(s) at ops={ops} "
                     f"({len(specs)} job(s))")
            results = self.executor.run(specs)
            total_jobs += len(results)
            total_wall += sum(jr.wall_s for jr in results if not jr.cached)
            cache_hits += sum(1 for jr in results if jr.cached)
            base_results: Dict[str, JobResult] = {}
            if need_base:
                src = (results[base_start:] if baseline not in alive else
                       next(results[s:e] for c, s, e in spans
                            if c == baseline))
                base_results = {jr.job.workload: jr for jr in src}
            scored = sorted(
                ((self._score(results[s:e], base_results), cand)
                 for cand, s, e in spans),
                key=lambda t: ((-t[0] if higher else t[0]), t[1].label()))
            if all(math.isinf(score) for score, _ in scored):
                first = next((jr.error for jr in results if jr.error),
                             "no job produced a finite score")
                raise CampaignFailed(f"rung {rung}: every candidate failed; "
                                     f"first error: {first}")
            keep = max(1, math.ceil(len(alive) / self.eta))
            history.append({
                "rung": rung, "ops": ops,
                "candidates": [{"label": cand.label(),
                                "score": None if math.isinf(score)
                                else round(score, 6),
                                "kept": i < keep}
                               for i, (score, cand) in enumerate(scored)],
            })
            for i, (score, cand) in enumerate(scored):
                mark = "+" if i < keep else "-"
                self.log(f"  {mark} {cand.label()}: "
                         f"{self.objective}={score:.4f}")
            winner_score = scored[0][0]
            alive = [cand for _, cand in scored[:keep]]
            if len(alive) == 1:
                break
        return CampaignResult(objective=self.objective, winner=alive[0],
                              winner_score=winner_score, rungs=history,
                              total_jobs=total_jobs,
                              total_sim_wall_s=total_wall,
                              cache_hits=cache_hits)


def run_campaign(executor: Any, base: str, search: str,
                 workloads: Sequence[str], objective: str = "ipc",
                 ops0: int = 500, eta: int = 3, max_rungs: int = 4,
                 seed: int = 1, obs: Optional[str] = None,
                 log: Any = lambda msg: None) -> CampaignResult:
    """Parse a search string and drive a campaign over ``executor``.

    Every input is validated before any rung runs: a
    :class:`~repro.exec.spec.SpecError` names the bad one.
    """
    candidates = attach_base(parse_search(search), base)
    for cand in candidates:
        for spec in cand.specs(workloads, ops0, seed, obs):
            spec.build_job()
    return Campaign(executor, candidates, workloads, objective=objective,
                    ops0=ops0, eta=eta, max_rungs=max_rungs, seed=seed,
                    obs=obs, log=log).run()
