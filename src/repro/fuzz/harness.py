"""Fuzz campaign driver: generate, fan out, collect, shrink.

A campaign expands ``--trials`` generated cases into (case, oracle) checks
— one per applicable oracle — and fans them across the generic
:class:`repro.exec.runner.PoolRunner`. Checks are submitted in batches so
a ``--time-budget`` can stop cleanly between batches (nightly CI is
time-boxed; the PR-gate smoke slice runs ~30 s).

Failures are shrunk inline (``workers=1`` semantics: the shrinker re-runs
oracles in this process, where any test monkeypatches still apply) and
written to the seed corpus directory as ready-to-commit reproducers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

from repro.exec.runner import PoolRunner
from repro.exec.spec import TaskSpec
from repro.fuzz.corpus import save_entry
from repro.fuzz.gen import generate_cases
from repro.fuzz.oracles import applicable_oracles, run_oracle
from repro.fuzz.shrink import ShrinkResult, shrink


@dataclass
class FuzzFailure:
    """One failed (case, oracle) check, possibly with a shrunk reproducer."""

    case: TaskSpec
    oracle: str
    detail: str
    shrunk: Optional[ShrinkResult] = None
    corpus_path: Optional[Path] = None


@dataclass
class FuzzReport:
    """Campaign summary."""

    trials: int = 0
    checks_run: int = 0
    checks_passed: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)   # infrastructure faults
    elapsed_s: float = 0.0
    time_exhausted: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures and not self.errors


def _check_worker(item: Tuple[TaskSpec, str]) -> Optional[str]:
    """Pool worker: run one oracle on one case (module-level: picklable)."""
    case, oracle = item
    return run_oracle(oracle, case)


class FuzzRunner:
    """One campaign configuration; :meth:`run` executes it."""

    def __init__(self, trials: int = 50, seed: int = 0,
                 oracles: Optional[List[str]] = None,
                 workers: Optional[int] = None,
                 time_budget_s: Optional[float] = None,
                 shrink_failures: bool = True,
                 max_shrink_probes: int = 48,
                 corpus_dir: Optional[Path] = None,
                 log=None):
        self.trials = trials
        self.seed = seed
        self.oracles = oracles
        self.workers = workers
        self.time_budget_s = time_budget_s
        self.shrink_failures = shrink_failures
        self.max_shrink_probes = max_shrink_probes
        self.corpus_dir = corpus_dir
        self.log = log or (lambda msg: None)

    def run(self) -> FuzzReport:
        t0 = time.perf_counter()
        report = FuzzReport(trials=self.trials)
        cases = generate_cases(self.trials, self.seed)
        checks: List[Tuple[TaskSpec, str]] = []
        for case in cases:
            for name in applicable_oracles(case, self.oracles):
                checks.append((case, name))
        self.log(f"fuzz: {self.trials} cases -> {len(checks)} oracle checks")

        pool = PoolRunner(_check_worker, workers=self.workers, retries=0)
        batch = max(4, 2 * pool.workers)
        raw_failures: List[Tuple[TaskSpec, str, str]] = []
        for lo in range(0, len(checks), batch):
            if (self.time_budget_s is not None
                    and time.perf_counter() - t0 >= self.time_budget_s):
                report.time_exhausted = True
                self.log(f"fuzz: time budget hit after {report.checks_run} checks")
                break
            chunk = checks[lo:lo + batch]
            for out in pool.run(chunk):
                case, name = chunk[out.index]
                report.checks_run += 1
                if out.error is not None:
                    report.errors.append(
                        f"{name} on {case.label()}: {out.error}")
                elif out.value is None:
                    report.checks_passed += 1
                else:
                    raw_failures.append((case, name, out.value))
                    self.log(f"FAIL {name}: {case.label()}: {out.value}")

        for case, name, detail in raw_failures:
            failure = FuzzFailure(case=case, oracle=name, detail=detail)
            if self.shrink_failures:
                self.log(f"shrinking {name} failure ...")
                failure.shrunk = shrink(case, name,
                                        max_probes=self.max_shrink_probes,
                                        log=self.log)
                repro_case = failure.shrunk.case if failure.shrunk else case
                note = (failure.shrunk.detail if failure.shrunk else detail)
                failure.corpus_path = save_entry(
                    repro_case, name, note=note, corpus_dir=self.corpus_dir)
                self.log(f"reproducer: {failure.corpus_path}")
            report.failures.append(failure)

        report.elapsed_s = time.perf_counter() - t0
        return report
