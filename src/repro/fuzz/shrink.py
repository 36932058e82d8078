"""Delta-debugging shrinker: minimize a failing fuzz case.

Given a case that fails an oracle, greedily search for the smallest case
that *still fails the same oracle*:

1. drop config overrides one at a time (toward the named base config),
2. halve the op count (toward :data:`MIN_OPS`),
3. normalize the seed to 1.

Each probe re-runs the oracle, so the search is bounded by ``max_probes``
(a failing simulation costs seconds, not microseconds — this is classic
ddmin economics, trading completeness for a budget). The result is what
gets committed to the seed corpus: typically a base config name, zero to
two overrides, and a small op count — a reproducer a human can read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Callable, Optional

from repro.exec.spec import TaskSpec
from repro.fuzz.oracles import run_oracle

MIN_OPS = 200


@dataclass
class ShrinkResult:
    """The minimized case plus search telemetry."""

    case: TaskSpec
    oracle: str
    detail: str                 # failure detail of the minimized case
    probes: int                 # oracle runs spent
    removed_overrides: int
    ops_before: int


def _drop_override(case: TaskSpec, key: str) -> TaskSpec:
    ov = dict(case.overrides)
    del ov[key]
    # active_cores may only exceed n_cores through a stale pairing; when
    # n_cores is dropped the base's 12 cores dominate any generated value,
    # so the pair stays valid without special-casing.
    return dc_replace(case, overrides=ov)


def shrink(case: TaskSpec, oracle: str, max_probes: int = 48,
           log: Optional[Callable[[str], None]] = None) -> Optional[ShrinkResult]:
    """Minimize ``case`` against ``oracle``.

    Returns ``None`` if the case does not actually fail (nothing to
    shrink); otherwise the smallest still-failing case found within the
    probe budget.
    """
    probes = 0

    def fails(c: TaskSpec) -> Optional[str]:
        nonlocal probes
        probes += 1
        try:
            return run_oracle(oracle, c)
        except Exception as e:
            # A case that crashes the oracle still reproduces the problem.
            return f"{type(e).__name__}: {e}"

    detail = fails(case)
    if detail is None:
        return None

    current, current_detail = case, detail
    ops_before = case.ops
    removed = 0

    # Pass 1: ops halving first — smaller runs make every later probe cheaper.
    while current.ops > MIN_OPS and probes < max_probes:
        cand = dc_replace(current, ops=max(MIN_OPS, current.ops // 2))
        d = fails(cand)
        if d is None:
            break
        current, current_detail = cand, d
        if log:
            log(f"shrink: ops -> {current.ops}")

    # Pass 2: drop overrides greedily until a fixpoint.
    improved = True
    while improved and probes < max_probes:
        improved = False
        for key in sorted(current.overrides):
            if probes >= max_probes:
                break
            cand = _drop_override(current, key)
            d = fails(cand)
            if d is not None:
                current, current_detail = cand, d
                removed += 1
                improved = True
                if log:
                    log(f"shrink: dropped override {key}")

    # Pass 3: normalize the seed.
    if current.seed != 1 and probes < max_probes:
        cand = dc_replace(current, seed=1)
        d = fails(cand)
        if d is not None:
            current, current_detail = cand, d
            if log:
                log("shrink: seed -> 1")

    return ShrinkResult(case=current, oracle=oracle, detail=current_detail,
                        probes=probes, removed_overrides=removed,
                        ops_before=ops_before)
