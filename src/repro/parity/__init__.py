"""Paper-parity golden-metrics harness.

- :mod:`repro.parity.registry` — declarative registry of paper claims
  (per-figure/table metric extractors over simulated grids)
- :mod:`repro.parity.evaluate` — reduced-scale evaluation via the cached
  suite runner
- :mod:`repro.parity.golden`   — golden baselines: bless/load/compare with
  pass/warn/fail tolerance verdicts and drift reports
- :mod:`repro.parity.bench`    — events-per-second perf gate against the
  committed ``goldens/bench.json`` baseline

CLI: ``repro parity run|compare|bless`` and ``repro bench compare|bless``.
"""

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Sequence

from repro.parity.bench import (
    BenchVerdict, bless_bench, compare_bench, load_bench_baseline,
    load_bench_record, record_events_per_s,
)
from repro.parity.evaluate import build_context, evaluate
from repro.parity.golden import (
    DEFAULT_GOLDEN_PATH, GoldenError, Verdict, compare, golden_payload,
    load_golden, render_report, worst_status, write_golden,
)
from repro.parity.registry import (
    METRICS, REGISTRY, ParityContext, ParityMetric, ParitySuite, Tolerance,
    get_metric,
)
from repro.parity.scenarios import (
    SCENARIO_GOLDEN_PATH, SCENARIO_REGISTRY, SCENARIO_SUITE,
)


@dataclass(frozen=True)
class ParityFamily:
    """One golden-gated metric family: its registry, its committed golden,
    the suite it is blessed at, and its drift report's title."""

    registry: Sequence[ParityMetric]
    golden_path: Path
    suite: ParitySuite
    title: str


#: The metric families; ``repro parity ... --scenarios`` picks "scenarios".
FAMILIES: Dict[str, ParityFamily] = {
    "paper": ParityFamily(REGISTRY, DEFAULT_GOLDEN_PATH, ParitySuite(),
                          "Parity drift report"),
    "scenarios": ParityFamily(SCENARIO_REGISTRY, SCENARIO_GOLDEN_PATH,
                              SCENARIO_SUITE, "Scenario drift report"),
}

__all__ = [
    "FAMILIES", "ParityFamily",
    "METRICS", "REGISTRY", "ParityContext", "ParityMetric", "ParitySuite",
    "Tolerance", "get_metric",
    "build_context", "evaluate",
    "GoldenError", "Verdict", "compare", "golden_payload", "load_golden",
    "render_report", "worst_status", "write_golden",
    "BenchVerdict", "bless_bench", "compare_bench", "load_bench_baseline",
    "load_bench_record", "record_events_per_s",
]
