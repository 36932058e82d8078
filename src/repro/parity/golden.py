"""Golden parity baselines: bless, load, compare, report.

A golden file (``goldens/parity.json``) records the value of every
registry metric at one blessed evaluation, together with the exact suite
spec (configs/workloads/ops/seed) it was measured at. ``compare`` re-runs
the same suite and grades each metric's drift through its registry
tolerance into a three-state verdict:

``pass``
    within the warn band — normal numeric noise.
``warn``
    between the warn and fail bands — suspicious, surfaced in the report;
    fails the gate only under ``--strict``.
``fail``
    beyond the fail band, or outside the registry's sanity band — a
    scientific regression (or an intentional recalibration that must be
    explicitly re-blessed via ``repro parity bless``).

Metrics present only on one side get ``new`` (in the registry, not yet
blessed) or ``stale`` (blessed, no longer in the registry) verdicts; both
behave like ``warn``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro import __version__
from repro.exportutil import GoldenError, read_json_object, write_json
from repro.parity.registry import REGISTRY, ParityMetric, ParitySuite

GOLDEN_SCHEMA_VERSION = 1

#: Default location of the committed parity golden (repo-relative).
DEFAULT_GOLDEN_PATH = Path("goldens") / "parity.json"


@dataclass
class Verdict:
    """Graded drift of one metric versus its blessed golden value."""

    id: str
    status: str                    # pass | warn | fail | new | stale
    measured: Optional[float] = None
    golden: Optional[float] = None
    unit: str = ""
    paper: Optional[float] = None
    note: str = ""

    @property
    def drift_abs(self) -> Optional[float]:
        if self.measured is None or self.golden is None:
            return None
        return self.measured - self.golden

    @property
    def drift_rel(self) -> Optional[float]:
        if self.measured is None or self.golden is None:
            return None
        return (self.measured - self.golden) / max(abs(self.golden), 1e-12)


def golden_payload(values: Dict[str, float], suite: ParitySuite,
                   registry: Sequence[ParityMetric] = REGISTRY,
                   ) -> Dict[str, Any]:
    """Assemble the JSON body of a golden file from measured values."""
    metrics = {}
    for m in registry:
        if m.id not in values:
            continue
        metrics[m.id] = {
            "value": round(float(values[m.id]), 6),
            "unit": m.unit,
            "figure": m.figure,
            "paper": m.paper,
            "description": m.description,
        }
    return {
        "schema": GOLDEN_SCHEMA_VERSION,
        "version": __version__,
        "suite": suite.to_json(),
        "metrics": metrics,
    }


def write_golden(payload: Dict[str, Any], path: os.PathLike) -> Path:
    """Atomically write a golden payload; returns the file path."""
    return write_json(path, payload, indent=2)


def load_golden(path: os.PathLike) -> Dict[str, Any]:
    """Load and structurally validate a golden file.

    Raises :class:`GoldenError` with a actionable message on any problem —
    the CLI maps this to exit code 2 (usage/infrastructure error, distinct
    from a scientific drift failure).
    """
    p = Path(path)
    payload = read_json_object(p, "golden file",
                               "; run `repro parity bless` first")
    if payload.get("schema") != GOLDEN_SCHEMA_VERSION:
        raise GoldenError(
            f"golden file {p}: schema {payload.get('schema')!r} != "
            f"{GOLDEN_SCHEMA_VERSION}; re-bless with this code version")
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        raise GoldenError(f"golden file {p}: no 'metrics' mapping")
    for mid, entry in metrics.items():
        if not isinstance(entry, dict) or not isinstance(
                entry.get("value"), (int, float)):
            raise GoldenError(
                f"golden file {p}: metric {mid!r} has no numeric 'value'")
    try:
        ParitySuite.from_json(payload.get("suite") or {})
    except (KeyError, TypeError, ValueError) as e:
        raise GoldenError(f"golden file {p}: bad 'suite' spec: {e}") from None
    return payload


def golden_suite(payload: Dict[str, Any]) -> ParitySuite:
    """The suite spec a golden payload was blessed at."""
    return ParitySuite.from_json(payload["suite"])


def compare(measured: Dict[str, float], payload: Dict[str, Any],
            registry: Sequence[ParityMetric] = REGISTRY) -> List[Verdict]:
    """Grade every metric's drift; registry order, stale entries last."""
    golden_metrics: Dict[str, Any] = payload["metrics"]
    verdicts: List[Verdict] = []
    for m in registry:
        if m.id not in measured:
            continue
        value = measured[m.id]
        entry = golden_metrics.get(m.id)
        if entry is None:
            verdicts.append(Verdict(
                id=m.id, status="new", measured=value, unit=m.unit,
                paper=m.paper, note="not in golden; bless to pin"))
            continue
        gold = float(entry["value"])
        status = m.tol.verdict(value, gold)
        note = ""
        if not m.in_band(value):
            status = "fail"
            lo, hi = m.band
            note = f"outside sanity band [{lo:g}, {hi:g}]"
        verdicts.append(Verdict(id=m.id, status=status, measured=value,
                                golden=gold, unit=m.unit, paper=m.paper,
                                note=note))
    known = {m.id for m in registry}
    for mid, entry in golden_metrics.items():
        if mid not in known:
            verdicts.append(Verdict(
                id=mid, status="stale", golden=float(entry["value"]),
                note="in golden but no longer in the registry"))
    return verdicts


def worst_status(verdicts: Sequence[Verdict], strict: bool = False) -> int:
    """Gate exit code: 1 on any fail (or any non-pass under strict)."""
    if any(v.status == "fail" for v in verdicts):
        return 1
    if strict and any(v.status != "pass" for v in verdicts):
        return 1
    return 0


def _fmt(x: Optional[float]) -> str:
    return "-" if x is None else f"{x:.4g}"


def render_report(verdicts: Sequence[Verdict], suite: ParitySuite,
                  title: str = "Parity drift report") -> str:
    """Markdown drift report (CI uploads this as an artifact)."""
    counts: Dict[str, int] = {}
    for v in verdicts:
        counts[v.status] = counts.get(v.status, 0) + 1
    summary = ", ".join(f"{n} {s}" for s, n in sorted(counts.items()))
    lines = [
        f"# {title}",
        "",
        f"Verdicts: {summary or 'none'}",
        f"Suite: {len(suite.configs)} configs x {len(suite.workloads)} "
        f"workloads, ops={suite.ops}, seed={suite.seed}",
        "",
        "| metric | status | measured | golden | drift | paper |",
        "|---|---|---|---|---|---|",
    ]
    for v in verdicts:
        drift = ("-" if v.drift_rel is None
                 else f"{100 * v.drift_rel:+.1f}%")
        row = (f"| `{v.id}` | {v.status.upper()} | {_fmt(v.measured)} | "
               f"{_fmt(v.golden)} | {drift} | {_fmt(v.paper)} |")
        if v.note:
            row = row[:-1] + f" {v.note} |"
        lines.append(row)
    lines.append("")
    return "\n".join(lines)
