"""Metric exporters: Prometheus text format, JSONL, CSV — and readers.

All exporters consume the JSON-safe payload produced by
:meth:`repro.obs.collect.ObsCollector.snapshot` (``mode`` / ``series`` /
``metrics`` / optional ``profile``), so anything that can ride in
``SimResult.extras["obs"]`` can also be written to disk. The Prometheus
writer is paired with a parser (:func:`parse_prometheus`) used by the
fuzzer's round-trip oracle and by the exporter tests.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.exportutil import ensure_parent

__all__ = [
    "prometheus_text", "parse_prometheus",
    "export_jsonl", "export_csv", "export_prometheus",
    "check_export_path", "export_snapshot", "load_jsonl",
]


# -- Prometheus text exposition ------------------------------------------------

def _escape_label(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _label_str(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"'
                     for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    """Format a sample value: integers without the trailing ``.0``."""
    f = float(value)
    if math.isinf(f):
        return "+Inf" if f > 0 else "-Inf"
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def prometheus_text(snapshot: Dict, prefix: str = "") -> str:
    """Render a collector snapshot in Prometheus text exposition format.

    Counters and gauges become single samples; each streaming histogram
    becomes the conventional cumulative ``_bucket{le=...}`` series (one
    bucket per occupied log bucket, using its upper bound as ``le``)
    plus ``_sum`` and ``_count``.
    """
    metrics = snapshot.get("metrics", snapshot)
    lines: List[str] = []
    typed: set = set()

    def emit(name: str, kind: str, labels: Dict, value: float) -> None:
        if name not in typed:
            lines.append(f"# TYPE {name} {kind}")
            typed.add(name)
        lines.append(f"{name}{_label_str(labels)} {_fmt(value)}")

    for ent in metrics.get("counters", ()):
        emit(prefix + ent["name"], "counter", ent.get("labels", {}),
             ent["value"])
    for ent in metrics.get("gauges", ()):
        emit(prefix + ent["name"], "gauge", ent.get("labels", {}),
             ent["value"])
    for ent in metrics.get("histograms", ()):
        name = prefix + ent["name"]
        labels = ent.get("labels", {})
        if name not in typed:
            lines.append(f"# TYPE {name} histogram")
            typed.add(name)
        alpha = float(ent["alpha"])
        log_gamma = math.log((1.0 + alpha) / (1.0 - alpha))
        cum = int(ent.get("zero_count", 0))
        if cum:
            lines.append(f'{name}_bucket{_label_str({**labels, "le": "0"})} {cum}')
        buckets = {int(i): int(n) for i, n in ent.get("buckets", {}).items()}
        for i in sorted(buckets):
            cum += buckets[i]
            le = _fmt(math.exp(i * log_gamma))
            lines.append(
                f'{name}_bucket{_label_str({**labels, "le": le})} {cum}')
        lines.append(
            f'{name}_bucket{_label_str({**labels, "le": "+Inf"})} '
            f'{int(ent["count"])}')
        lines.append(f"{name}_sum{_label_str(labels)} {_fmt(ent['sum'])}")
        lines.append(f"{name}_count{_label_str(labels)} {int(ent['count'])}")
    return "\n".join(lines) + "\n"


def _parse_labels(text: str) -> Dict[str, str]:
    """Parse the ``key="value",...`` body of a label set."""
    labels: Dict[str, str] = {}
    i = 0
    while i < len(text):
        eq = text.index("=", i)
        key = text[i:eq].strip().lstrip(",").strip()
        if text[eq + 1] != '"':
            raise ValueError(f"label value for {key!r} is not quoted")
        j = eq + 2
        out = []
        while text[j] != '"':
            if text[j] == "\\":
                nxt = text[j + 1]
                out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, nxt))
                j += 2
            else:
                out.append(text[j])
                j += 1
        labels[key] = "".join(out)
        i = j + 1
    return labels


def parse_prometheus(text: str) -> Dict[str, Dict]:
    """Parse Prometheus text format back into ``{name: {...}}``.

    Returns ``{name: {"type": kind, "samples": [(labels, value), ...]}}``
    with histogram series (``_bucket``/``_sum``/``_count``) attributed to
    their base metric name. Raises ``ValueError`` on malformed lines —
    which is exactly what the fuzz oracle wants to detect.
    """
    metrics: Dict[str, Dict] = {}
    types: Dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        if "{" in line:
            brace = line.index("{")
            name = line[:brace]
            close = line.rindex("}")
            labels = _parse_labels(line[brace + 1:close])
            value_text = line[close + 1:].strip()
        else:
            name, value_text = line.split(None, 1)
            labels = {}
        value = float(value_text.replace("+Inf", "inf").replace("-Inf", "-inf"))
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if (name.endswith(suffix) and name[:-len(suffix)] in types
                    and types[name[:-len(suffix)]] == "histogram"):
                base = name[:-len(suffix)]
                break
        ent = metrics.setdefault(
            base, {"type": types.get(base, "untyped"), "samples": []})
        ent["samples"].append((name, labels, value))
    return metrics


# -- JSONL / CSV -----------------------------------------------------------------

def export_jsonl(path: Union[str, Path], snapshot: Dict,
                 meta: Optional[Dict] = None) -> Path:
    """Write a snapshot as line-delimited JSON.

    Line 1 is a ``{"kind": "run", ...}`` header (mode + caller metadata);
    then one ``metric`` line per counter/gauge, one ``histogram`` line
    per histogram, an optional ``profile`` line, and one ``sample`` line
    per time-series window. The format is append-friendly: multiple runs
    can share one file and :func:`load_jsonl` returns them in order.
    """
    path = ensure_parent(path)
    metrics = snapshot.get("metrics", {})
    series = snapshot.get("series", {})
    with path.open("a", encoding="utf-8") as fh:
        header = {"kind": "run", "mode": snapshot.get("mode", "on"),
                  "t0_ns": snapshot.get("t0_ns", 0.0)}
        if meta:
            header.update(meta)
        fh.write(json.dumps(header) + "\n")
        for kind in ("counters", "gauges"):
            for ent in metrics.get(kind, ()):
                fh.write(json.dumps({
                    "kind": "metric", "type": kind[:-1], "name": ent["name"],
                    "labels": ent.get("labels", {}), "value": ent["value"],
                }) + "\n")
        for ent in metrics.get("histograms", ()):
            fh.write(json.dumps({"kind": "histogram", **ent}) + "\n")
        profile = snapshot.get("profile")
        if profile is not None:
            fh.write(json.dumps({"kind": "profile", "events": profile}) + "\n")
        t = series.get("t", [])
        cols = series.get("columns", {})
        interval = series.get("interval_ns", 0.0)
        for i, ti in enumerate(t):
            fh.write(json.dumps({
                "kind": "sample", "t_ns": ti, "interval_ns": interval,
                "values": {k: v[i] for k, v in cols.items()},
            }) + "\n")
    return path


def load_jsonl(path: Union[str, Path]) -> List[Dict]:
    """Read a metrics JSONL file back into per-run snapshot-like dicts."""
    runs: List[Dict] = []
    current: Optional[Dict] = None
    with Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            kind = rec.pop("kind", None)
            if kind == "run":
                current = {
                    "meta": rec, "mode": rec.get("mode", "on"),
                    "metrics": {"counters": [], "gauges": [],
                                "histograms": []},
                    "series": {"interval_ns": 0.0, "t": [], "columns": {}},
                    "profile": None,
                }
                runs.append(current)
                continue
            if current is None:
                raise ValueError(
                    f"{path}: record before any 'run' header: {kind!r}")
            if kind == "metric":
                bucket = rec.pop("type") + "s"
                current["metrics"][bucket].append(rec)
            elif kind == "histogram":
                current["metrics"]["histograms"].append(rec)
            elif kind == "profile":
                current["profile"] = rec["events"]
            elif kind == "sample":
                ser = current["series"]
                ser["interval_ns"] = rec.get("interval_ns", 0.0)
                ser["t"].append(rec["t_ns"])
                n = len(ser["t"])
                for name, value in rec["values"].items():
                    col = ser["columns"].setdefault(name, [0.0] * (n - 1))
                    col.append(value)
                for col in ser["columns"].values():
                    if len(col) < n:
                        col.append(0.0)
            else:
                raise ValueError(f"{path}: unknown record kind {kind!r}")
    return runs


def export_csv(path: Union[str, Path], snapshot: Dict) -> Path:
    """Write the time series as CSV: ``t_ns`` plus one column per signal."""
    path = ensure_parent(path)
    series = snapshot.get("series", {})
    t = series.get("t", [])
    cols = sorted(series.get("columns", {}).items())
    with path.open("w", encoding="utf-8") as fh:
        fh.write(",".join(["t_ns"] + [name for name, _ in cols]) + "\n")
        for i, ti in enumerate(t):
            fh.write(",".join([repr(ti)] + [repr(col[i]) for _, col in cols])
                    + "\n")
    return path


def export_prometheus(path: Union[str, Path], snapshot: Dict) -> Path:
    """Write the snapshot in Prometheus text exposition format."""
    path = ensure_parent(path)
    path.write_text(prometheus_text(snapshot), encoding="utf-8")
    return path


#: Export dispatch by file suffix.
_EXPORTERS = {
    ".jsonl": export_jsonl,
    ".csv": export_csv,
    ".prom": export_prometheus,
    ".txt": export_prometheus,
}


def check_export_path(path: Union[str, Path]) -> Callable[..., Path]:
    """The exporter :func:`export_snapshot` picks for ``path``'s suffix;
    ``ValueError`` naming the known ones, before there is anything to write."""
    path = Path(path)
    exporter = _EXPORTERS.get(path.suffix.lower())
    if exporter is None:
        known = ", ".join(sorted(_EXPORTERS))
        raise ValueError(
            f"unknown metrics export format {path.suffix!r} for {path}; "
            f"expected one of: {known}")
    return exporter


def export_snapshot(path: Union[str, Path], snapshot: Dict,
                    meta: Optional[Dict] = None) -> Path:
    """Export a snapshot, picking the format from the file suffix.

    ``.jsonl`` → line-delimited JSON (the ``repro obs report`` input),
    ``.csv`` → time-series CSV, ``.prom``/``.txt`` → Prometheus text.
    """
    exporter = check_export_path(path)
    if exporter is export_jsonl:
        return export_jsonl(path, snapshot, meta=meta)
    return exporter(path, snapshot)
