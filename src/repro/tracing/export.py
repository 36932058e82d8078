"""Span-trace exporters: Chrome/Perfetto ``trace_event`` JSON, JSONL, ``.npy``.

The Perfetto form loads directly into ``ui.perfetto.dev`` (or
``chrome://tracing``): one ``"X"`` (complete) event per request plus one
per child span, grouped per core track, with the trace id and the
component attribution carried in ``otherData``. The JSONL form is one
header object followed by one request row per line — easy to grep/jq.
Both round-trip through :func:`load_trace`, which `repro trace view` /
`repro trace critpath` use, so a trace id minted at ``repro serve``
submit is recoverable from a worker-side export. The ``.npy`` form is
the rows' timelines (no child spans) as a numpy structured array, easy
to slice in analysis code.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Optional, Union

from repro.exportutil import dispatch_export, ensure_parent, pick_format

#: ``trace_event`` timestamps are microseconds; simulation time is ns.
_NS_PER_US = 1000.0


def export_perfetto(snapshot: dict, path: Union[str, Path]) -> Path:
    """Write one snapshot as Chrome/Perfetto ``trace_event`` JSON."""
    path = ensure_parent(path)
    events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
               "args": {"name": "repro-sim"}}]
    cores_seen = set()
    for row in snapshot.get("spans", ()):
        tid = int(row["core"])
        if tid not in cores_seen:
            cores_seen.add(tid)
            events.append({"name": "thread_name", "ph": "M", "pid": 1,
                           "tid": tid, "args": {"name": f"core{tid}"}})
        events.append({
            "name": f"req#{row['req_id']}",
            "cat": "request",
            "ph": "X",
            "pid": 1,
            "tid": tid,
            "ts": row["t_create"] / _NS_PER_US,
            "dur": row["total"] / _NS_PER_US,
            "args": {
                "req_id": row["req_id"],
                "addr": f"{row['addr']:#x}",
                "calm": row["calm"],
                "llc_hit": row["llc_hit"],
            },
        })
        for s in row.get("spans", ()):
            events.append({
                "name": s["name"],
                "cat": s["component"],
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": s["t0"] / _NS_PER_US,
                "dur": (s["t1"] - s["t0"]) / _NS_PER_US,
                "args": {"req_id": row["req_id"]},
            })
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "schema": snapshot.get("schema"),
            "mode": snapshot.get("mode"),
            "trace_id": snapshot.get("trace_id"),
            "requests": snapshot.get("requests"),
            "attribution": snapshot.get("attribution"),
        },
    }
    if "kernel_events" in snapshot:
        doc["otherData"]["kernel_events"] = snapshot["kernel_events"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
    return path


def export_spans_jsonl(snapshot: dict, path: Union[str, Path]) -> Path:
    """Write one snapshot as JSONL: a header line, then one row per request."""
    path = ensure_parent(path)
    header = {k: snapshot.get(k)
              for k in ("schema", "mode", "trace_id", "requests", "attribution")}
    header["kind"] = "header"
    if "kernel_events" in snapshot:
        header["kernel_events"] = snapshot["kernel_events"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for row in snapshot.get("spans", ()):
            obj = dict(row)
            obj["kind"] = "request"
            fh.write(json.dumps(obj, sort_keys=True) + "\n")
    return path


#: Columns of the ``.npy`` export: each row's timeline, oldest first.
#: ``-1.0`` marks a stage the request never visited.
NPY_DTYPE = [
    ("req_id", "i8"), ("core", "i4"), ("addr", "u8"), ("calm", "?"),
    ("llc_hit", "?"), ("t_create", "f8"), ("t_llc_done", "f8"),
    ("t_mc_enqueue", "f8"), ("t_mc_issue", "f8"), ("t_dram_done", "f8"),
    ("t_complete", "f8"), ("total", "f8"), ("cxl_delay", "f8"),
]


def export_npy(snapshot: dict, path: Union[str, Path]) -> Path:
    """Write the rows' timelines as a ``.npy`` structured array."""
    import numpy as np

    path = ensure_parent(path)
    names = [name for name, _ in NPY_DTYPE]
    arr = np.array([tuple(row[n] for n in names)
                    for row in snapshot.get("spans", ())], dtype=NPY_DTYPE)
    np.save(path, arr)
    # np.save appends .npy when missing; report the real file.
    return path if path.suffix == ".npy" else path.with_suffix(path.suffix + ".npy")


#: The span-trace writers by format; format ``f`` claims the suffix ``.f``.
_WRITERS = {"json": export_perfetto, "jsonl": export_spans_jsonl,
            "npy": export_npy}


def check_trace_path(path: Union[str, Path]) -> str:
    """The format :func:`export_trace` infers from ``path``'s suffix;
    ``ValueError`` naming the valid ones, before there is anything to write.
    The message names only paths: a command line has no ``fmt`` to pass."""
    try:
        return pick_format(path, None, _WRITERS, kind="span trace")
    except ValueError:
        raise ValueError(
            f"unknown span trace format {Path(path).suffix!r} for "
            f"{path}; use a .json (Perfetto), .jsonl or .npy path") from None


def export_trace(snapshot: dict, path: Union[str, Path],
                 fmt: Optional[str] = None) -> Path:
    """Export by explicit format (``json``/``jsonl``/``npy``) or by suffix."""
    return dispatch_export(
        path, fmt,
        {name: functools.partial(write, snapshot)
         for name, write in _WRITERS.items()},
        kind="span trace",
    )


def _rows_from_events(events) -> list:
    """Rebuild span rows from Perfetto ``traceEvents`` (ts back to ns)."""
    rows = {}
    children = {}
    for ev in events:
        if ev.get("ph") != "X":
            continue
        args = ev.get("args") or {}
        rid = args.get("req_id")
        if rid is None:
            continue
        if ev.get("cat") == "request":
            rows[rid] = {
                "req_id": rid,
                "core": ev.get("tid", -1),
                "addr": int(args.get("addr", "0x0"), 16),
                "calm": args.get("calm", False),
                "llc_hit": args.get("llc_hit", False),
                "t_create": ev["ts"] * _NS_PER_US,
                "t_complete": (ev["ts"] + ev["dur"]) * _NS_PER_US,
                "total": ev["dur"] * _NS_PER_US,
                "spans": [],
            }
        else:
            t0 = ev["ts"] * _NS_PER_US
            children.setdefault(rid, []).append({
                "name": ev["name"],
                "component": ev.get("cat", "onchip"),
                "t0": t0,
                "t1": t0 + ev["dur"] * _NS_PER_US,
            })
    for rid, spans in children.items():
        if rid in rows:
            rows[rid]["spans"] = spans
    return list(rows.values())


def load_trace(path: Union[str, Path]) -> dict:
    """Load a Perfetto JSON or span JSONL export back into snapshot form."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    snap = {"schema": None, "mode": None, "trace_id": None,
            "requests": None, "attribution": {}, "spans": []}
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict) and "traceEvents" in doc:
        other = doc.get("otherData") or {}
        for k in ("schema", "mode", "trace_id", "requests", "attribution",
                  "kernel_events"):
            if other.get(k) is not None:
                snap[k] = other[k]
        snap["spans"] = _rows_from_events(doc["traceEvents"])
        return snap
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        kind = obj.pop("kind", None)
        if kind == "header":
            for k, v in obj.items():
                if v is not None:
                    snap[k] = v
        elif kind == "request":
            snap["spans"].append(obj)
        else:
            raise ValueError(
                f"{path} is neither a Perfetto trace_event JSON nor a span "
                f"JSONL export (line without a kind marker)")
    return snap
