"""File plumbing shared by the exporters, the gates and the result cache.

The span-trace exporters (Perfetto / JSONL / ``.npy``) pick an output
format either from an explicit ``fmt`` argument or from the output path's
suffix. This module keeps that policy in one place:

- an unrecognized suffix is an error rather than a silent fall-through,
  so a typo like ``trace.jsnl`` can't quietly produce the wrong format;
- an unknown explicit ``fmt`` is an error naming the valid formats;
- the parent directory is created before the writer runs.

It also holds the one atomic JSON writer (goldens, baselines, cache
entries) and the one JSON-object loader.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Collection, Dict, Optional, Union


class GoldenError(Exception):
    """A golden or bench file is missing, malformed or protected."""


def ensure_parent(path: Union[str, Path]) -> Path:
    """Create ``path``'s parent directory tree; returns ``path`` as a Path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def write_json(path: Union[str, Path], payload: Any,
               indent: Optional[int] = None) -> Path:
    """Atomically write ``payload`` as sorted-key JSON; returns the path.
    Indented files end in a newline, compact ones (cache entries) do not."""
    out = ensure_parent(path)
    fd, tmp = tempfile.mkstemp(dir=out.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=indent, sort_keys=True)
            if indent is not None:
                fh.write("\n")
        os.replace(tmp, out)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return out


def read_json_object(path: Union[str, Path], what: str,
                     missing_hint: str = "") -> Dict[str, Any]:
    """Load the JSON object in the file ``what`` names (``"golden file"``);
    :class:`GoldenError` if it is missing, not JSON or not an object."""
    p = Path(path)
    try:
        payload = json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise GoldenError(f"{what} {p} not found{missing_hint}") from None
    except ValueError as e:
        raise GoldenError(f"{what} {p} is not valid JSON: {e}") from None
    if not isinstance(payload, dict):
        raise GoldenError(f"{what} {p}: top level must be an object")
    return payload


def pick_format(path: Union[str, Path], fmt: Optional[str],
                formats: Collection[str], *, kind: str = "trace") -> str:
    """The format named by ``fmt``, else by ``path``'s suffix (format ``f``
    claims ``.f``); ``ValueError`` naming the valid ones otherwise."""
    if fmt is None:
        suffix = Path(path).suffix.lower()
        if suffix[1:] not in formats:
            paths = "/".join(f".{name}" for name in formats)
            fmts = "/".join(f"'{name}'" for name in formats)
            raise ValueError(
                f"cannot infer {kind} format from suffix {suffix!r} for "
                f"{path}; use a {paths} path or pass fmt={fmts}")
        return suffix[1:]
    if fmt not in formats:
        names = " or ".join(formats)
        raise ValueError(f"unknown {kind} format {fmt!r} (use {names})")
    return fmt


def dispatch_export(
    path: Union[str, Path],
    fmt: Optional[str],
    exporters: Dict[str, Callable[[Path], Path]],
    *,
    kind: str = "trace",
) -> Path:
    """Run the exporter picked by ``fmt`` or by ``path``'s suffix.

    Parameters
    ----------
    exporters:
        Maps format names to ``writer(path) -> Path`` callables; format
        ``f`` claims the suffix ``.f``. Writers run with the parent
        directory already created and must return the path actually
        written (which may differ, e.g. ``np.save`` appends ``.npy``).
    kind:
        Noun used in error messages (``"trace"``, ``"span trace"``, ...).
    """
    fmt = pick_format(path, fmt, exporters, kind=kind)
    return exporters[fmt](ensure_parent(path))
