"""Shared suffix-dispatch helper for file exporters.

The span-trace exporters (Perfetto / JSONL / ``.npy``) pick an output
format either from an explicit ``fmt`` argument or from the output path's
suffix. This module keeps that policy in one place:

- an unrecognized suffix is an error rather than a silent fall-through,
  so a typo like ``trace.jsnl`` can't quietly produce the wrong format;
- an unknown explicit ``fmt`` is an error naming the valid formats;
- the parent directory is created before the writer runs.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Optional, Union


def ensure_parent(path: Union[str, Path]) -> Path:
    """Create ``path``'s parent directory tree; returns ``path`` as a Path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


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
    path = Path(path)
    if fmt is None:
        suffix = path.suffix.lower()
        if suffix[1:] not in exporters:
            paths = "/".join(f".{name}" for name in exporters)
            fmts = "/".join(f"'{name}'" for name in exporters)
            raise ValueError(
                f"cannot infer {kind} format from suffix {suffix!r} for "
                f"{path}; use a {paths} path or pass fmt={fmts}")
        fmt = suffix[1:]
    if fmt not in exporters:
        names = " or ".join(exporters)
        raise ValueError(f"unknown {kind} format {fmt!r} (use {names})")
    ensure_parent(path)
    return exporters[fmt](path)
