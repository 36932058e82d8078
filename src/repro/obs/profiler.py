"""Kernel profiler: per-event-type dispatch counts and wall time.

A :class:`KernelProfiler` is a :class:`~repro.engine.kernel.Simulator`
``event_hook``. The dispatch loop calls it after every fired callback; it
charges that callback the host time since the previous dispatch and
attributes it to the callback's qualified name — ``DDRChannel._respond``,
``Core._advance``, ... — so a run report can say where the event loop
actually spends its wall time. Each charge therefore includes the loop's
own pop/dispatch overhead for that event, and the charges sum to the
loop's wall time since the profiler was armed.

Obs ``profile`` mode and the tracer's ``kernel`` mode both attach through
:meth:`KernelProfiler.hook`, so a run with both shares one hook and one
set of deterministic dispatch counts. With no hook installed the kernel
pays one ``is not None`` test per event.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List

__all__ = ["KernelProfiler"]


class KernelProfiler:
    """Accumulates ``{event-type: [count, wall_seconds]}``."""

    __slots__ = ("data", "_last")

    def __init__(self) -> None:
        self.data: Dict[str, List] = {}
        self._last = perf_counter()

    @classmethod
    def hook(cls, sim) -> "KernelProfiler":
        """The profiler hooked on ``sim``, installing a fresh one if none is."""
        prof = sim.event_hook
        if not isinstance(prof, cls):
            prof = cls()
            sim.event_hook = prof
        return prof

    def __call__(self, fn) -> None:
        now = perf_counter()
        key = getattr(fn, "__qualname__", None) or repr(fn)
        ent = self.data.get(key)
        if ent is None:
            self.data[key] = [1, now - self._last]
        else:
            ent[0] += 1
            ent[1] += now - self._last
        self._last = now

    def reset(self) -> None:
        """Drop everything so far and restart the clock."""
        self.data.clear()
        self._last = perf_counter()

    @property
    def total_events(self) -> int:
        return sum(int(v[0]) for v in self.data.values())

    @property
    def total_wall_s(self) -> float:
        return sum(float(v[1]) for v in self.data.values())

    def counts(self) -> Dict[str, int]:
        """Deterministic dispatch counts per event type, sorted by name."""
        return {k: int(c) for k, (c, _w) in sorted(self.data.items())}

    def rows(self) -> List[Dict]:
        """Per-event-type records, heaviest wall time first."""
        total = self.total_wall_s
        out = []
        for key, (count, wall) in sorted(self.data.items(),
                                         key=lambda kv: -kv[1][1]):
            out.append({
                "event": key,
                "count": int(count),
                "wall_s": float(wall),
                "wall_frac": float(wall) / total if total > 0 else 0.0,
                "mean_us": 1e6 * float(wall) / count if count else 0.0,
            })
        return out

    def to_dict(self, with_wall: bool = True) -> Dict:
        """JSON-safe form; ``with_wall=False`` keeps only the
        deterministic dispatch counts (wall time varies run to run)."""
        if with_wall:
            return {k: {"count": int(c), "wall_s": float(w)}
                    for k, (c, w) in sorted(self.data.items())}
        return {k: {"count": c} for k, c in self.counts().items()}
