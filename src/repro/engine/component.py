"""Base class for simulated hardware components."""

from __future__ import annotations

from typing import Dict

from repro.engine.kernel import Simulator


class Component:
    """A named component bound to a simulator, with a counter-style stats dict.

    Subclasses add to float counters in :attr:`stats` inline
    (``st[key] = st.get(key, 0.0) + 1.0``); aggregation code reads them
    after :meth:`Simulator.run` finishes.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.stats: Dict[str, float] = {}

    def reset_stats(self) -> None:
        """Zero all counters (used at the warmup/measurement boundary)."""
        for key in self.stats:
            self.stats[key] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
