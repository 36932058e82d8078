"""The metric registry: named instruments keyed by (name, labels).

:class:`~repro.obs.collect.ObsCollector` owns one per run and folds the
chip's end-of-run counters into it; ``snapshot()`` is the JSON-safe form
the exporters and ``SimResult.extras["obs"]`` carry.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.obs.metrics import Counter, Gauge, StreamingHistogram, _label_key

__all__ = ["MetricRegistry"]


class MetricRegistry:
    """Named instruments, unique per (name, labels) pair."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, Tuple], object] = {}

    def _get(self, cls, name: str, labels: Optional[Dict[str, str]], **kwargs):
        key = (name, _label_key(labels))
        inst = self._metrics.get(key)
        if inst is None:
            # Histograms don't carry name/labels themselves; the registry
            # key does.
            inst = cls(**kwargs) if cls is StreamingHistogram else cls(name, labels)
            self._metrics[key] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(inst).__name__}")
        return inst

    def counter(self, name: str,
                labels: Optional[Dict[str, str]] = None) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, labels: Optional[Dict[str, str]] = None) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, labels: Optional[Dict[str, str]] = None,
                  alpha: float = 0.01) -> StreamingHistogram:
        return self._get(StreamingHistogram, name, labels, alpha=alpha)

    def __len__(self) -> int:
        return len(self._metrics)

    def items(self):
        """Iterate ``((name, labels), instrument)`` sorted by name/labels."""
        for (name, lk), inst in sorted(self._metrics.items()):
            yield name, dict(lk), inst

    def snapshot(self) -> Dict:
        """All instruments as a JSON-safe dict (see collect.snapshot)."""
        counters, gauges, histograms = [], [], []
        for name, labels, inst in self.items():
            if isinstance(inst, Counter):
                counters.append({"name": name, "labels": labels,
                                 "value": inst.value})
            elif isinstance(inst, Gauge):
                gauges.append({"name": name, "labels": labels,
                               "value": inst.value})
            elif isinstance(inst, StreamingHistogram):
                histograms.append({"name": name, "labels": labels,
                                   **inst.to_dict()})
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}
