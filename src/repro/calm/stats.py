"""CALM decision telemetry (paper Figure 7b).

Decision outcomes, in the paper's terminology:

- *false positive*: CALM performed but the LLC hit — the memory fetch was
  wasted bandwidth;
- *false negative*: CALM skipped but the LLC missed — the access was
  serialized and paid the LLC latency for nothing.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CalmStats:
    """Aggregated CALM decision counters, counted by
    :meth:`repro.calm.policy.CalmPolicy.observe`."""

    calm_llc_hit: int = 0      # false positives
    calm_llc_miss: int = 0     # true positives
    serial_llc_hit: int = 0    # true negatives
    serial_llc_miss: int = 0   # false negatives

    @property
    def total(self) -> int:
        return (self.calm_llc_hit + self.calm_llc_miss
                + self.serial_llc_hit + self.serial_llc_miss)

    @property
    def llc_misses(self) -> int:
        return self.calm_llc_miss + self.serial_llc_miss

    @property
    def false_positive_rate(self) -> float:
        """False positives as a fraction of memory accesses (paper metric)."""
        mem_accesses = self.llc_misses + self.calm_llc_hit
        return self.calm_llc_hit / mem_accesses if mem_accesses else 0.0

    @property
    def false_negative_rate(self) -> float:
        """False negatives as a fraction of all LLC misses (paper metric)."""
        return self.serial_llc_miss / self.llc_misses if self.llc_misses else 0.0

    def reset(self) -> None:
        self.calm_llc_hit = self.calm_llc_miss = 0
        self.serial_llc_hit = self.serial_llc_miss = 0
