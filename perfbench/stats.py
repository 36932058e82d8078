"""Percentiles that carry their sample count, and a plain median."""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

#: A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


class Percentile(NamedTuple):
    value: float
    n: int          # samples the percentile was taken over
    beyond: int     # samples strictly above its rank


def percentile(samples: Sequence[float], q: float) -> Percentile:
    """Nearest-rank ``q``-quantile (0 < q < 1) of ``samples``.

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond the rank: such a tail is not measured, only guessed.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise ValueError(f"p{100 * q:g} over {n} samples has {beyond} beyond "
                         f"it; need at least {MIN_BEYOND}")
    return Percentile(sorted(samples)[rank - 1], n, beyond)


def median(samples: Sequence[float]) -> float:
    """Plain median (for small counts of repeated measurements)."""
    s = sorted(samples)
    if not s:
        raise ValueError("median of no samples")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else 0.5 * (s[mid - 1] + s[mid])
