"""Host-speed calibration: a fixed pure-Python loop timed beside the work.

The shared VM the bounds were set on (2 vCPUs, no SMT) drifts in speed
within seconds: over 15-second blocks, one short simulation's median time
moved between 0.81x and 1.63x of its overall median while CPU time tracked
wall time. A fixed loop, timed on the same CPU next to each measured unit
of work, moves with it: the same simulation's time divided by the loop's
adjacent times moved between 0.97x and 1.04x. So every end-to-end host time
is scaled by ``REF_S / loop time``, and reads as seconds on a host where
the loop takes ``REF_S``. The loop uses no repository code, so no change to
the program can move it: a faster program still reads faster.
"""

from __future__ import annotations

import gc
import heapq
import random
import time
from array import array

#: The loop time the scale is pinned to: about its median on the VM above,
#: so scaled times read close to the seconds measured there.
REF_S = 0.07

#: A few MB the loop reads and writes at scattered places, built once: the
#: simulator's hot path is heap traffic and scattered access over a working
#: set. A flat array holds no Python objects, so the loop leaves nothing
#: behind in the heap the simulator allocates from (``peak_rss_mb``).
_TABLE = array("d", bytes(8 * 500_000))


def loop_s(n: int = 50_000) -> float:
    """Seconds the calibration loop takes now (collector off while timed)."""
    rng = random.Random(3)
    heap = [(rng.random(), i) for i in range(512)]
    heapq.heapify(heap)
    size = len(_TABLE)
    gc.disable()
    try:
        t0 = time.perf_counter()
        for i in range(n):
            t, k = heapq.heappop(heap)
            _TABLE[(k * 2654435761) % size] += 1.0
            heapq.heappush(heap, (t + rng.random(), (k + i) % 100_000))
        return time.perf_counter() - t0
    finally:
        gc.enable()


class HostClock:
    """Scales the host time of consecutive units of work.

    The loop runs before the first unit (:meth:`start`) and after each
    unit; a unit is scaled by the mean of the loop times just before and
    just after it, so back-to-back units share a loop.
    """

    def __init__(self) -> None:
        self.loops: list = []
        self.start()

    def start(self) -> None:
        """Run the loop right before a unit that follows untimed work."""
        self.loops.append(loop_s())

    def factor(self) -> float:
        """Run the loop after a unit of work; its scale to reference time."""
        self.loops.append(loop_s())
        return 2.0 * REF_S / (self.loops[-2] + self.loops[-1])

    def scaled(self, seconds: float) -> float:
        """``seconds`` of work just done, in reference-host seconds."""
        return seconds * self.factor()
