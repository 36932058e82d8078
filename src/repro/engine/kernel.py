"""The simulation kernel: owns the clock and drains the event queue."""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.engine.event import Event, EventQueue

#: Dispatch loops a :class:`Simulator` can run: the production heap loop
#: and the retained reference loop the differential oracle checks it by.
KERNEL_MODES = ("fast", "reference")

_INF = float("inf")


class Simulator:
    """Discrete-event simulator.

    All components share one :class:`Simulator`. Time is float nanoseconds.

    ``schedule``/``schedule_at`` are the hot path: they push plain
    ``(time, seq, fn, args)`` tuples and return ``None``. The
    ``schedule_*_cancellable`` variants return an :class:`Event` handle
    whose ``cancel()`` takes the entry off the heap at once.

    ``kernel`` selects the dispatch loop: ``"fast"`` (default) pops heap
    tuples inline, ``"reference"`` goes through the :class:`EventQueue`
    ``peek_time``/``pop`` API one event at a time. Both must produce
    bit-identical simulations — the fuzzer's ``diff_kernel`` oracle runs
    every generated config through both and compares the full
    ``SimResult``.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(5.0, fired.append, "a")
    >>> sim.schedule(1.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    def __init__(self, kernel: str = "fast") -> None:
        if kernel not in KERNEL_MODES:
            raise ValueError(f"kernel must be one of {KERNEL_MODES}, got {kernel!r}")
        self.now: float = 0.0
        self.queue = EventQueue()
        self.events_fired: int = 0
        self.kernel = kernel
        #: Optional per-dispatch observer ``hook(fn)``. Called once per
        #: fired event, after its callback ran, by both loops, so hooked
        #: runs stay bit-identical. It must not schedule.
        #: :class:`repro.obs.KernelProfiler` is the one in-tree hook, shared
        #: by obs ``profile`` mode and the tracer's ``kernel`` mode. ``None``
        #: (the default) costs one test per event.
        self.event_hook = None

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` ns from now (delay >= 0)."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        # Inlined handle-free push: this is the hottest call in the
        # simulator, worth saving the extra frame.
        q = self.queue
        heapq.heappush(q._heap, (self.now + delay, q._seq, fn, args))
        q._seq += 1

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute time ``time`` (>= now)."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        q = self.queue
        heapq.heappush(q._heap, (time, q._seq, fn, args))
        q._seq += 1

    def schedule_cancellable(self, delay: float, fn: Callable[..., Any],
                             *args: Any) -> Event:
        """Like :meth:`schedule`, but returns a cancellable handle."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        return self.queue.push(self.now + delay, fn, *args)

    def schedule_at_cancellable(self, time: float, fn: Callable[..., Any],
                                *args: Any) -> Event:
        """Like :meth:`schedule_at`, but returns a cancellable handle."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        return self.queue.push(time, fn, *args)

    def run(self, until: Optional[float] = None) -> None:
        """Drain the event queue.

        Parameters
        ----------
        until:
            Stop before the first event strictly after this time, leaving
            the clock at ``until``. Once the queue is empty the clock stays
            at the last fired event, whatever ``until`` is.

        The production loop pops heap tuples directly instead of going
        through ``peek_time()`` + ``pop()``; ``kernel="reference"`` keeps
        the un-inlined loop as the differential-testing baseline.
        """
        if self.kernel == "reference":
            self.run_reference(until)
            return
        heap = self.queue._heap
        heappop = heapq.heappop
        hook = self.event_hook
        limit = _INF if until is None else until
        fired = 0
        while heap:
            time, seq, fn, args = heappop(heap)
            if time > limit:
                # One push back per call costs less than a peek per event.
                heapq.heappush(heap, (time, seq, fn, args))
                self.now = until
                break
            self.now = time
            fn(*args)
            if hook is not None:
                hook(fn)
            fired += 1
        self.events_fired += fired

    def run_reference(self, until: Optional[float] = None) -> None:
        """Reference dispatch loop: one :class:`EventQueue` call per step.

        Semantically identical to :meth:`run` — same (time, seq) ordering,
        same ``until`` clock semantics, same :attr:`event_hook` calls — but
        built from the queue's public ``peek_time``/``pop`` API with a
        per-event :class:`Event` allocation. It is the retained baseline
        the fuzzer's differential oracle compares the production loop
        against; do not "optimize" it.
        """
        queue = self.queue
        hook = self.event_hook
        fired = 0
        while True:
            t = queue.peek_time()
            if t is None:
                break
            if until is not None and t > until:
                self.now = until
                break
            ev = queue.pop()
            assert ev is not None  # peek_time said there was one
            self.now = ev.time
            ev.fn(*ev.args)
            if hook is not None:
                hook(ev.fn)
            fired += 1
        self.events_fired += fired

    def pending(self) -> int:
        """Number of events still queued."""
        return len(self.queue)
