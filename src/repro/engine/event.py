"""Event primitives for the discrete-event simulation kernel.

Events are callbacks scheduled at absolute simulation times. A monotonically
increasing sequence number breaks ties so that two events scheduled for the
same instant fire in insertion order, which keeps simulations deterministic
and independent of heap internals.

The queue stores plain ``(time, seq, fn, args)`` tuples — no per-event
object allocation on the hot scheduling path. Cancellable :class:`Event`
handles exist only for callers that explicitly keep the return value of
:meth:`EventQueue.push`; cancellation is recorded in a side set of sequence
numbers that the pop loop consults (the set is empty in the common case, so
the check is a single truthiness test).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Set, Tuple

#: Heap entry layout: (time, seq, fn, args).
Entry = Tuple[float, int, Callable[..., Any], Tuple[Any, ...]]


class Event:
    """A cancellable handle to a scheduled callback.

    Parameters
    ----------
    time:
        Absolute simulation time (ns) at which the callback fires.
    seq:
        Tie-breaking sequence number assigned by the queue.
    fn:
        Zero-or-more-argument callable invoked when the event fires.
    args:
        Positional arguments passed to ``fn``.
    queue:
        Owning :class:`EventQueue` (``None`` for handles reconstructed by
        ``pop``, which are already off the heap and cannot be cancelled).
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_queue")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any],
                 args: Tuple[Any, ...], queue: Optional["EventQueue"] = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._cancel(self.seq)

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.3f} seq={self.seq}{state} fn={getattr(self.fn, '__name__', self.fn)}>"


class EventQueue:
    """Priority queue of scheduled callbacks ordered by (time, seq).

    ``push`` returns a cancellable :class:`Event` handle; the simulator's
    hot scheduling path (``Simulator.schedule``) pushes handle-free
    tuples onto ``_heap`` directly. ``__len__`` is O(1): a live-event
    counter is maintained incrementally across push/pop/cancel.
    """

    __slots__ = ("_heap", "_seq", "_cancelled", "_live")

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self._seq = 0
        self._cancelled: Set[int] = set()
        self._live = 0

    def push(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute time ``time`` and return a handle."""
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, fn, args))
        self._live += 1
        return Event(time, seq, fn, args, self)

    def _cancel(self, seq: int) -> None:
        """Record a cancellation (called by :meth:`Event.cancel` only)."""
        self._cancelled.add(seq)
        self._live -= 1

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event, or ``None``.

        The returned handle is already off the heap, so cancelling it is a
        no-op; it exists to carry ``time``/``fn``/``args`` to the caller.
        """
        heap = self._heap
        cancelled = self._cancelled
        while heap:
            time, seq, fn, args = heapq.heappop(heap)
            if cancelled and seq in cancelled:
                cancelled.discard(seq)
                continue
            self._live -= 1
            return Event(time, seq, fn, args, None)
        return None

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the earliest pending event, or ``None``."""
        heap = self._heap
        cancelled = self._cancelled
        while heap and heap[0][1] in cancelled:
            cancelled.discard(heapq.heappop(heap)[1])
        return heap[0][0] if heap else None

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def clear(self) -> None:
        """Drop every pending event (used by tests and re-runs)."""
        self._heap.clear()
        self._cancelled.clear()
        self._live = 0
