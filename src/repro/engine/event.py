"""Event primitives for the discrete-event simulation kernel.

Events are callbacks scheduled at absolute simulation times. A monotonically
increasing sequence number breaks ties so that two events scheduled for the
same instant fire in insertion order, which keeps simulations deterministic
and independent of heap internals.

The queue stores plain ``(time, seq, fn, args)`` tuples — no per-event
object allocation on the hot scheduling path — and every entry on the heap
is live. Cancellable :class:`Event` handles exist only for callers that
explicitly keep the return value of :meth:`EventQueue.push`; cancelling one
takes its entry off the heap at once, so neither dispatch loop ever tests
for a cancelled entry.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

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

    __slots__ = ("time", "seq", "fn", "args", "_queue")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any],
                 args: Tuple[Any, ...], queue: Optional["EventQueue"] = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self._queue = queue

    def cancel(self) -> None:
        """Take the event off its queue's heap so it never fires: O(n) in
        the pending events, and a no-op once it was cancelled, popped or
        fired."""
        if self._queue is None:
            return
        heap = self._queue._heap
        for i, entry in enumerate(heap):
            if entry[1] == self.seq:
                del heap[i]
                heapq.heapify(heap)
                return

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Event t={self.time:.3f} seq={self.seq} fn={getattr(self.fn, '__name__', self.fn)}>"


class EventQueue:
    """Priority queue of scheduled callbacks ordered by (time, seq).

    ``push`` returns a cancellable :class:`Event` handle; the simulator's
    hot scheduling path (``Simulator.schedule``) pushes handle-free
    tuples onto ``_heap`` directly. Every heap entry is a pending event,
    so ``len`` and ``bool`` read the heap.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self._seq = 0

    def push(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute time ``time`` and return a handle."""
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, fn, args))
        return Event(time, seq, fn, args, self)

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest event, or ``None``.

        The returned handle is already off the heap, so cancelling it is a
        no-op; it exists to carry ``time``/``fn``/``args`` to the caller.
        """
        if not self._heap:
            return None
        time, seq, fn, args = heapq.heappop(self._heap)
        return Event(time, seq, fn, args, None)

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the earliest pending event, or ``None``."""
        heap = self._heap
        return heap[0][0] if heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def clear(self) -> None:
        """Drop every pending event (used by tests and re-runs)."""
        self._heap.clear()
