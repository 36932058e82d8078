"""Miss Status Holding Registers: merge and bound outstanding misses."""

from __future__ import annotations

from typing import Dict, List, Optional


class MSHRFile:
    """Tracks outstanding line misses for one cache.

    Secondary misses to a line already outstanding merge into the existing
    entry; the file refuses new allocations when full (caller must retry
    once an entry frees). Each entry lists its waiters: the op indices of
    the core's accesses to that line (a prefetch allocates with none).
    """

    def __init__(self, entries: int) -> None:
        if entries < 1:
            raise ValueError("MSHR file needs at least one entry")
        self.entries = entries
        self._table: Dict[int, List[int]] = {}
        self.n_merges = 0
        self.n_allocations = 0
        self.n_full_rejections = 0

    def allocate(self, line_addr: int, waiter: Optional[int] = None) -> Optional[str]:
        """Try to track a miss for ``line_addr``, waited on by op ``waiter``.

        Returns ``"primary"`` for a fresh entry, ``"merged"`` when the line
        was already outstanding, or ``None`` when the file is full.
        """
        if line_addr in self._table:
            if waiter is not None:
                self._table[line_addr].append(waiter)
            self.n_merges += 1
            return "merged"
        if len(self._table) >= self.entries:
            self.n_full_rejections += 1
            return None
        self._table[line_addr] = [waiter] if waiter is not None else []
        self.n_allocations += 1
        return "primary"

    def complete(self, line_addr: int) -> List[int]:
        """Retire the entry; returns its waiters' op indices, in order."""
        return self._table.pop(line_addr, [])

    def outstanding(self, line_addr: int) -> bool:
        return line_addr in self._table

    @property
    def occupancy(self) -> int:
        return len(self._table)

    @property
    def full(self) -> bool:
        return len(self._table) >= self.entries
