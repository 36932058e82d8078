"""Bank and rank timing state.

These are state records. The DDR5 command rules that move them (ACT, PRE,
RD and WR timing, tFAW and tRRD) live in the sub-channel's issue path in
:mod:`repro.dram.controller`; the one routine here is
:meth:`Rank.refresh_blackout`, which advances the refresh schedule.
"""

from __future__ import annotations

from typing import List, Optional

from repro.dram.timing import DDR5Timing

_NEVER = float("-inf")


class Bank:
    """Timing state of a single DRAM bank.

    ``open_row`` is the row in the row buffer (``None`` when precharged);
    ``next_act``/``next_rd``/``next_wr``/``next_pre`` are the earliest times
    the next command of each kind may issue. ``use_count`` increments on
    every ACT/RD/WR so deferred-close logic can detect whether the bank was
    touched since a close was scheduled.
    """

    __slots__ = ("open_row", "next_act", "next_rd", "next_wr", "next_pre",
                 "use_count")

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        self.next_act = 0.0
        self.next_rd = 0.0
        self.next_wr = 0.0
        self.next_pre = 0.0
        self.use_count = 0


class Rank:
    """Rank-level state: the tFAW/tRRD windows and periodic refresh."""

    __slots__ = ("tm", "banks", "act_history", "next_act_any", "next_refresh",
                 "refresh_end", "refreshes_done")

    def __init__(self, tm: DDR5Timing, banks: int) -> None:
        self.tm = tm
        self.banks: List[Bank] = [Bank() for _ in range(banks)]
        #: The last four ACT times, oldest first (-inf before the fourth).
        self.act_history: List[float] = [_NEVER] * 4
        self.next_act_any = 0.0              # tRRD constraint
        self.next_refresh = tm.tREFI
        self.refresh_end = 0.0
        self.refreshes_done = 0

    def refresh_blackout(self, t: float) -> float:
        """Advance refresh bookkeeping to time ``t``.

        Returns the earliest time >= ``t`` at which a command may issue, i.e.
        ``t`` pushed past any refresh window it falls into. Refreshes that
        became due are considered executed at their due time (all-bank).
        For ``refresh_end <= t < next_refresh`` it returns ``t`` and changes
        nothing, so the issue path only calls it outside that range.
        """
        while t >= self.next_refresh:
            start = self.next_refresh
            self.refresh_end = start + self.tm.tRFC
            self.next_refresh = start + self.tm.tREFI
            self.refreshes_done += 1
            if t < self.refresh_end:
                t = self.refresh_end
        return self.refresh_end if t < self.refresh_end else t
