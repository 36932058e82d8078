"""Set-parallel LRU replay of one cache level's functional-warmup stream.

Functional warmup replays, with no timing, a sample of three times the
LLC's lines (12,288 accesses per core on the 12-core baseline) plus each
core's timed-warmup prefix. Replayed one at a time, each access costs a
handful of dict operations in the interpreter. But
the sets of a cache level never interact: an LRU set's final contents
depend only on its own events, in their own order. :func:`lru_pass`
therefore groups a level's event stream by set and advances *one event per
set* in each numpy step, so a step does the work of as many scalar
accesses as there are busy sets. The step count is the busiest set's event
count; a stream that piles into a few sets needs as many steps as scalar
accesses, which is why callers compare :func:`busiest_share` against a
cut-off before choosing this pass.

State per set is ``ways`` slots of (line, dirty, stamp). A set holds the
lines that map to it, so comparing whole line numbers is comparing tags. A
slot's stamp is the step of its last touch, so a set's LRU victim is its
smallest stamp and its recency order is ascending stamp. Empty slots hold
line ``-1`` and stamp ``-1``, so a miss fills them before it evicts
anything, as a dict set below its associativity does.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

#: Below every stamp, so a found line's way wins the argmin.
_FOUND = np.int32(-2 ** 31)


class LevelResult(NamedTuple):
    """Per-event outcomes (in stream order) and the level's final rows.

    ``hit[i]`` says whether event *i* found its line. For a missing access,
    ``victim[i]``/``victim_dirty[i]`` are the line it evicted (``-1`` when
    it filled an empty slot). ``lines`` and ``dirty`` list every resident
    line, set by set, least recently used first, and ``counts`` holds each
    set's number of lines: with lines turned into tags, the form
    :meth:`repro.cache.cache.CacheArray.load_lru` takes.
    """

    hit: np.ndarray
    victim: np.ndarray
    victim_dirty: np.ndarray
    counts: np.ndarray
    lines: np.ndarray
    dirty: np.ndarray

    @property
    def rows(self) -> tuple:
        """``(counts, lines, dirty)``: the level's final contents."""
        return self[3:]


def busiest_share(sets: np.ndarray, n_sets: int) -> float:
    """Share of a stream's events that land in its busiest set.

    The set-parallel pass takes as many steps as the busiest set has
    events, so ``1 / busiest_share`` is the mean work per step.
    """
    if not len(sets):
        return 0.0
    return int(np.bincount(sets, minlength=n_sets).max()) / len(sets)


def lru_pass(sets: np.ndarray, lines: np.ndarray, writes: np.ndarray,
             n_sets: int, ways: int,
             set_dirty: Optional[np.ndarray] = None) -> LevelResult:
    """Replay one LRU level's events from empty sets, one event per set a step.

    ``sets`` (int32), ``lines`` (int64, non-negative) and ``writes`` (bool)
    describe each event in stream order. An ordinary event is an access:
    on a hit the line becomes most recent and its dirty bit ORs in the
    write; on a miss it fills the least recent slot with ``dirty=write``.
    Where ``set_dirty`` is true the event dirties its line if present and
    changes neither recency nor contents.
    """
    n = len(sets)
    counts = np.bincount(sets, minlength=n_sets)
    steps = int(counts.max(initial=0))
    # Events grouped by set, in stream order within a set (the 16-bit keys
    # take numpy's radix sort), and each one's rank within its set.
    by_set = np.argsort(_narrow(sets, n_sets), kind="stable").astype(np.int32)
    rank = np.arange(n, dtype=np.int32)
    rank -= np.repeat((np.cumsum(counts) - counts).astype(np.int32), counts)
    # Step-major order: step k holds every set's k-th event.
    order = by_set[np.argsort(_narrow(rank, steps), kind="stable")]
    del by_set
    bounds = np.zeros(steps + 1, np.int64)
    np.cumsum(np.bincount(rank, minlength=steps), out=bounds[1:])
    del rank, counts

    line_of = np.full((n_sets, ways), -1, np.int64)
    dirty_of = np.zeros((n_sets, ways), bool)
    stamp_of = np.full((n_sets, ways), -1, np.int32)
    line_at, dirty_at = line_of.ravel(), dirty_of.ravel()
    stamp_at = stamp_of.ravel()
    hit = np.empty(n, bool)
    victim = np.empty(n, np.int64)
    vdirty = np.empty(n, bool)
    for k in range(steps):
        a, b = bounds[k], bounds[k + 1]
        o = order[a:b]
        s, x, w = sets[o], lines[o], writes[o]
        # The way holding the line, else the least recent (empty first).
        way = np.where(line_of[s] == x[:, None], _FOUND,
                       stamp_of[s]).argmin(1)
        slot = s * ways + way
        v = line_at[slot]
        vd = dirty_at[slot]
        h = v == x
        hit[o] = h
        victim[o] = v
        vdirty[o] = vd
        if set_dirty is None:
            line_at[slot] = x
            dirty_at[slot] = (vd & h) | w
            stamp_at[slot] = k
        else:
            m = set_dirty[o]
            line_at[slot] = np.where(m, v, x)
            dirty_at[slot] = np.where(m, vd | h, (vd & h) | w)
            stamp_at[slot] = np.where(m, stamp_at[slot], k)

    lru_first = stamp_of.argsort(1)
    line_of = np.take_along_axis(line_of, lru_first, 1)
    dirty_of = np.take_along_axis(dirty_of, lru_first, 1)
    live = line_of >= 0
    return LevelResult(hit, victim, vdirty, live.sum(1), line_of[live],
                       dirty_of[live])


def _narrow(keys: np.ndarray, bound: int) -> np.ndarray:
    """``keys`` (all below ``bound``) as uint16 when they fit, which
    numpy's stable sort handles with a radix sort."""
    return keys.astype(np.uint16) if bound <= 1 << 16 else keys
