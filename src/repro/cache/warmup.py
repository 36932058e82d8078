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

The pass relabels the sets busiest first, so the sets that have a k-th
event are the labels ``[0, m_k)`` and step k works on the first ``m_k``
columns of the state: slices, not gathers. State is way-major, ``ways``
rows of ``(line, dirty, key)`` with one column per set. A set holds the
lines that map to it, so comparing whole line numbers is comparing tags.
A slot's key packs its recency above its flat position ``way * width +
col``: an empty slot's key is its position and a filled slot's adds
``(stamp + 1) * high``, where its stamp is the step of its last touch and
``high`` is the power of two above every position. Keys are unique within
a set and every filled key is above every empty one, so a column's
smallest key is its first empty way, else its least recent line, and
ascending key is the set's recency order. A miss thus fills an empty slot
before it evicts anything, as a dict set below its associativity does.
The line's own slot gets a negative key for the step, so it wins the
minimum, and the minimum's low bits are the slot to read and write.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class LevelResult:
    """Per-event outcomes (in stream order) and the level's final rows.

    ``hit[i]`` says whether event *i* found its line. For a missing access,
    ``victim[i]``/``victim_dirty[i]`` are the line it evicted (``-1`` when
    it filled an empty slot). ``lines`` and ``dirty`` list every resident
    line, set by set, least recently used first, and ``counts`` holds each
    set's number of lines: with lines turned into tags, the form
    :meth:`repro.cache.cache.CacheArray.load_lru` takes.

    The pass records the per-event outcomes in step order; each read of
    ``hit``, ``victim`` or ``victim_dirty`` puts one back in stream order,
    so a caller that needs only :attr:`rows` never pays for them.
    """

    __slots__ = ("_order", "_hit", "_victim", "_vdirty", "counts", "lines",
                 "dirty")

    def __init__(self, order, hit, victim, vdirty, counts, lines, dirty):
        self._order = order
        self._hit, self._victim, self._vdirty = hit, victim, vdirty
        self.counts, self.lines, self.dirty = counts, lines, dirty

    def _in_stream_order(self, by_step: np.ndarray) -> np.ndarray:
        out = np.empty_like(by_step)
        out[self._order] = by_step
        return out

    @property
    def hit(self) -> np.ndarray:
        return self._in_stream_order(self._hit)

    @property
    def victim(self) -> np.ndarray:
        return self._in_stream_order(self._victim)

    @property
    def victim_dirty(self) -> np.ndarray:
        return self._in_stream_order(self._vdirty)

    @property
    def rows(self) -> tuple:
        """``(counts, lines, dirty)``: the level's final contents."""
        return self.counts, self.lines, self.dirty


def busiest_share(set_events: np.ndarray) -> float:
    """Share of a level's events that land in its busiest set, from the
    per-set event counts (``np.bincount`` of the stream's sets).

    The set-parallel pass takes as many steps as the busiest set has
    events, so ``1 / busiest_share`` is the mean work per step.
    """
    n = int(set_events.sum())
    return int(set_events.max()) / n if n else 0.0


def lru_pass(sets: np.ndarray, lines: np.ndarray, writes: np.ndarray,
             set_events: np.ndarray, ways: int,
             set_dirty: Optional[np.ndarray] = None) -> LevelResult:
    """Replay one LRU level's events from empty sets, one event per set a step.

    ``sets`` (int32), ``lines`` (int64, non-negative) and ``writes`` (bool)
    describe each event in stream order; ``set_events`` is the level's
    ``np.bincount(sets, minlength=n_sets)``, events per set (not the lines
    per set of :attr:`LevelResult.counts`). An ordinary event is an
    access: on a hit the line becomes most recent and its dirty bit ORs in
    the write; on a miss it fills the least recent slot with
    ``dirty=write``. Where ``set_dirty`` is true the event dirties its line
    if present and changes neither recency nor contents.

    Within a step every event is in a different set, so the relabelling
    changes no set's event order, and the result is the one a replay in
    the caller's set numbering gives.
    """
    n, n_sets = len(sets), len(set_events)
    # Busiest-first labels: label j is set busiest[j], and the sets with a
    # k-th event are the labels [0, live[k]).
    busiest = np.argsort(-set_events, kind="stable")
    label = np.empty(n_sets, np.int32)
    label[busiest] = np.arange(n_sets, dtype=np.int32)
    ranked = set_events[busiest]
    steps = int(ranked[0]) if n else 0
    live = n_sets - np.cumsum(np.bincount(ranked, minlength=steps + 1))
    live = live[:steps]
    bounds = np.zeros(steps + 1, np.int32)
    np.cumsum(live, out=bounds[1:])
    # Step-major order: step k holds the k-th event of labels 0, 1, ...
    # An event's rank within its set comes from grouping the events by set
    # (the 16-bit keys take numpy's radix sort), in stream order.
    by_set = np.argsort(_narrow(sets, n_sets), kind="stable").astype(np.int32)
    rank = np.arange(n, dtype=np.int32)
    first = np.cumsum(set_events) - set_events
    rank -= np.repeat(first.astype(np.int32), set_events)
    step_pos = np.repeat(label, set_events)
    step_pos += bounds.take(rank)
    order = np.empty(n, np.int32)
    order[step_pos] = by_set
    del by_set, first, rank, step_pos
    x_at, w_at = lines.take(order), writes.take(order)
    d_at = None if set_dirty is None else set_dirty.take(order)

    width = int(live[0]) if steps else 0
    line = np.full((ways, width), -1, np.int64)
    dirty = np.zeros((ways, width), bool)
    # A slot's key packs its recency above its flat position
    # way * width + col; ``high`` is the power of two above every position.
    high = 1 << (ways * width - 1).bit_length()
    key = np.arange(ways * width).reshape(ways, width)
    found = key - high
    line_at, dirty_at, key_at = line.ravel(), dirty.ravel(), key.ravel()
    hit = np.empty(n, bool)
    victim = np.empty(n, np.int64)
    vdirty = np.empty(n, bool)
    for k, (a, m) in enumerate(zip(bounds.tolist(), live.tolist())):
        b = a + m
        x, w = x_at[a:b], w_at[a:b]
        # The slot holding the line, else the first empty, else the LRU.
        # An access overwrites the found slot's key below, so the found
        # marks go straight into the state; a set_dirty event keeps it.
        sel = key[:, :m] if d_at is None else key[:, :m].copy()
        np.copyto(sel, found[:, :m], where=line[:, :m] == x)
        slot = sel.min(0)
        slot &= high - 1
        stamp = slot + (k + 1) * high
        v = line_at[slot]
        vd = dirty_at[slot]
        h = np.equal(v, x, out=hit[a:b])
        victim[a:b] = v
        vdirty[a:b] = vd
        if d_at is None:
            line_at[slot] = x
            vd &= h
            vd |= w
            dirty_at[slot] = vd
            key_at[slot] = stamp
        else:
            mark = d_at[a:b]
            line_at[slot] = np.where(mark, v, x)
            dirty_at[slot] = np.where(mark, vd | h, (vd & h) | w)
            key_at[slot] = np.where(mark, key_at[slot], stamp)
    del x_at, w_at, d_at, found

    # Rows in the caller's set numbering, each least recent first.
    touched = np.flatnonzero(set_events)
    cols = label[touched]
    lru_first = key[:, cols].T.argsort(1)
    line = np.take_along_axis(line[:, cols].T, lru_first, 1)
    dirty = np.take_along_axis(dirty[:, cols].T, lru_first, 1)
    resident = line >= 0
    held = np.zeros(n_sets, np.intp)
    held[touched] = resident.sum(1)
    return LevelResult(order, hit, victim, vdirty, held, line[resident],
                       dirty[resident])


def _narrow(keys: np.ndarray, bound: int) -> np.ndarray:
    """``keys`` (all below ``bound``) as uint16 when they fit, which
    numpy's stable sort handles with a radix sort."""
    return keys.astype(np.uint16) if bound <= 1 << 16 else keys
