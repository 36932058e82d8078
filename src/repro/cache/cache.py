"""Functional set-associative cache array and the latency-annotated level.

:class:`CacheArray` is the pure state machine (lookup / fill / evict /
invalidate) with pluggable replacement. :class:`CacheLevel` adds sizing
arithmetic and hit latency so the hierarchy code can reason in ns.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cache.replacement import LRUPolicy, make_policy

LINE_SHIFT = 6
LINE_BYTES = 64


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


def level_sets(size_bytes: int, ways: int) -> int:
    """Sets of a ``size_bytes`` cache of ``ways``-way 64 B lines: a power of two."""
    sets = size_bytes // (ways * LINE_BYTES)
    if sets * ways * LINE_BYTES != size_bytes or not _is_pow2(sets):
        raise ValueError(f"size {size_bytes} is not a power-of-two number of {ways}-way sets")
    return sets


class CacheArray:
    """A set-associative cache over 64 B lines.

    State per line: presence + dirty bit. Addresses are byte addresses;
    the array insulates callers from set/tag arithmetic.

    Parameters
    ----------
    sets:
        Number of sets (power of two).
    ways:
        Associativity.
    policy:
        Replacement policy name (``lru``/``random``/``srrip``).
    """

    __slots__ = ("sets", "ways", "_sets", "_policy", "_policy_is_lru",
                 "_policy_bind", "_mask", "_shift",
                 "n_lookups", "n_hits", "n_fills", "n_evictions", "n_dirty_evictions")

    def __init__(self, sets: int, ways: int, policy: str = "lru") -> None:
        if not _is_pow2(sets):
            raise ValueError(f"sets must be a power of two, got {sets}")
        if ways < 1:
            raise ValueError("ways must be >= 1")
        self.sets = sets
        self.ways = ways
        self._sets: List[Dict[int, bool]] = [dict() for _ in range(sets)]
        self._policy = make_policy(policy)
        self._policy_is_lru = isinstance(self._policy, LRUPolicy)
        self._policy_bind = getattr(self._policy, "bind_set", None)
        # Set-index mask and tag shift, precomputed once: _locate is the
        # single hottest pure function in the simulator.
        self._mask = sets - 1
        self._shift = sets.bit_length() - 1
        self.n_lookups = 0
        self.n_hits = 0
        self.n_fills = 0
        self.n_evictions = 0
        self.n_dirty_evictions = 0

    # -- address arithmetic --------------------------------------------------
    def _locate(self, addr: int) -> Tuple[int, int]:
        line = addr >> LINE_SHIFT
        return line & self._mask, line >> self._shift

    def _addr_of(self, set_idx: int, tag: int) -> int:
        return ((tag << self._shift) | set_idx) << LINE_SHIFT

    # -- operations ------------------------------------------------------------
    def lookup(self, addr: int, is_write: bool = False) -> bool:
        """Access ``addr``; returns hit. Updates recency and dirty state."""
        line = addr >> LINE_SHIFT
        s = self._sets[line & self._mask]
        tag = line >> self._shift
        self.n_lookups += 1
        if tag in s:
            self.n_hits += 1
            if self._policy_is_lru:
                dirty = s.pop(tag)
                s[tag] = dirty or is_write
            else:
                if self._policy_bind is not None:
                    self._policy_bind(line & self._mask)
                self._policy.on_hit(s, tag)
                if is_write:
                    s[tag] = True
            return True
        return False

    def probe(self, addr: int) -> bool:
        """Presence check without updating recency or counters."""
        line = addr >> LINE_SHIFT
        return (line >> self._shift) in self._sets[line & self._mask]

    def fill(self, addr: int, dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Insert the line for ``addr``.

        Returns ``(victim_addr, victim_dirty)`` if an eviction occurred,
        else ``None``. Filling a present line just refreshes it.
        """
        line = addr >> LINE_SHIFT
        si = line & self._mask
        tag = line >> self._shift
        s = self._sets[si]
        if self._policy_is_lru:
            # Inlined LRUPolicy: dict insertion order IS the recency order.
            if tag in s:
                was_dirty = s.pop(tag)
                s[tag] = was_dirty or dirty
                return None
            victim = None
            if len(s) >= self.ways:
                vtag = next(iter(s))
                vdirty = s.pop(vtag)
                self.n_evictions += 1
                if vdirty:
                    self.n_dirty_evictions += 1
                victim = (((vtag << self._shift) | si) << LINE_SHIFT, vdirty)
            s[tag] = dirty
            self.n_fills += 1
            return victim
        if self._policy_bind is not None:
            self._policy_bind(si)
        if tag in s:
            was_dirty = s.pop(tag)
            self._policy.on_fill(s, tag, was_dirty or dirty)
            return None
        victim = None
        if len(s) >= self.ways:
            vtag = self._policy.victim(s)
            vdirty = s.pop(vtag)
            self.n_evictions += 1
            if vdirty:
                self.n_dirty_evictions += 1
            victim = (self._addr_of(si, vtag), vdirty)
        self._policy.on_fill(s, tag, dirty)
        self.n_fills += 1
        return victim

    def invalidate(self, addr: int) -> Optional[bool]:
        """Remove the line; returns its dirty bit, or ``None`` if absent."""
        line = addr >> LINE_SHIFT
        return self._sets[line & self._mask].pop(line >> self._shift, None)

    def set_dirty(self, addr: int) -> bool:
        """Mark the line dirty if present; returns presence."""
        line = addr >> LINE_SHIFT
        s = self._sets[line & self._mask]
        tag = line >> self._shift
        if tag in s:
            s[tag] = True
            return True
        return False

    def load_lru(self, counts: Iterable[int], tags: Iterable[int],
                 dirty: Iterable[bool]) -> None:
        """Replace the contents with ``(tag, dirty)`` rows.

        Rows come set by set, least recently used first, as Python ints and
        bools; ``counts[i]`` is the number of rows of set *i*. Under LRU a
        set's dict insertion order *is* its recency order, so inserting the
        rows in that order rebuilds each set exactly as a one-access-at-a-
        time replay would have left it.
        """
        rows = zip(tags, dirty)
        self._sets[:] = [dict(islice(rows, n)) for n in counts]

    # -- introspection ---------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        return self.sets * self.ways * LINE_BYTES

    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(s) for s in self._sets)

    def hit_rate(self) -> float:
        return self.n_hits / self.n_lookups if self.n_lookups else 0.0

    def reset_counters(self) -> None:
        self.n_lookups = self.n_hits = self.n_fills = 0
        self.n_evictions = self.n_dirty_evictions = 0


class CacheLevel:
    """A cache array plus its hit latency, constructed from size/ways.

    Parameters
    ----------
    size_bytes:
        Total capacity; ``size_bytes / (ways * 64)`` must be a power of two.
    ways:
        Associativity.
    hit_latency_ns:
        Pipeline latency of a hit (lookup cost also paid by misses).
    """

    def __init__(self, name: str, size_bytes: int, ways: int,
                 hit_latency_ns: float, policy: str = "lru") -> None:
        self.name = name
        self.array = CacheArray(level_sets(size_bytes, ways), ways, policy)
        self.hit_latency_ns = hit_latency_ns
        self.size_bytes = size_bytes

    def __repr__(self) -> str:  # pragma: no cover
        return f"<CacheLevel {self.name} {self.size_bytes // 1024}KB {self.array.ways}-way>"
