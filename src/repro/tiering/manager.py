"""Page-placement manager routing requests between memory tiers.

:class:`TierManager` sits on the chip's miss path: the builder consults
it (instead of the flat global interleave) to pick the memory port for
every read and posted write, and to learn how long the request must wait
on any in-flight migration of its page.

Determinism contract
--------------------
The manager schedules **no events** and draws **no randomness**. Epoch
rollover is evaluated lazily from the simulation clock at ``route()``
time, migrations are selected with total-order tie-breaks (touch count,
then page number), and every decision is a pure function of the request
arrival order — which the kernel bit-identity contract guarantees is the
same under the production and reference dispatch loops. This is what
lets the ``diff_kernel`` differential oracle cover tiered configurations
unchanged.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.tiering.config import TieringConfig


class TierManager:
    """Hot/cold page placement between local DDR ports and CXL ports.

    Port-index convention (fixed by the builder): ports ``[0, n_local)``
    are local DDR channels; ports ``[n_local, ...)`` are CXL channels
    with ``ddr_per_cxl`` device channels each. Lines interleave across
    the channels *within* their page's tier.
    """

    def __init__(self, tcfg: TieringConfig, n_local_ports: int,
                 far_ddr_total: int, ddr_per_cxl: int) -> None:
        self.cfg = tcfg
        self.n_local = n_local_ports
        self.far_total = max(1, far_ddr_total)
        self.ddr_per_cxl = max(1, ddr_per_cxl)
        #: page -> True (local) / False (far); first-touch populated.
        self.placement: Dict[int, bool] = {}
        #: local pages in recency order (oldest first) — dict insertion
        #: order is the LRU list; also the local-tier registry.
        self.local: Dict[int, None] = {}
        #: per-epoch touch counts (epoch policy) / since-placement far
        #: touch counts (lru policy).
        self.touches: Dict[int, int] = {}
        #: promoted page -> time its migrated copy becomes usable.
        self.ready_at: Dict[int, float] = {}
        self.cur_epoch = 0
        self.stats: Dict[str, float] = {}
        self._reset_counters()

    def _reset_counters(self) -> None:
        # Fixed key set, every policy: the migration-identity oracle
        # diffs results bit-for-bit, so no policy-private keys may leak.
        self.stats = {
            "local_serves": 0.0, "far_serves": 0.0,
            "promotions": 0.0, "demotions": 0.0,
            "migration_stall_ns": 0.0,
        }

    def reset_stats(self) -> None:
        """Measurement boundary: zero counters, keep placement state."""
        self._reset_counters()

    # -- routing ------------------------------------------------------------
    def route(self, addr: int, now: float) -> Tuple[int, float]:
        """Pick the memory port for ``addr``; returns ``(port, extra_ns)``.

        ``extra_ns`` is the migration wait the request must stall for
        (promotion cost on the triggering request, or the remaining copy
        time of an epoch migration in flight).
        """
        c = self.cfg
        page = addr >> c.page_shift
        if c.policy == "epoch":
            ep = int(now // c.epoch_ns)
            if ep > self.cur_epoch:
                self._roll_epoch(ep)
        is_local = self.placement.get(page)
        if is_local is None:
            # First touch: pin local until the tier is full, then spill.
            is_local = len(self.local) < c.local_capacity_pages
            self.placement[page] = is_local
            if is_local:
                self.local[page] = None
        extra = 0.0
        st = self.stats
        if is_local:
            if c.policy == "lru":
                # Refresh recency: re-insert at the MRU end.
                del self.local[page]
                self.local[page] = None
            elif c.policy == "epoch":
                self.touches[page] = self.touches.get(page, 0) + 1
                ready = self.ready_at.get(page)
                if ready is not None:
                    if now < ready:
                        extra = ready - now
                        st["migration_stall_ns"] += extra
                    else:
                        del self.ready_at[page]
            st["local_serves"] += 1.0
            port = (addr >> 6) % self.n_local
            return port, extra
        # Far tier.
        if c.policy == "lru":
            n = self.touches.get(page, 0) + 1
            if n >= c.promote_threshold:
                extra = self._promote_now(page)
                st["migration_stall_ns"] += extra
                del self.touches[page]
            else:
                self.touches[page] = n
        elif c.policy == "epoch":
            self.touches[page] = self.touches.get(page, 0) + 1
        st["far_serves"] += 1.0
        g = (addr >> 6) % self.far_total
        port = self.n_local + g // self.ddr_per_cxl
        return port, extra

    # -- migration machinery ------------------------------------------------
    def _promote_now(self, page: int) -> float:
        """LRU policy: promote ``page``, demoting the LRU local page.

        The triggering request is served from the far tier *while* the
        copy happens, paying the copy cost; later touches go local.
        """
        c = self.cfg
        if len(self.local) >= c.local_capacity_pages:
            victim = next(iter(self.local))
            del self.local[victim]
            self.placement[victim] = False
            self.stats["demotions"] += 1.0
        self.placement[page] = True
        self.local[page] = None
        self.stats["promotions"] += 1.0
        return c.migration_cost_ns

    def _roll_epoch(self, ep: int) -> None:
        """Epoch boundary: swap the hottest far pages with the coldest local.

        Idle epochs collapse — rollover is evaluated lazily, so ``k``
        silent epochs cost one pass, with the migration schedule anchored
        at the *latest* boundary. Ties break on page number, keeping the
        choice a total order (determinism contract).
        """
        c = self.cfg
        boundary = ep * c.epoch_ns
        if c.migrations_per_epoch > 0:
            hot = sorted(
                ((cnt, p) for p, cnt in self.touches.items()
                 if not self.placement[p] and cnt >= c.promote_threshold),
                key=lambda t: (-t[0], t[1]),
            )[: c.migrations_per_epoch]
            if hot:
                cold = sorted(self.local,
                              key=lambda p: (self.touches.get(p, 0), p))
                cold_i = 0
                for i, (_cnt, page) in enumerate(hot):
                    if len(self.local) >= c.local_capacity_pages:
                        if cold_i >= len(cold):
                            break
                        victim = cold[cold_i]
                        cold_i += 1
                        del self.local[victim]
                        self.placement[victim] = False
                        self.ready_at.pop(victim, None)
                        self.stats["demotions"] += 1.0
                    self.placement[page] = True
                    self.local[page] = None
                    self.stats["promotions"] += 1.0
                    # Copies serialize on the migration engine, one page
                    # every migration_cost_ns after the boundary.
                    self.ready_at[page] = boundary + (i + 1) * c.migration_cost_ns
        self.touches.clear()
        self.cur_epoch = ep

    # -- introspection ------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Deterministic counters for ``SimResult.extras['tiering']``."""
        out = dict(self.stats)
        out["local_pages"] = float(len(self.local))
        out["total_pages"] = float(len(self.placement))
        return out
