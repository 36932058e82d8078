"""CALM decision policies (paper Section IV-C).

Every policy implements ``decide(pc, addr) -> bool`` (perform CALM?).
``observe(pc, addr, llc_hit, was_calm)``, called once the LLC outcome is
known, is shared: it counts the outcome into
:class:`~repro.calm.stats.CalmStats` and trains the policy's predictor, if
it has one, in one call.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.calm.mapi import MapIPredictor
from repro.calm.stats import CalmStats


class CalmPolicy:
    """Base policy: never CALM; subclasses override :meth:`decide`."""

    name = "base"

    def __init__(self) -> None:
        self.stats = CalmStats()
        # Decision counters (observability): how many decide() calls went
        # CALM, and — for regulated policies — why the rest were suppressed.
        self.n_go = 0
        self.n_suppress_cap = 0
        self.n_suppress_prob = 0
        #: ``train(pc, was_miss)`` for a policy that learns from outcomes.
        self.train: Optional[Callable[[int, bool], None]] = None

    def decide(self, pc: int, addr: int) -> bool:
        raise NotImplementedError

    def observe(self, pc: int, addr: int, llc_hit: bool, was_calm: bool) -> None:
        """Count the LLC outcome (the one place outcomes are counted) and
        train the predictor, if any."""
        s = self.stats
        if was_calm:
            if llc_hit:
                s.calm_llc_hit += 1
            else:
                s.calm_llc_miss += 1
        elif llc_hit:
            s.serial_llc_hit += 1
        else:
            s.serial_llc_miss += 1
        if self.train is not None:
            self.train(pc, not llc_hit)

    def reset_stats(self) -> None:
        self.stats.reset()
        self.n_go = 0
        self.n_suppress_cap = 0
        self.n_suppress_prob = 0


class NeverCalm(CalmPolicy):
    """Serial LLC-then-memory access (the conventional hierarchy)."""

    name = "never"

    def decide(self, pc: int, addr: int) -> bool:
        return False


class AlwaysCalm(CalmPolicy):
    """Every L2 miss probes memory concurrently (upper bound on traffic)."""

    name = "always"

    def decide(self, pc: int, addr: int) -> bool:
        return True


class CalmR(CalmPolicy):
    """Bandwidth-regulated CALM (the paper's ``CALM_R``, default R = 70%).

    Epoch counters estimate the chip's memory bandwidth demand with the LLC
    filtering (``bw_filtered``: L2 misses that also miss LLC) and without
    (``bw_unfiltered``: all L2 misses). If the filtered demand already
    exceeds ``R x bw_max``, CALM is suppressed; otherwise an L2 miss goes
    CALM with probability ``min(1, (R - bw_filtered) / bw_unfiltered)``.

    Parameters
    ----------
    r_fraction:
        Bandwidth cap as a fraction of peak (0.7 for CALM_70%).
    peak_bandwidth_gbps:
        System memory read bandwidth ceiling (set by the system builder).
    epoch_ns:
        Estimation epoch; rates from the previous epoch drive decisions.
    now_fn:
        The simulation clock (e.g. ``lambda: sim.now``). Required before
        the first :meth:`decide`: without a clock the epoch never rolls,
        ``bw_unfiltered`` stays 0, and the policy silently degenerates to
        :class:`AlwaysCalm` — so an unwired policy raises instead.
    """

    def __init__(
        self,
        r_fraction: float = 0.7,
        peak_bandwidth_gbps: float = 38.4,
        epoch_ns: float = 2000.0,
        now_fn: Optional[Callable[[], float]] = None,
        seed: int = 42,
    ) -> None:
        super().__init__()
        if not 0.0 < r_fraction <= 1.0:
            raise ValueError("r_fraction must be in (0, 1]")
        self.name = f"calm_{int(round(r_fraction * 100))}"
        self.r_fraction = r_fraction
        self.peak_bandwidth_gbps = peak_bandwidth_gbps
        self.epoch_ns = epoch_ns
        self.now_fn = now_fn
        self._rng = random.Random(seed)
        self._epoch_start = 0.0
        self._l2_misses_epoch = 0
        # The epoch's LLC misses are the observed ones (self.stats) since
        # this mark.
        self._llc_miss_mark = 0
        # Previous-epoch rate estimates (GB/s).
        self.bw_unfiltered = 0.0
        self.bw_filtered = 0.0

    def _roll_epoch(self, now: float) -> None:
        elapsed = now - self._epoch_start
        llc_misses = self.stats.llc_misses
        self.bw_unfiltered = self._l2_misses_epoch * 64.0 / elapsed
        self.bw_filtered = (llc_misses - self._llc_miss_mark) * 64.0 / elapsed
        self._epoch_start = now
        self._l2_misses_epoch = 0
        self._llc_miss_mark = llc_misses

    def reset_stats(self) -> None:
        # The epoch runs on across the reset: carry its LLC misses.
        self._llc_miss_mark -= self.stats.llc_misses
        super().reset_stats()

    def decide(self, pc: int, addr: int) -> bool:
        if self.now_fn is None:
            raise RuntimeError(
                "CalmR.decide() without a wired clock: pass now_fn (e.g. "
                "lambda: sim.now) to CalmR or make_calm_policy. An unwired "
                "clock never rolls the estimation epoch, so the policy would "
                "silently degenerate to AlwaysCalm.")
        now = self.now_fn()
        if now - self._epoch_start >= self.epoch_ns:
            self._roll_epoch(now)
        self._l2_misses_epoch += 1
        cap = self.r_fraction * self.peak_bandwidth_gbps
        if self.bw_filtered >= cap:
            self.n_suppress_cap += 1
            return False
        if self.bw_unfiltered <= 0.0:
            self.n_go += 1
            return True  # no estimate yet: bandwidth headroom is certain
        p = min(1.0, (cap - self.bw_filtered) / self.bw_unfiltered)
        if self._rng.random() < p:
            self.n_go += 1
            return True
        self.n_suppress_prob += 1
        return False


class MapICalm(CalmPolicy):
    """CALM driven by the MAP-I LLC hit/miss predictor."""

    name = "mapi"

    def __init__(self, table_bits: int = 10) -> None:
        super().__init__()
        self.predictor = MapIPredictor(table_bits=table_bits)
        self.train = self.predictor.train

    def decide(self, pc: int, addr: int) -> bool:
        return self.predictor.predict_miss(pc)


class IdealPredictor(CalmPolicy):
    """Oracle CALM: probes the actual LLC state at decision time.

    The system builder wires ``probe_fn(addr) -> bool`` (present?) after the
    LLC slices exist.
    """

    name = "ideal"

    def __init__(self, probe_fn: Optional[Callable[[int], bool]] = None) -> None:
        super().__init__()
        self.probe_fn = probe_fn

    def decide(self, pc: int, addr: int) -> bool:
        if self.probe_fn is None:
            raise RuntimeError("IdealPredictor.probe_fn is not wired")
        return not self.probe_fn(addr)


def make_calm_policy(spec: str, peak_bandwidth_gbps: float = 38.4,
                     now_fn: Optional[Callable[[], float]] = None) -> CalmPolicy:
    """Build a policy from a spec string.

    Specs: ``never`` | ``always`` | ``mapi`` | ``ideal`` | ``calm_50`` /
    ``calm_60`` / ``calm_70`` / ... (any ``calm_<percent>``).

    ``calm_*`` policies need ``now_fn`` wired to the simulation clock
    before their first ``decide`` (see :class:`CalmR`).
    """
    if spec == "never":
        return NeverCalm()
    if spec == "always":
        return AlwaysCalm()
    if spec == "mapi":
        return MapICalm()
    if spec == "ideal":
        return IdealPredictor()
    if isinstance(spec, str) and spec.startswith("calm_"):
        pct = float(spec.split("_", 1)[1])
        return CalmR(pct / 100.0, peak_bandwidth_gbps, now_fn=now_fn)
    raise ValueError(f"unknown CALM policy spec {spec!r}")
