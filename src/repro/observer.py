"""One observer protocol for the simulated memory path.

The invariant checker (:mod:`repro.validate`), the metrics collector
(:mod:`repro.obs`) and the span tracer (:mod:`repro.tracing`) all watch
one run through the same interface: an :class:`Observer` with no-op
defaults for the nine memory-path hook points in :data:`HOOKS` and a
two-call lifecycle, driven by :func:`repro.system.sim.simulate`:

- ``attach(sim, chip)`` right after ``chip.begin_measurement()``, so
  every request an observer sees was created inside the measured window;
- ``finish(chip, elapsed_ns)`` after the run; the payload it returns is
  stored at ``SimResult.extras[observer.key]``, and the observer unbinds
  from the chip and the simulator.

The chip, its cores and its CXL ports each hold one ``observer`` slot,
filled in one place by :meth:`repro.system.builder.Chip.set_observer`,
and each hook site tests it once. Observers only read state and never
schedule: the obs time series is sampled by ``simulate()`` between
``run(until=...)`` slices. So every result field outside the payloads,
``events_fired`` included, is identical with any set of observers on or
off.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Sequence, Tuple

#: The memory-path hook points, in a request's causal order.
HOOKS = ("on_mshr_stall", "on_mshr_merge", "on_l2_miss", "on_mem_submit",
         "on_cxl_tx", "on_cxl_rx", "on_mem_response", "on_double_complete",
         "on_complete")

#: Valid modes per observer kind (``simulate()`` argument name).
MODES: Dict[str, Tuple[str, ...]] = {
    "validate": ("off", "on", "strict"),
    "obs": ("off", "on", "profile"),
    "tracing": ("off", "on", "kernel"),
}

#: Environment variable each kind falls back to when its argument is None.
ENV: Dict[str, str] = {
    "validate": "REPRO_VALIDATE",
    "obs": "REPRO_OBS",
    "tracing": "REPRO_TRACING",
}

_OFF = ("", "0", "off", "false", "no", "none")
_ON = ("1", "on", "true", "yes")


def resolve_mode(kind: str, value=None) -> str:
    """Normalize one ``simulate()`` observer argument to a mode name.

    ``None`` defers to the kind's environment variable (:data:`ENV`).
    Every kind shares the off spellings ``0/off/false/no/none`` (and the
    empty string) and the on spellings ``1/on/true/yes``; booleans map to
    on/off, and obs also takes ``2`` for ``profile``. Anything else must
    name one of the kind's :data:`MODES`, or a :class:`ValueError` names
    the argument (or variable) and the valid modes.
    """
    modes = MODES[kind]
    source = kind
    if value is None:
        source = ENV[kind]
        value = os.environ.get(source, "")
    if value is True or value is False:
        return "on" if value else "off"
    text = str(value).strip().lower()
    if text in _OFF:
        return "off"
    if text in _ON:
        return "on"
    if kind == "obs" and text == "2":
        return "profile"
    if text in modes:
        return text
    raise ValueError(f"{source} must be one of {modes} (or a boolean / "
                     f"0 / 1), got {value!r}")


class Observer:
    """No-op base: override the hooks and lifecycle calls you need."""

    #: ``SimResult.extras`` key for :meth:`finish`'s payload.
    key = ""
    #: False keeps the observer out of the components' hook slots.
    request_hooks = True

    # -- lifecycle ---------------------------------------------------------------
    def attach(self, sim, chip) -> None:
        """Bind to a run at the measurement boundary."""

    def finish(self, chip, elapsed_ns: float):
        """End of run: return the payload for ``extras[self.key]``.

        An observer that kept the chip or the simulator from
        :meth:`attach` drops them here, so a caller that keeps the
        observer does not keep the chip alive."""
        return None

    # -- memory-path hooks (read state, never schedule) -------------------------
    def on_mshr_stall(self, core_id: int, op_idx: int, t: float) -> None:
        """Op ``op_idx`` queued at the core's full MSHR file at time ``t``."""

    def on_mshr_merge(self, core_id: int, op_idx: int) -> None:
        """Op ``op_idx`` merged into an in-flight miss to the same line."""

    def on_l2_miss(self, req) -> None:
        """A miss left the L2 (``req.t_create`` just stamped)."""

    def on_mem_submit(self, req, now: float, extra: float) -> None:
        """A read was routed towards its memory port (``extra`` = migration
        wait already added to ``req.cxl_delay``)."""

    def on_cxl_tx(self, req, now: float, arrive: float) -> None:
        """A request crossed the CPU port + TX link towards the device."""

    def on_cxl_rx(self, req, now: float, arrive: float) -> None:
        """A response crossed the device port + RX link back to the CPU."""

    def on_mem_response(self, req) -> None:
        """Memory read data arrived back at the requesting core's tile."""

    def on_double_complete(self, req) -> None:
        """The completion handler ran again for a completed request."""

    def on_complete(self, req) -> None:
        """The line reached the L2 (``req.t_complete`` just stamped)."""


class Fanout(Observer):
    """Several hooked observers behind one component slot, in order."""

    def __init__(self, observers: Sequence[Observer]) -> None:
        self.observers = tuple(observers)


def _fan(name: str):
    def fan(self, *args) -> None:
        for ob in self.observers:
            getattr(ob, name)(*args)
    fan.__name__ = name
    fan.__qualname__ = f"Fanout.{name}"
    return fan


for _name in HOOKS:
    setattr(Fanout, _name, _fan(_name))


def observer_slot(observers: Sequence[Observer]) -> Optional[Observer]:
    """What the components' one slot holds for these live observers:
    ``None``, the one hooked observer, or a :class:`Fanout`."""
    hooked = [ob for ob in observers if ob.request_hooks]
    if not hooked:
        return None
    return hooked[0] if len(hooked) == 1 else Fanout(hooked)
