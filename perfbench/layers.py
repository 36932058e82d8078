"""Outside-in host-time attribution: the layer map and its timing shims.

Nothing in ``src/`` knows about this module. Before ``build_system`` runs,
:meth:`LayerTracer.install` replaces each entry point named in
:data:`LAYER_MAP` (class attributes and module globals) with a shim that
opens a span for its layer. Objects built afterwards bind the shims, so the
callbacks the engine dispatches into a layer are timed too.

Self time uses transition accounting: every span boundary charges the time
since the previous boundary to the layer that was running, so the layers'
self times always sum to the traced wall time exactly. A call from a layer
into itself opens no span. Spans (layer, parent, start, end) are appended
to flat in-memory arrays and written out once, at the end of a run.
"""

from __future__ import annotations

import collections
import functools
import importlib
import time
from array import array
from typing import Callable, Dict, List

#: The root span's name: a job's own body (``simulate()`` outside every
#: layer, or the benchmark's job call). It is the unattributed remainder.
ROOT = "sim"

#: layer -> module -> attributes wrapped in that module. Each list holds the
#: layer's public entry points that other layers call, plus every callback
#: the engine dispatches into the layer (these are what
#: ``Simulator.event_hook`` observes on a coverage-check round;
#: :meth:`LayerTracer.unmapped` must stay empty). Constructors are listed so
#: build time lands in the layer built.
LAYER_MAP: Dict[str, Dict[str, List[str]]] = {
    "engine": {
        "repro.engine.kernel": [
            "Simulator.__init__", "Simulator.run", "Simulator.schedule",
            "Simulator.schedule_at", "Simulator.schedule_cancellable",
            "Simulator.schedule_at_cancellable"],
        "repro.engine.event": ["Event.cancel"],
    },
    "cpu": {
        "repro.cpu.core": [
            "Core.__init__", "Core.start", "Core._advance", "Core._send_miss",
            "Core.complete_miss"],
    },
    # The L2-miss state machine; the NoC is a dense table inlined here.
    "chip": {
        "repro.system.sim": ["build_system"],
        "repro.system.builder": [
            "Chip.l2_miss", "Chip.l2_writeback", "Chip._llc_lookup",
            "Chip._mem_response", "Chip._mem_at_core", "Chip._complete",
            "Chip._llc_wb", "Chip.begin_measurement"],
        "repro.system.stats": ["LatencyBreakdown.summary"],
    },
    "cache": {
        "repro.cache.cache": [
            "CacheArray.__init__", "CacheArray.lookup", "CacheArray.probe",
            "CacheArray.fill", "CacheArray.set_dirty",
            "CacheArray.reset_counters"],
        "repro.cache.mshr": [
            "MSHRFile.allocate", "MSHRFile.complete", "MSHRFile.outstanding"],
    },
    "calm": {
        "repro.calm.policy": [
            "CalmPolicy.decide", "CalmPolicy.observe",
            "CalmPolicy.reset_stats", "NeverCalm.decide", "AlwaysCalm.decide",
            "CalmR.decide", "CalmR.observe", "MapICalm.decide",
            "MapICalm.observe", "IdealPredictor.decide"],
    },
    "dram": {
        "repro.dram.controller": [
            "DDRChannel.__init__", "DDRChannel.enqueue", "DDRChannel._respond",
            "DDRChannel.reset_stats", "_SubChannel._schedule_pass",
            "_SubChannel._deferred_close"],
    },
    # The CXL link, the Type-3 device, its SSD backend and latency profiles.
    "cxl": {
        "repro.cxl.channel": [
            "CxlChannel.__init__", "CxlChannel.submit",
            "CxlChannel._on_dram_response", "CxlChannel._deliver",
            "CxlChannel.reset_link_counters"],
        "repro.cxl.device": [
            "CxlType3Device.submit", "CxlType3Device._on_dram_response"],
        "repro.cxl.slowmedia": [
            "SsdMediaChannel.enqueue", "SsdMediaChannel._complete_read",
            "SsdMediaChannel._complete_write", "SsdMediaChannel.reset_stats"],
    },
    "tiering": {
        "repro.tiering.manager": [
            "TierManager.__init__", "TierManager.route",
            "TierManager.reset_stats", "TierManager.snapshot"],
    },
    # Functional warmup replay in system.sim.
    "warmup": {
        "repro.system.sim": [
            "_replay_functional", "_replay_functional_lru", "_warmup_traces"],
    },
    # Trace generation.
    "workloads": {
        "repro.workloads.params": ["WorkloadSpec.generate"],
    },
}

LAYERS: List[str] = list(LAYER_MAP)


class LayerTracer:
    """Installs the shims and accumulates per-layer self time and calls.

    Single-threaded by design: one span stack. In a server only the job
    thread runs simulator code, so only it enters shims.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names = [ROOT] + LAYERS
        self.self_s = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.wall_s = 0.0
        self.jobs = 0
        self.events = 0
        # Span table, one row per span, in open order.
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # [running layer, time of the last boundary, running span index]
        self._st = [0, 0.0, -1]
        self._stack: list = []
        self._patched: list = []
        self._shims: set = set()
        self._unmapped: collections.Counter = collections.Counter()
        #: While set, every Simulator built gets :meth:`_observe` as its
        #: ``event_hook``. A hook sends ``Simulator.run`` to its separate
        #: hooked loop and adds the check to ``engine`` time, so callers set
        #: it for a coverage-check round only and then :meth:`reset`.
        self.check_dispatch = False

    # -- shims -----------------------------------------------------------------
    def wrap(self, fn: Callable, layer: str) -> Callable:
        """Return ``fn`` timed as a span of ``layer``."""
        lid = self.names.index(layer)
        st, stack, self_s, calls = self._st, self._stack, self.self_s, self.calls
        names, parents = self.span_layer, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = self.clock

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if st[0] == lid:
                return fn(*args, **kwargs)
            now = clock()
            self_s[st[0]] += now - st[1]
            idx = len(names)
            names.append(lid)
            parents.append(st[2])
            starts.append(now)
            ends.append(now)
            stack.append((st[0], st[2]))
            st[0] = lid
            st[1] = now
            st[2] = idx
            calls[lid] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                self_s[lid] += now - st[1]
                ends[idx] = now
                st[0], st[2] = stack.pop()
                st[1] = now

        self._shims.add(shim)
        return shim

    def install(self) -> None:
        """Shim every entry point in :data:`LAYER_MAP` (idempotent)."""
        if self._patched:
            return
        for layer, modules in LAYER_MAP.items():
            for modname, attrs in modules.items():
                mod = importlib.import_module(modname)
                for attr in attrs:
                    owner = mod
                    *path, name = attr.split(".")
                    for part in path:
                        owner = getattr(owner, part)
                    original = getattr(owner, name)
                    self._patched.append((owner, name, owner.__dict__.get(name)))
                    setattr(owner, name, self.wrap(original, layer))
        # On a coverage-check round, the build_system shim hands every new
        # Simulator the hook that checks engine dispatches against the map.
        sim_mod = importlib.import_module("repro.system.sim")
        timed_build = sim_mod.build_system

        def build_system(cfg, sim=None):
            sim, chip = timed_build(cfg, sim)
            if self.check_dispatch:
                sim.event_hook = self._observe
            return sim, chip

        sim_mod.build_system = build_system

    def uninstall(self) -> None:
        """Restore every original attribute."""
        for owner, name, original in reversed(self._patched):
            if original is None:
                delattr(owner, name)     # the shim shadowed an inherited one
            else:
                setattr(owner, name, original)
        self._patched.clear()

    def _observe(self, fn: Callable) -> None:
        if getattr(fn, "__func__", fn) not in self._shims:
            self._unmapped[getattr(fn, "__qualname__", repr(fn))] += 1

    def unmapped(self) -> Dict[str, int]:
        """Dispatched callbacks that map to no layer (must be empty)."""
        return dict(self._unmapped)

    def reset(self) -> None:
        """Drop the totals and spans so far (keeps the unmapped callbacks)."""
        self.self_s[:] = [0.0] * len(self.names)
        self.calls[:] = [0] * len(self.names)
        self.wall_s = 0.0
        self.jobs = 0
        self.events = 0
        for t in (self.span_layer, self.span_parent, self.span_start,
                  self.span_end):
            del t[:]

    # -- jobs ------------------------------------------------------------------
    def run_job(self, fn: Callable, *args, **kwargs):
        """Run one job under the root span and return its result."""
        st = self._st
        if self._stack or st[0] != 0:
            raise RuntimeError("run_job is not re-entrant")
        t0 = self.clock()
        idx = len(self.span_layer)
        self.span_layer.append(0)
        self.span_parent.append(-1)
        self.span_start.append(t0)
        self.span_end.append(t0)
        st[1] = t0
        st[2] = idx
        self.calls[0] += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = self.clock()
            self.self_s[0] += t1 - st[1]
            self.span_end[idx] = t1
            st[2] = -1
            self.wall_s += t1 - t0
            self.jobs += 1
        return result

    def coverage(self) -> float:
        """Share of traced wall time attributed to a layer (not the root)."""
        return 1.0 - self.self_s[0] / self.wall_s if self.wall_s > 0 else 0.0

    def summary(self) -> Dict[str, float]:
        """Per-layer ``self_s``/``calls`` plus the engine event figures."""
        out: Dict[str, float] = {}
        for i, name in enumerate(self.names):
            if name == ROOT:
                continue
            out[f"{name}.self_s"] = self.self_s[i]
            out[f"{name}.calls"] = float(self.calls[i])
        out["engine.events"] = float(self.events)
        eng = self.self_s[self.names.index("engine")]
        out["engine.ns_per_event"] = 1e9 * eng / self.events if self.events else 0.0
        out["trace.coverage_frac"] = self.coverage()
        out["trace.wall_s"] = self.wall_s
        return out

    def take_spans(self) -> tuple:
        """Copy out the span table recorded so far and empty it.

        Call between jobs. Later jobs still add to the totals, so a caller
        can bound memory by keeping the spans of its first jobs only.
        """
        tables = (self.span_layer, self.span_parent, self.span_start,
                  self.span_end)
        out = (list(self.names),) + tuple(array(t.typecode, t) for t in tables)
        for t in tables:
            del t[:]
        return out


def write_spans(spans: tuple, path) -> None:
    """Write a span table once: a header line, then the raw arrays."""
    names, *arrays = spans
    with open(path, "wb") as fh:
        fh.write((",".join(names) + f";{len(arrays[0])}\n").encode())
        for arr in arrays:
            arr.tofile(fh)


def self_times_from_spans(tracer: LayerTracer) -> Dict[str, float]:
    """Recompute per-layer self time from the recorded span table.

    A span's self time is its duration minus its children's durations;
    this must agree with the online transition accounting.
    """
    n = len(tracer.span_layer)
    child = [0.0] * n
    for i in range(n):
        p = tracer.span_parent[i]
        if p >= 0:
            child[p] += tracer.span_end[i] - tracer.span_start[i]
    out = collections.defaultdict(float)
    for i in range(n):
        dur = tracer.span_end[i] - tracer.span_start[i]
        out[tracer.names[tracer.span_layer[i]]] += dur - child[i]
    return dict(out)
