"""ObsCollector: samples a running simulation into metrics + time series.

One collector observes one ``simulate()`` run. It owns a
:class:`MetricRegistry`, a windowed :class:`TimeSeries`, and (in
``profile`` mode) a :class:`KernelProfiler` hooked into the simulator's
dispatch loop.

Observation must not perturb results, and the collector schedules
nothing: ``simulate()`` runs the measured phase in ``run(until=t)``
slices at the series' cadence and calls :meth:`ObsCollector.sample`
between them. The sampler only *reads* component state, so
``elapsed_ns``, ``events_fired`` and every other result field are
bit-identical with observability on or off.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.metrics import TimeSeries
from repro.obs.profiler import KernelProfiler
from repro.obs.registry import MetricRegistry
from repro.observer import Observer

__all__ = ["ObsCollector", "DEFAULT_SAMPLE_INTERVAL_NS"]

#: Initial sampling interval. The time series doubles it automatically
#: whenever the window count would exceed its bound, so this only sets
#: the *finest* resolution, not the memory footprint.
DEFAULT_SAMPLE_INTERVAL_NS = 250.0


class ObsCollector(Observer):
    """Collects metrics, time series, and (optionally) a kernel profile.

    An :class:`~repro.observer.Observer` with no request hooks; its
    lifecycle::

        col = ObsCollector(mode="on")
        col.attach(sim, chip)          # measurement boundary
        sim.run(until=t); col.sample() # every series.interval_ns
        payload = col.finish(chip, elapsed_ns)   # fold final counters

    The payload is ``snapshot(with_profile=False)``: fully deterministic,
    suitable for ``SimResult.extras`` and the result cache. Wall-clock
    profile times are only included on request, for exported metrics
    files.
    """

    key = "obs"
    request_hooks = False

    def __init__(self, mode: str = "on",
                 sample_interval_ns: float = DEFAULT_SAMPLE_INTERVAL_NS,
                 max_windows: int = 512) -> None:
        if mode not in ("on", "profile"):
            raise ValueError(
                f"ObsCollector mode must be 'on' or 'profile', got {mode!r}")
        self.mode = mode
        self.registry = MetricRegistry()
        #: Set by :meth:`attach` in ``profile`` mode.
        self.profiler: Optional[KernelProfiler] = None
        self.series = TimeSeries(sample_interval_ns, max_windows=max_windows)
        self._sim = None
        self._chip = None
        self._t0 = 0.0
        self._last: Dict[str, float] = {}

    # -- lifecycle ----------------------------------------------------------
    def attach(self, sim, chip) -> None:
        """Bind at the measurement boundary; hooks the profiler in profile
        mode."""
        self._sim = sim
        self._chip = chip
        if self.mode == "profile":
            self.profiler = KernelProfiler.hook(sim)
            self.profiler.reset()
        # Delta columns accumulate traffic; everything else is a level.
        self.series.sum_cols = set(self._delta_names())
        self._t0 = sim.now
        self._last = self._cumulative()

    # -- periodic sampling ---------------------------------------------------
    def sample(self) -> None:
        """Append one window at ``sim.now``. ``simulate()`` calls it every
        ``series.interval_ns``, read after the previous sample (compaction
        doubles it)."""
        sim, chip = self._sim, self._chip
        now = sim.now
        row: Dict[str, float] = {}

        cum = self._cumulative()
        last = self._last
        for name, value in cum.items():
            row[name] = value - last.get(name, 0.0)
        self._last = cum

        for i, ch in enumerate(chip.ddr_channels):
            row[f"ddr{i}.rq"] = float(ch.read_queue_len())
            row[f"ddr{i}.wq"] = float(ch.write_queue_len())
        for j, port in enumerate(chip.ports):
            tx = getattr(port, "tx", None)
            if tx is not None:
                row[f"cxl{j}.tx_backlog_ns"] = tx.backlog_ns(now)
                row[f"cxl{j}.rx_backlog_ns"] = port.rx.backlog_ns(now)
        row["mshr"] = float(sum(c.mshr.occupancy for c in chip.cores))

        self.series.append(now, row)

    def _delta_names(self):
        """Column names sampled as per-window deltas of cumulative counters."""
        chip = self._chip
        names = []
        for i in range(len(chip.ddr_channels)):
            names.append(f"ddr{i}.bytes")
        for j, port in enumerate(chip.ports):
            if getattr(port, "tx", None) is not None:
                names.append(f"cxl{j}.tx_bytes")
                names.append(f"cxl{j}.rx_bytes")
        names.extend(["calm.go", "calm.suppress"])
        return names

    def _cumulative(self) -> Dict[str, float]:
        """Current values of the cumulative counters behind delta columns."""
        chip = self._chip
        out: Dict[str, float] = {}
        for i, ch in enumerate(chip.ddr_channels):
            out[f"ddr{i}.bytes"] = float(ch.stats.get("bytes", 0.0))
        for j, port in enumerate(chip.ports):
            if getattr(port, "tx", None) is not None:
                out[f"cxl{j}.tx_bytes"] = port.tx.bytes_moved
                out[f"cxl{j}.rx_bytes"] = port.rx.bytes_moved
        calm = chip.calm
        out["calm.go"] = float(calm.n_go)
        out["calm.suppress"] = float(calm.n_suppress_cap + calm.n_suppress_prob)
        return out

    # -- final aggregation ----------------------------------------------------
    def finish(self, chip, elapsed_ns: float) -> Dict:
        """Fold the chip's end-of-run counters into the registry; returns
        the deterministic snapshot.

        Unbinds the collector from the chip and the simulator, so a
        collector the caller keeps does not keep the chip alive; the
        registry, series and profiler stay exportable."""
        self._sim = self._chip = None
        reg = self.registry

        for i, ch in enumerate(chip.ddr_channels):
            labels = {"channel": f"ddr{i}"}
            for dirn, key in (("rd", "bytes_rd"), ("wr", "bytes_wr")):
                reg.counter("repro_ddr_bytes_total",
                            {**labels, "dir": dirn}).set_total(
                    ch.stats.get(key, 0.0))
            reg.gauge("repro_ddr_utilization", labels).set(
                ch.bandwidth_utilization(elapsed_ns))
            reg.gauge("repro_ddr_read_queue_hiwat", labels).set(
                ch.read_q_high_watermark())
            for cmd in ("num_act", "num_pre", "num_rd", "num_wr", "row_hits"):
                reg.counter("repro_dram_%s_total" % cmd.replace("num_", ""),
                            labels).set_total(ch.stats.get(cmd, 0.0))
        for j, port in enumerate(chip.ports):
            if getattr(port, "tx", None) is None:
                continue
            labels = {"port": f"cxl{j}"}
            util = port.link_utilizations(elapsed_ns)
            for dirn, link in (("tx", port.tx), ("rx", port.rx)):
                lab = {**labels, "dir": dirn}
                reg.counter("repro_cxl_bytes_total", lab).set_total(
                    link.bytes_moved)
                reg.gauge("repro_cxl_link_utilization", lab).set(util[dirn])

        for key in ("l2_misses", "llc_hits", "llc_misses", "mem_writes",
                    "calm_wasted_bytes", "prefetch_reqs", "l2_writebacks"):
            reg.counter(f"repro_{key}_total").set_total(
                chip.stats.get(key, 0.0))
        calm = chip.calm
        for decision, n in (("go", calm.n_go),
                            ("suppress_cap", calm.n_suppress_cap),
                            ("suppress_prob", calm.n_suppress_prob)):
            reg.counter("repro_calm_decisions_total",
                        {"decision": decision}).set_total(n)
        reg.gauge("repro_elapsed_ns").set(elapsed_ns)
        reg.gauge("repro_peak_bandwidth_gbps").set(
            chip.peak_memory_bandwidth_gbps)

        # The measured miss-latency distribution, shared with SimResult's
        # quantile fields (same underlying histogram).
        reg.histogram("repro_miss_latency_ns").merge(chip.lat.hist)
        return self.snapshot(with_profile=False)

    # -- output ----------------------------------------------------------------
    def snapshot(self, with_profile: bool = False) -> Dict:
        """JSON-safe payload of everything collected.

        ``with_profile=False`` (the default) keeps the payload
        deterministic: kernel-profile wall times vary run to run and are
        only included when exporting to a metrics file.
        """
        out = {
            "mode": self.mode,
            "t0_ns": self._t0,
            "series": self.series.to_dict(),
            "metrics": self.registry.snapshot(),
        }
        if with_profile and self.profiler is not None:
            out["profile"] = self.profiler.to_dict(with_wall=True)
        return out
