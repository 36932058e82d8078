"""A CXL channel: CPU-side port + serial links + Type-3 device.

This is the memory-port abstraction COAXIAL systems plug into the system
builder: it accepts :class:`~repro.request.MemRequest` objects, carries
them over the bandwidth-limited TX link to the device's DDR controller,
and returns read data over the RX link. All four port traversals and both
link serializations are modelled, so both the unloaded latency premium
(~52.5 ns for reads) and loaded link queuing emerge.

Each crossing is one expression: port, FIFO wire serialization, port.
The device-bound crossing also adds one draw from the opt-in per-device
latency profile (``device_profile`` config knob,
:mod:`repro.cxl.profiles`); the default ``"fixed"`` profile draws
nothing, so no ``+ 0.0`` term ever enters the sum.

The time a request spends crossing ports/links (including link queuing
and any sampled device extra) accumulates into ``req.cxl_delay`` so
latency breakdowns can report the CXL interface component separately
(paper Figures 5/10).
"""

from __future__ import annotations

from typing import Optional

from repro.engine import Component, Simulator
from repro.cxl.device import CxlType3Device
from repro.cxl.link import CxlLinkParams, SerialLink, X8_CXL
from repro.cxl.profiles import FIXED, DeviceProfile, LatencySampler
from repro.cxl.slowmedia import SsdParams
from repro.dram.timing import DDR5Timing
from repro.request import MemRequest, READ


class CxlChannel(Component):
    """One CXL channel attaching a Type-3 device to the processor."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        params: CxlLinkParams = X8_CXL,
        n_ddr_channels: int = 1,
        timing: Optional[DDR5Timing] = None,
        system_channels: int = 1,
        profile: DeviceProfile = FIXED,
        profile_seed: int = 0,
        backend: str = "ddr",
        ssd_params: Optional[SsdParams] = None,
    ) -> None:
        super().__init__(sim, name)
        self.params = params
        self.tx = SerialLink(params.tx_goodput_gbps)
        self.rx = SerialLink(params.rx_goodput_gbps)
        self.profile = profile
        self.sampler: Optional[LatencySampler] = (
            None if profile.is_fixed else LatencySampler(profile, profile_seed))
        self.device = CxlType3Device(
            sim, f"{name}.dev", n_ddr_channels, timing,
            response_fn=self._on_dram_response,
            system_channels=system_channels,
            backend=backend, ssd_params=ssd_params,
        )
        # Observer slot (repro.observer), set by ``Chip.set_observer``:
        # one attribute test per hook site.
        self.observer = None

    # -- CPU-side entry point -------------------------------------------------
    def submit(self, req: MemRequest) -> None:
        """Send a request towards the device over the TX direction."""
        now = self.sim.now
        p = self.params
        port = p.port_latency_ns
        st = self.stats
        if req.kind == READ:
            nbytes = p.req_bytes
            is_read = True
            st["reads"] = st.get("reads", 0.0) + 1.0
        else:
            nbytes = 64 + p.header_bytes
            is_read = False
            st["writes"] = st.get("writes", 0.0) + 1.0
        # CPU egress port, TX wire, device ingress port (+ profile extra).
        arrive = self.tx.transfer(now + port, nbytes) + port
        if self.sampler is not None:
            arrive += (self.sampler.sample_read() if is_read
                       else self.sampler.sample_write())
        req.cxl_delay += arrive - now
        if self.observer is not None:
            self.observer.on_cxl_tx(req, now, arrive)
        st["tx_bytes"] = st.get("tx_bytes", 0.0) + nbytes
        self.sim.schedule_at(arrive, self.device.submit, req)

    # -- device-side response path ---------------------------------------------
    def _on_dram_response(self, req: MemRequest) -> None:
        now = self.sim.now
        p = self.params
        port = p.port_latency_ns
        nbytes = 64 + p.header_bytes
        # Device egress port, RX wire, CPU ingress port.
        arrive = self.rx.transfer(now + port, nbytes) + port
        req.cxl_delay += arrive - now
        if self.observer is not None:
            self.observer.on_cxl_rx(req, now, arrive)
        st = self.stats
        st["rx_bytes"] = st.get("rx_bytes", 0.0) + nbytes
        self.sim.schedule_at(arrive, self._deliver, req)

    def _deliver(self, req: MemRequest) -> None:
        if req.callback is not None:
            req.callback(req)

    def close(self) -> None:
        """Unwire the device, whose callbacks point back into this channel
        (see :meth:`repro.system.builder.Chip.close`)."""
        self.device.close()

    # -- introspection -----------------------------------------------------------
    @property
    def peak_bandwidth_gbps(self) -> float:
        """Device-side DDR bandwidth behind this channel (read path)."""
        return self.device.peak_bandwidth_gbps

    def reset_link_counters(self) -> None:
        """Zero the serial links' byte counters (measurement boundary).

        Also restarts the profile draw stream so measured latency is a
        function of measured traffic only, not warmup length.
        """
        self.tx.bytes_moved = 0.0
        self.rx.bytes_moved = 0.0
        if self.sampler is not None:
            self.sampler.reset()

    def link_utilizations(self, elapsed_ns: float) -> dict:
        """Achieved / goodput fraction per link direction over a window.

        The invariant checker asserts both stay <= 1; anything above
        physical goodput means bytes were double-counted somewhere.
        """
        return {"tx": self.tx.utilization(elapsed_ns),
                "rx": self.rx.utilization(elapsed_ns)}

    def min_read_premium_ns(self) -> float:
        """Unloaded latency this channel adds to a read (profile floor
        included)."""
        return (self.params.min_read_latency_ns()
                + self.profile.min_read_extra_ns())
