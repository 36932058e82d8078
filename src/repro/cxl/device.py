"""Type-3 CXL memory expansion device.

A Type-3 device is a CXL target with one or more unmodified DDR5 memory
controllers behind it (paper Figure 3b). COAXIAL's default devices carry
one DDR5 channel; COAXIAL-asym devices carry two (Section IV-D), consuming
the extra read bandwidth of the asymmetric link.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.engine import Component, Simulator
from repro.cxl.slowmedia import SsdMediaChannel, SsdParams
from repro.dram.controller import DDRChannel
from repro.dram.mapping import LINE_SHIFT
from repro.dram.timing import DDR5Timing
from repro.request import MemRequest


class CxlType3Device(Component):
    """Memory channels packaged behind a CXL target port.

    ``backend`` selects the capacity medium: ``"ddr"`` (unmodified DDR5
    controllers, the COAXIAL model) or ``"ssd"`` (slow-media channels
    with an on-device DRAM cache, :mod:`repro.cxl.slowmedia`).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        n_ddr_channels: int = 1,
        timing: Optional[DDR5Timing] = None,
        response_fn: Optional[Callable[[MemRequest], None]] = None,
        system_channels: int = 1,
        backend: str = "ddr",
        ssd_params: Optional[SsdParams] = None,
    ) -> None:
        """``system_channels`` is the system-wide DDR-channel count; the
        device's local channel select and its controllers' bank decode use
        the global channel index so they stay uncorrelated with the
        upstream CXL-port interleave."""
        super().__init__(sim, name)
        if n_ddr_channels < 1:
            raise ValueError("device needs at least one DDR channel")
        # The local channel select is the global channel index modulo the
        # device's channel count, so the interleave width must be a multiple
        # of the local count: otherwise the double modulo
        # ((addr >> 6) % system_channels) % n skews traffic across the
        # device-local channels (e.g. 8 system channels over 3 local ones
        # would load them 3:3:2). Builder-assembled systems always satisfy
        # this (total = ports * ddr_per_cxl); standalone devices get the
        # width rounded up, which only relabels unused interleave slots.
        system_channels = max(system_channels, 1)
        if system_channels % n_ddr_channels:
            system_channels += n_ddr_channels - (system_channels % n_ddr_channels)
        self.system_channels = system_channels
        if backend not in ("ddr", "ssd"):
            raise ValueError(f"unknown backend {backend!r}; valid: ddr, ssd")
        self.backend = backend
        if backend == "ssd":
            self.channels = [
                SsdMediaChannel(sim, f"{name}.ssd{i}", ssd_params,
                                response_fn=self._on_dram_response)
                for i in range(n_ddr_channels)
            ]
        else:
            self.channels: List[DDRChannel] = [
                DDRChannel(sim, f"{name}.ddr{i}", timing,
                           response_fn=self._on_dram_response,
                           system_channels=self.system_channels)
                for i in range(n_ddr_channels)
            ]
        self.response_fn = response_fn

    def submit(self, req: MemRequest) -> None:
        """Route a request to the device-local DDR channel by address.

        ``system_channels`` is a multiple of the local channel count (see
        ``__init__``), so the residue is uniform over local channels for
        any line-interleaved address stream.
        """
        g = (req.addr >> LINE_SHIFT) % self.system_channels
        chan = self.channels[g % len(self.channels)]
        chan.enqueue(req)

    def _on_dram_response(self, req: MemRequest) -> None:
        if self.response_fn is not None:
            self.response_fn(req)
        elif req.callback is not None:
            req.callback(req)

    def close(self) -> None:
        """Drop the upward callback and close the device's channels, whose
        callbacks point back here (see
        :meth:`repro.system.builder.Chip.close`)."""
        self.response_fn = None
        for ch in self.channels:
            ch.close()

    @property
    def peak_bandwidth_gbps(self) -> float:
        """Aggregate DDR bandwidth on the device."""
        return sum(c.peak_bandwidth_gbps for c in self.channels)
