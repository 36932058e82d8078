"""CXL substrate: ports, serial links, and Type-3 memory expansion devices.

Models the paper's CXL performance parameters (SSV):

- each CXL port traversal costs 12.5 ns (flit packing, encode/decode,
  packet processing — PLDA/Intel CXL 2.0 controller IP figures);
- an x8 channel delivers 26 GB/s of read goodput (device-to-CPU, RX) and
  13 GB/s of write goodput (CPU-to-device, TX) after PCIe/CXL header
  overheads;
- the CXL-asym variant re-provisions the same 32 pins as 20 RX / 12 TX
  lanes for 32 GB/s read and 10 GB/s write goodput (Section IV-D).

A read therefore adds a minimum of 4 x 12.5 + 2.5 = 52.5 ns end to end;
loaded links add queuing on top, which the model captures with
per-direction bandwidth-reserved FIFOs.
"""

from repro.cxl.link import SerialLink, CxlLinkParams, X8_CXL, X8_CXL_ASYM, OMI_LIKE
from repro.cxl.profiles import (
    PROFILES, DeviceProfile, LatencySampler, get_profile,
)
from repro.cxl.slowmedia import DEFAULT_SSD, SsdMediaChannel, SsdParams
from repro.cxl.channel import CxlChannel
from repro.cxl.device import CxlType3Device

__all__ = [
    "SerialLink", "CxlLinkParams", "X8_CXL", "X8_CXL_ASYM", "OMI_LIKE",
    "CxlChannel", "CxlType3Device",
    "DeviceProfile", "LatencySampler", "PROFILES",
    "get_profile", "SsdParams", "SsdMediaChannel", "DEFAULT_SSD",
]
