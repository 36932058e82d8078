"""Per-device CXL latency profiles and the centralized interface model.

COAXIAL models the CXL interface with a single fixed premium (four port
traversals plus link serialization, ~52.5 ns unloaded for reads).
"Demystifying CXL Memory" (PAPERS.md) measured real Type-3 devices and
found wide, skewed latency distributions instead: a tight ASIC device
sits near the fixed model, while early FPGA-based or far-socket devices
add tens to hundreds of nanoseconds with a long tail.

This module owns *all* of the interface-latency math:

* :class:`DeviceProfile` — a named empirical distribution of per-request
  extra device latency, stored as inverse-CDF knots. The ``"fixed"``
  profile is the identity (zero extra) and is the system default, so the
  refactor reproduces the historical numbers bit-for-bit.
* :class:`LatencySampler` — a counter-based splitmix64 stream mapping a
  (seed, draw-index) pair through the profile's inverse CDF. Sampling is
  a pure function of the draw index, so any component that consumes
  draws in a loop-independent order (request arrival order is, by the
  bit-identity contract) stays bit-identical across both dispatch loops.
* :class:`DeviceLatencyModel` — the one place that computes port/link
  crossing times. ``CxlChannel`` routes both directions through it; the
  fixed premium is no longer scattered across submit/response paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.cxl.link import CxlLinkParams, SerialLink

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """splitmix64 finalizer: avalanche one 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def splitmix64_stream(seed: int, index: int) -> float:
    """The ``index``-th uniform draw in [0, 1) of the ``seed`` stream.

    Counter-based (no hidden state): draw ``i`` is a pure function of
    ``(seed, i)``, so replay, resume, and cross-kernel determinism are
    structural rather than incidental.
    """
    word = _mix64((seed + (index + 1) * _GOLDEN) & _MASK64)
    return (word >> 11) * (2.0 ** -53)


Knots = Tuple[Tuple[float, float], ...]


def _validate_knots(knots: Knots, label: str) -> None:
    if len(knots) < 2:
        raise ValueError(f"{label}: need at least 2 knots")
    if knots[0][0] != 0.0 or knots[-1][0] != 1.0:
        raise ValueError(f"{label}: knot quantiles must span [0, 1]")
    for (q0, v0), (q1, v1) in zip(knots, knots[1:]):
        if q1 <= q0:
            raise ValueError(f"{label}: knot quantiles must strictly increase")
        if v1 < v0:
            raise ValueError(f"{label}: knot values must be non-decreasing")
    if knots[0][1] < 0.0:
        raise ValueError(f"{label}: extra latency must be >= 0")


def _interp(knots: Knots, u: float) -> float:
    """Piecewise-linear inverse CDF over ``knots`` at quantile ``u``."""
    if u <= 0.0:
        return knots[0][1]
    if u >= 1.0:
        return knots[-1][1]
    for (q0, v0), (q1, v1) in zip(knots, knots[1:]):
        if u <= q1:
            return v0 + (v1 - v0) * (u - q0) / (q1 - q0)
    return knots[-1][1]


@dataclass(frozen=True)
class DeviceProfile:
    """Named empirical distribution of per-request device latency.

    ``read_knots`` / ``write_knots`` are inverse-CDF control points
    ``(quantile, extra_ns)`` with quantiles spanning [0, 1]; sampling
    interpolates linearly between them. The extra is *on top of* the
    structural port/link premium from :class:`CxlLinkParams`.
    """

    name: str
    description: str = ""
    read_knots: Knots = ((0.0, 0.0), (1.0, 0.0))
    write_knots: Knots = ((0.0, 0.0), (1.0, 0.0))

    def __post_init__(self) -> None:
        _validate_knots(self.read_knots, f"{self.name}.read_knots")
        _validate_knots(self.write_knots, f"{self.name}.write_knots")

    @property
    def is_fixed(self) -> bool:
        """True when the profile adds nothing (the historical fixed model)."""
        return self.read_knots[-1][1] == 0.0 and self.write_knots[-1][1] == 0.0

    def read_quantile(self, u: float) -> float:
        return _interp(self.read_knots, u)

    def write_quantile(self, u: float) -> float:
        return _interp(self.write_knots, u)

    def min_read_extra_ns(self) -> float:
        return self.read_knots[0][1]

    def mean_read_extra_ns(self) -> float:
        """Exact mean of the piecewise-linear read distribution."""
        total = 0.0
        for (q0, v0), (q1, v1) in zip(self.read_knots, self.read_knots[1:]):
            total += (q1 - q0) * (v0 + v1) / 2.0
        return total


#: The historical model: the premium is fully structural, zero sampled extra.
FIXED = DeviceProfile(
    name="fixed",
    description="flat Type-3 device; premium is ports + serialization only",
)

#: A tight ASIC-style device ("Demystifying CXL Memory" device A class):
#: narrow distribution centred ~25 ns above the structural premium.
DEMYSTIFY_A = DeviceProfile(
    name="demystify-a",
    description="ASIC Type-3 device: tight ~25 ns extra, short tail",
    read_knots=((0.0, 15.0), (0.50, 25.0), (0.95, 40.0), (1.0, 60.0)),
    write_knots=((0.0, 10.0), (0.50, 18.0), (1.0, 45.0)),
)

#: An early FPGA-style device: skewed, heavy-tailed distribution.
DEMYSTIFY_B = DeviceProfile(
    name="demystify-b",
    description="FPGA Type-3 device: skewed ~60 ns median, ~450 ns p99 tail",
    read_knots=((0.0, 30.0), (0.50, 60.0), (0.90, 140.0),
                (0.99, 450.0), (1.0, 900.0)),
    write_knots=((0.0, 25.0), (0.50, 50.0), (0.95, 200.0), (1.0, 600.0)),
)

#: A far-NUMA-socket-like device: moderate offset, modest tail.
FAR_SOCKET = DeviceProfile(
    name="far-socket",
    description="cross-socket-interleave-like device: ~45 ns extra, mild tail",
    read_knots=((0.0, 35.0), (0.50, 45.0), (0.95, 70.0), (1.0, 120.0)),
    write_knots=((0.0, 30.0), (0.50, 40.0), (1.0, 90.0)),
)

PROFILES: Dict[str, DeviceProfile] = {
    p.name: p for p in (FIXED, DEMYSTIFY_A, DEMYSTIFY_B, FAR_SOCKET)
}


def get_profile(name: str) -> DeviceProfile:
    if name not in PROFILES:
        raise KeyError(
            f"unknown device profile {name!r}; valid: {sorted(PROFILES)}")
    return PROFILES[name]


class LatencySampler:
    """Deterministic per-channel draw stream through a profile's inverse CDF.

    Draws are consumed in request-arrival order, which the kernel
    bit-identity contract guarantees is the same under the production
    and reference dispatch loops.
    """

    __slots__ = ("profile", "seed", "_count")

    def __init__(self, profile: DeviceProfile, seed: int = 0) -> None:
        self.profile = profile
        self.seed = seed & _MASK64
        self._count = 0

    @property
    def draws(self) -> int:
        return self._count

    def sample_read(self) -> float:
        u = splitmix64_stream(self.seed, self._count)
        self._count += 1
        return self.profile.read_quantile(u)

    def sample_write(self) -> float:
        u = splitmix64_stream(self.seed, self._count)
        self._count += 1
        return self.profile.write_quantile(u)

    def reset(self) -> None:
        self._count = 0


class DeviceLatencyModel:
    """The single owner of CXL interface-crossing latency.

    Both channel directions call into this model; the structural premium
    (one port before the link, one after — twice per round trip) lives
    here and nowhere else. When a non-fixed profile is installed the
    model additionally charges one sampled device-latency draw per
    request on the device-bound crossing.

    The fixed profile keeps the arithmetic expression *identical* to the
    historical inline code (no ``+ 0.0`` term is ever added), so default
    configurations are bit-for-bit unchanged.
    """

    __slots__ = ("params", "profile", "sampler")

    def __init__(self, params: CxlLinkParams,
                 profile: DeviceProfile = FIXED, seed: int = 0) -> None:
        self.params = params
        self.profile = profile
        self.sampler: Optional[LatencySampler] = (
            None if profile.is_fixed else LatencySampler(profile, seed))

    def crossing_ns(self, link: SerialLink, now: float, nbytes: float) -> float:
        """Arrival time of ``nbytes`` sent over ``link`` at ``now``.

        Ingress port, wire serialization (with FIFO link queuing), egress
        port — the historical expression, verbatim.
        """
        p = self.params
        return link.transfer(now + p.port_latency_ns, nbytes) + p.port_latency_ns

    def device_bound_ns(self, link: SerialLink, now: float, nbytes: float,
                        is_read: bool) -> float:
        """CPU->device crossing; charges the sampled device extra, if any."""
        arrive = self.crossing_ns(link, now, nbytes)
        if self.sampler is not None:
            extra = (self.sampler.sample_read() if is_read
                     else self.sampler.sample_write())
            arrive += extra
        return arrive

    def cpu_bound_ns(self, link: SerialLink, now: float, nbytes: float) -> float:
        """Device->CPU response crossing (no sampled extra)."""
        return self.crossing_ns(link, now, nbytes)

    def min_read_premium_ns(self) -> float:
        """Unloaded latency this interface adds to a read."""
        return (self.params.min_read_latency_ns()
                + self.profile.min_read_extra_ns())

    def reset(self) -> None:
        """Measurement boundary: restart the draw stream.

        Phase A (warmup) and Phase B (measurement) then consume
        identical draw sequences regardless of warmup length, keeping
        measured numbers a function of measured traffic only.
        """
        if self.sampler is not None:
            self.sampler.reset()
