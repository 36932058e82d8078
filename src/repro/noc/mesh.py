"""2D-mesh NoC latency model.

The paper models the NoC as a 2D mesh at 3 cycles per hop (Table III) and
reports on-chip time (NoC + LLC) as ~15% of L2-miss latency on the baseline.
We model XY dimension-ordered routing with per-hop pipeline latency;
contention on mesh links is second-order for the studied systems (the
bottleneck the paper isolates is the memory controller), so links are
modelled contention-free, as in ChampSim's default NoC.

Tiles are numbered row-major. Each core tile hosts one LLC slice; memory
ports (DDR PHYs or CXL ports) attach at configurable edge tiles.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


class Mesh2D:
    """An R x C mesh of tiles with XY routing.

    Parameters
    ----------
    rows, cols:
        Mesh dimensions; ``rows * cols`` tiles.
    hop_cycles:
        Router+link pipeline depth per hop (paper: 3).
    freq_ghz:
        Mesh clock (paper: core clock, 2.4 GHz).
    mem_port_tiles:
        Tile index for each memory port; defaults spread ports around the
        mesh perimeter.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        hop_cycles: int = 3,
        freq_ghz: float = 2.4,
        mem_port_tiles: Sequence[int] = (),
        inject_eject_cycles: int = 4,
    ) -> None:
        if rows < 1 or cols < 1:
            raise ValueError("mesh must have at least one tile")
        self.rows = rows
        self.cols = cols
        self.hop_cycles = hop_cycles
        self.freq_ghz = freq_ghz
        self.hop_ns = hop_cycles / freq_ghz
        # Network interface cost paid once per traversal (packetization at
        # the source NI plus ejection/deserialization at the destination).
        self.inject_eject_cycles = inject_eject_cycles
        self.inject_eject_ns = inject_eject_cycles / freq_ghz
        self.mem_port_tiles: List[int] = list(mem_port_tiles)
        # Dense (src, dst) -> latency table. Tile-to-tile latency is a pure
        # function of the mesh geometry and is queried several times per
        # L2 miss; a precomputed row-of-lists lookup replaces three nested
        # calls per query on the hot path. Same arithmetic per pair, so
        # values are bit-identical to computing hops*hop_ns on the fly.
        n = rows * cols
        hop_ns = self.hop_ns
        ni = self.inject_eject_ns
        self._lat: List[List[float]] = []
        for src in range(n):
            r1, c1 = divmod(src, cols)
            row = []
            for dst in range(n):
                r2, c2 = divmod(dst, cols)
                hops = abs(r1 - r2) + abs(c1 - c2)
                row.append(hops * hop_ns + ni)
            self._lat.append(row)

    @property
    def n_tiles(self) -> int:
        return self.rows * self.cols

    def coords(self, tile: int) -> Tuple[int, int]:
        """(row, col) of a tile index."""
        if not 0 <= tile < self.n_tiles:
            raise ValueError(f"tile {tile} out of range")
        return divmod(tile, self.cols)

    def hops(self, src: int, dst: int) -> int:
        """Manhattan distance between two tiles (XY routing hop count)."""
        r1, c1 = self.coords(src)
        r2, c2 = self.coords(dst)
        return abs(r1 - r2) + abs(c1 - c2)

    def latency(self, src: int, dst: int) -> float:
        """One-way latency in ns between two tiles (incl. NI overheads)."""
        if not (0 <= src < self.n_tiles and 0 <= dst < self.n_tiles):
            raise ValueError(f"tile out of range: {src} -> {dst}")
        return self._lat[src][dst]

    def llc_slice_of(self, addr: int) -> int:
        """Address-interleaved LLC home slice for a line address.

        Also takes a numpy ``uint64`` address column and returns the slice
        of each. The hot miss paths in ``repro.system`` inline the same
        hash on line numbers.
        """
        line = addr >> 6
        # Mix upper bits so strided streams spread across slices.
        return (line ^ (line >> 7) ^ (line >> 13)) % self.n_tiles

    def port_tile(self, port_idx: int) -> int:
        """Tile where memory port ``port_idx`` attaches."""
        if self.mem_port_tiles:
            return self.mem_port_tiles[port_idx % len(self.mem_port_tiles)]
        return self.default_port_tiles(4)[port_idx % 4]

    def default_port_tiles(self, n_ports: int) -> List[int]:
        """Spread ``n_ports`` attach points across the mesh perimeter."""
        perim = []
        for r in range(self.rows):
            for c in range(self.cols):
                if r in (0, self.rows - 1) or c in (0, self.cols - 1):
                    perim.append(r * self.cols + c)
        if not perim:
            perim = [0]
        step = max(1, len(perim) // max(1, n_ports))
        return [perim[(i * step) % len(perim)] for i in range(n_ports)]

    def average_latency(self) -> float:
        """Mean one-way tile-to-tile latency across all pairs (ns)."""
        total = 0
        n = self.n_tiles
        for s in range(n):
            for d in range(n):
                total += self.hops(s, d)
        return total / (n * n) * self.hop_ns + self.inject_eject_ns
