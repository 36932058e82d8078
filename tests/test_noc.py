"""Unit tests for the 2D-mesh NoC model."""

import numpy as np
import pytest

from repro.noc import Mesh2D


class TestMesh2D:
    def test_rejects_empty_mesh(self):
        with pytest.raises(ValueError):
            Mesh2D(0, 4)

    def test_tile_count(self):
        assert Mesh2D(3, 4).n_tiles == 12

    def test_coords_roundtrip(self):
        m = Mesh2D(3, 4)
        assert m.coords(0) == (0, 0)
        assert m.coords(5) == (1, 1)
        assert m.coords(11) == (2, 3)

    def test_coords_out_of_range(self):
        with pytest.raises(ValueError):
            Mesh2D(2, 2).coords(4)

    def test_manhattan_hops(self):
        m = Mesh2D(3, 4)
        assert m.hops(0, 0) == 0
        assert m.hops(0, 3) == 3
        assert m.hops(0, 11) == 5  # (0,0) -> (2,3)

    def test_hop_latency_scales(self):
        m = Mesh2D(3, 4, hop_cycles=3, freq_ghz=2.4, inject_eject_cycles=4)
        ni = 4 / 2.4
        assert m.latency(0, 1) == pytest.approx(3 / 2.4 + ni)
        assert m.latency(0, 11) == pytest.approx(5 * 3 / 2.4 + ni)

    def test_ni_overhead_paid_even_for_local_traffic(self):
        m = Mesh2D(3, 4, inject_eject_cycles=4)
        assert m.latency(5, 5) == pytest.approx(4 / 2.4)

    def test_latency_symmetric(self):
        m = Mesh2D(3, 4)
        for s in range(12):
            for d in range(12):
                assert m.latency(s, d) == m.latency(d, s)

    def test_llc_slice_in_range_and_spread(self):
        m = Mesh2D(3, 4)
        slices = {m.llc_slice_of(line * 64) for line in range(4096)}
        assert slices == set(range(12))

    def test_llc_slice_of_address_column(self):
        # The set-parallel warmup hashes a whole uint64 address column in
        # one call; it must agree with the scalar call on every address.
        m = Mesh2D(3, 4)
        addrs = np.random.default_rng(0).integers(0, 2**64, 10_000,
                                                  dtype=np.uint64)
        assert m.llc_slice_of(addrs).tolist() == [
            m.llc_slice_of(a) for a in addrs.tolist()]

    def test_default_port_tiles_on_perimeter(self):
        m = Mesh2D(3, 4)
        tiles = m.default_port_tiles(4)
        assert len(tiles) == 4
        for t in tiles:
            r, c = m.coords(t)
            assert r in (0, 2) or c in (0, 3)

    def test_average_latency_positive(self):
        assert Mesh2D(3, 4).average_latency() > 0.0
