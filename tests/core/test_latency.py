"""Tests of the analytic latency model against the paper's own numbers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.latency import LatencyParams, Mesh, MeshLatencyModel, corner_tiles


class TestLatencyParams:
    def test_defaults_positive(self):
        p = LatencyParams()
        assert p.per_hop == pytest.approx(p.td_r + p.td_w + p.td_q)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyParams(td_r=-1)
        with pytest.raises(ValueError):
            LatencyParams(td_s=-0.1)

    def test_with_(self):
        p = LatencyParams().with_(td_q=0.0)
        assert p.td_q == 0.0
        assert p.td_r == LatencyParams().td_r

    def test_figure5_parameters(self):
        p = LatencyParams.paper_figure5()
        assert (p.td_r, p.td_w, p.td_q, p.td_s) == (3.0, 1.0, 0.0, 1.0)


class TestMesh:
    def test_tile_numbering_matches_equation_1(self):
        """Paper eq. 1: k = (i-1)*n + j, e.g. tile 29 of an 8x8 mesh sits
        at row 4, column 5 (1-based)."""
        mesh = Mesh.square(8)
        k = mesh.from_tile_number(29)
        row, col = mesh.coords(k)
        assert (row + 1, col + 1) == (4, 5)
        assert mesh.tile_number(k) == 29

    def test_coords_tile_roundtrip(self):
        mesh = Mesh(3, 5)
        for k in range(mesh.n_tiles):
            r, c = mesh.coords(k)
            assert mesh.tile(int(r), int(c)) == k

    def test_hops_is_manhattan(self):
        mesh = Mesh.square(4)
        assert mesh.hops(0, 15) == 6
        assert mesh.hops(5, 5) == 0
        assert mesh.hops(0, 3) == 3

    def test_hop_matrix_symmetric_zero_diagonal(self):
        mesh = Mesh(3, 4)
        h = mesh.hop_matrix
        assert np.array_equal(h, h.T)
        assert np.all(np.diag(h) == 0)

    def test_neighbors_counts(self):
        mesh = Mesh.square(3)
        assert len(mesh.neighbors(4)) == 4  # centre
        assert len(mesh.neighbors(0)) == 2  # corner
        assert len(mesh.neighbors(1)) == 3  # edge

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Mesh(0, 4)

    def test_tile_bounds(self):
        mesh = Mesh.square(2)
        with pytest.raises(IndexError):
            mesh.tile(2, 0)
        with pytest.raises(IndexError):
            mesh.tile_number(4)
        with pytest.raises(IndexError):
            mesh.from_tile_number(0)

    def test_as_grid_shape(self):
        mesh = Mesh(2, 3)
        grid = mesh.as_grid(np.arange(6))
        assert grid.shape == (2, 3)
        with pytest.raises(ValueError):
            mesh.as_grid(np.arange(5))

    @given(rows=st.integers(1, 6), cols=st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_hop_triangle_inequality(self, rows, cols):
        mesh = Mesh(rows, cols)
        h = mesh.hop_matrix
        n = mesh.n_tiles
        # Manhattan distance obeys the triangle inequality.
        assert np.all(h[:, :, None] + h[None, :, :] >= h[:, None, :].reshape(n, 1, n))


class TestHopAverages:
    def test_paper_hc_values_8x8(self, model8):
        """Paper Section II.C: HC_1 = 7 (corner), HC_28 = 4 (centre)."""
        assert model8.cache_hops[model8.mesh.from_tile_number(1)] == pytest.approx(7.0)
        assert model8.cache_hops[model8.mesh.from_tile_number(28)] == pytest.approx(4.0)

    def test_hc_centre_smaller_than_corner(self, model8):
        hc = model8.mesh.as_grid(model8.cache_hops)
        assert hc[3, 3] < hc[0, 0]
        assert hc[3, 4] == hc[3, 3]  # central symmetry

    def test_hm_matches_equation_4(self, model8):
        """HM_k = min(i-1, n-i) + min(j-1, n-j) with corner controllers."""
        n = 8
        for k in range(64):
            i, j = (int(x) + 1 for x in model8.mesh.coords(k))  # 1-based
            expected = min(i - 1, n - i) + min(j - 1, n - j)
            assert model8.mem_hops[k] == expected

    def test_hm_zero_at_controllers(self, model8):
        for mc in model8.mc_tiles:
            assert model8.mem_hops[mc] == 0

    def test_mesh_symmetry_of_hc(self, model8):
        hc = model8.mesh.as_grid(model8.cache_hops)
        assert np.allclose(hc, hc[::-1, :])
        assert np.allclose(hc, hc[:, ::-1])
        assert np.allclose(hc, hc.T)


class TestLatencyArrays:
    def test_figure5_tc_values(self, model4):
        """TC on the 4x4 example: corner 12.9375, edge 10.9375, centre 8.9375.

        These are the exact values that make the paper's Figure-5 APLs come
        out to 10.3375 / 11.5375 cycles.
        """
        tc = model4.mesh.as_grid(model4.tc)
        assert tc[0, 0] == pytest.approx(12.9375)
        assert tc[0, 1] == pytest.approx(10.9375)
        assert tc[1, 1] == pytest.approx(8.9375)

    def test_tc_formula(self, model8):
        p = model8.params
        n = model8.n_tiles
        expected = model8.cache_hops * p.per_hop + p.td_s * (n - 1) / n
        assert np.allclose(model8.tc, expected)

    def test_tm_serialization_skipped_at_controller(self, model8):
        assert model8.tm[0] == 0.0  # corner controller tile: no network at all
        inner = model8.mesh.tile(1, 1)
        p = model8.params
        assert model8.tm[inner] == pytest.approx(2 * p.per_hop + p.td_s)

    def test_arrays_read_only(self, model8):
        with pytest.raises(ValueError):
            model8.tc[0] = 1.0
        with pytest.raises(ValueError):
            model8.mem_hops[0] = 3.0

    def test_grids(self, model8):
        assert model8.tc_grid().shape == (8, 8)
        assert model8.tm_grid().shape == (8, 8)


class TestMemoryControllerPlacement:
    def test_default_corners(self, mesh8):
        assert corner_tiles(mesh8) == (0, 7, 56, 63)

    def test_custom_placement_changes_tm(self, mesh8):
        centre = (mesh8.tile(3, 3), mesh8.tile(3, 4), mesh8.tile(4, 3), mesh8.tile(4, 4))
        model = MeshLatencyModel(mesh8, mc_tiles=centre)
        assert model.mem_hops[mesh8.tile(3, 3)] == 0
        assert model.mem_hops[0] == 6  # corner now far from controllers

    def test_single_controller(self, mesh8):
        model = MeshLatencyModel(mesh8, mc_tiles=(0,))
        assert np.array_equal(model.mem_hops, model8_hops := mesh8.hop_matrix[:, 0])

    def test_duplicate_controllers_rejected(self, mesh8):
        with pytest.raises(ValueError):
            MeshLatencyModel(mesh8, mc_tiles=(0, 0))

    def test_out_of_range_controller_rejected(self, mesh8):
        with pytest.raises(IndexError):
            MeshLatencyModel(mesh8, mc_tiles=(64,))

    def test_empty_controllers_rejected(self, mesh8):
        with pytest.raises(ValueError):
            MeshLatencyModel(mesh8, mc_tiles=())

    def test_nearest_mc_quadrants(self, model8):
        # Top-left quadrant tiles route to controller 0.
        assert model8.nearest_mc(model8.mesh.tile(1, 2)) == 0
        assert model8.nearest_mc(model8.mesh.tile(1, 6)) == 7
        assert model8.nearest_mc(model8.mesh.tile(6, 1)) == 56
        assert model8.nearest_mc(model8.mesh.tile(6, 6)) == 63

    @pytest.mark.parametrize(
        "shape, mcs", [((8, 8), None), ((3, 5), (14, 0, 2)), ((4, 4), (10, 5))]
    )
    def test_nearest_mc_table_is_the_first_listed_closest(self, shape, mcs):
        # Ties go to the controller listed first in mc_tiles, not the
        # lowest tile id: tile 8 of (3, 5) is two hops from 14 and 2, tile
        # 6 of (4, 4) one hop from 10 and 5.
        model = MeshLatencyModel(Mesh(*shape), mc_tiles=mcs)
        hops = model.mesh.hop_matrix
        scan = [
            min(model.mc_tiles, key=lambda m: (hops[k, m], model.mc_tiles.index(m)))
            for k in range(model.n_tiles)
        ]
        assert list(model.nearest_mc_table) == scan
        assert [model.nearest_mc(k) for k in range(model.n_tiles)] == scan

    def test_int_shorthand_for_square_mesh(self):
        model = MeshLatencyModel(4)
        assert model.n_tiles == 16

    def test_with_params(self, model8):
        fast = model8.with_params(LatencyParams(td_r=1, td_w=1, td_q=0, td_s=1))
        assert fast.params.per_hop == 2
        assert fast.mc_tiles == model8.mc_tiles
        # Half-ish the per-hop cost shrinks TC accordingly.
        assert fast.tc.max() < model8.tc.max()
