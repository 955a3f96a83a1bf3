"""Cells and grid partitions of the two-parameter time domain."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sheetsde.plane_geometry import (
    DegenerateGridError,
    GridPartition,
    geometric_grid,
    uniform_grid,
)


class TestGridPartition:
    def test_unit_grid_cell_area(self):
        g = uniform_grid(1, 1)
        assert g.areas()[0, 0] == 1.0

    def test_mixed_knot_cell_area(self):
        g = GridPartition((0.0, 0.5, 1.0), (0.0, 0.25))
        assert g.areas()[1, 0] == 0.125

    @given(st.integers(1, 6), st.integers(1, 6),
           st.floats(0.1, 5.0), st.floats(0.1, 5.0))
    def test_areas_tile_the_rectangle(self, n_s, n_t, s_max, t_max):
        g = uniform_grid(n_s, n_t, s_max, t_max)
        assert g.areas().shape == (n_s, n_t)
        assert math.isclose(g.areas().sum(), s_max * t_max, rel_tol=1e-12)

    def test_geometric_grid_tiles_and_grows(self):
        g = geometric_grid(5, 4, s_max=2.0, t_max=1.0, ratio=1.35)
        assert math.isclose(sum(g.s_gaps()), 2.0, rel_tol=1e-12)
        assert math.isclose(sum(g.t_gaps()), 1.0, rel_tol=1e-12)
        ratios = g.s_gaps()[1:] / g.s_gaps()[:-1]
        assert np.allclose(ratios, 1.35, rtol=1e-9)

    @pytest.mark.parametrize("shape, axis", [((89, 2), "s"), ((3, 128), "t")], ids=["89x2", "3x128"])
    def test_geometric_grid_names_its_vanishing_gap(self, shape, axis):
        # the first gap is about 0.35 / 1.35**n of the side: below 1e-12 from 89 cells on
        n = max(shape)
        with pytest.raises(DegenerateGridError,
                           match=rf"geometric_grid: {axis} axis of {n} cells at ratio 1\.35 "
                                 r"would give a smallest gap of [\d.e-]+, not above 1e-12"):
            geometric_grid(*shape)

    def test_geometric_grid_below_the_limit_is_the_plain_formula(self):
        cum = np.concatenate([[0.0], np.cumsum(1.35 ** np.arange(88))])
        g = geometric_grid(88, 3)
        assert g.s_knot_array().tobytes() == (cum * (1.0 / cum[-1])).tobytes()
        assert g.s_gaps().min() > 1e-12

    @pytest.mark.parametrize("shape", [(0, 2), (2, 0)])
    def test_geometric_grid_without_cells_fails_up_front(self, shape):
        # before the ratio arithmetic, so no division by zero warns on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="at least one cell per direction") as err:
                geometric_grid(*shape)
        assert type(err.value) is ValueError
        with pytest.raises(ValueError, match="at least one cell per direction"):
            uniform_grid(*shape)

    def test_duplicate_knots_rejected(self):
        with pytest.raises(DegenerateGridError):
            GridPartition((0.0, 0.5, 0.5), (0.0, 1.0))

    def test_knots_must_start_at_zero(self):
        with pytest.raises(DegenerateGridError):
            GridPartition((0.1, 0.5), (0.0, 1.0))

    def test_unsorted_knots_rejected(self):
        with pytest.raises(DegenerateGridError):
            GridPartition((0.0, 0.7, 0.4), (0.0, 1.0))

    def test_single_knot_rejected(self):
        with pytest.raises(DegenerateGridError):
            GridPartition((0.0,), (0.0, 1.0))

    def test_areas_are_read_only(self):
        g = uniform_grid(2, 2)
        with pytest.raises(ValueError):
            g.areas()[0, 0] = 2.0

    def test_knot_arrays_are_the_read_only_tuples(self):
        g = geometric_grid(5, 4)
        for knots, array in ((g.s_knots, g.s_knot_array()), (g.t_knots, g.t_knot_array())):
            assert all(type(k) is float for k in knots)
            assert array.tolist() == list(knots) and array.dtype == np.float64
            with pytest.raises(ValueError):
                array[1] = 0.5
        assert GridPartition(list(g.s_knots), np.array(g.t_knots)) == g

    def test_nested_knots_rejected(self):
        with pytest.raises(DegenerateGridError, match="flat sequence"):
            GridPartition(((0.0, 1.0), (0.0, 2.0)), (0.0, 1.0))
