"""Tests for grids, cell fields and projections."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splitfv import (
    CellField,
    RunReport,
    TimeAxis,
    build_grid,
    l1_distance,
    linear_flux,
    linf_norm,
    make_step_record,
    project_initial,
    total_variation,
    upwind_linear,
    zero_source,
)


@pytest.fixture
def unit_grid():
    return build_grid(0.0, 1.0, 4)


class TestGrid1D:
    def test_spacing_and_centers(self, unit_grid):
        assert unit_grid.dx == pytest.approx(0.25)
        assert_allclose(unit_grid.cell_centers, [0.125, 0.375, 0.625, 0.875])

    def test_general_interval(self):
        grid = build_grid(-2.0, 3.0, 10)
        assert grid.dx == pytest.approx(0.5)
        assert grid.cell_centers[0] == pytest.approx(-1.75)

    @pytest.mark.parametrize("x_min,x_max,n_cells", [
        (0.0, 1.0, 4), (-2.0, 3.0, 10), (0.0, 1.0, 3200),
    ])
    def test_centers_are_one_read_only_array(self, x_min, x_max, n_cells):
        grid = build_grid(x_min, x_max, n_cells)
        x = grid.cell_centers
        assert grid.cell_centers is x
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0
        # The formula the grid always used, element for element.
        dx = (x_max - x_min) / n_cells
        assert x.tobytes() == (x_min + (np.arange(n_cells) + 0.5) * dx).tobytes()
        assert grid.dx == dx

    @pytest.mark.parametrize("x_min,x_max,n_cells", [
        (0.0, 1.0, 1),
        (0.0, 1.0, 0),
        (1.0, 1.0, 4),
        (2.0, 1.0, 4),
        (np.nan, 1.0, 4),
        (0.0, np.inf, 4),
    ])
    def test_rejects_bad_geometry(self, x_min, x_max, n_cells):
        with pytest.raises(ValueError):
            build_grid(x_min, x_max, n_cells)


class TestCellField:
    def test_copies_and_freezes_values(self, unit_grid):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        field = CellField(unit_grid, values)
        values[0] = 99.0
        assert field.values[0] == 1.0
        with pytest.raises(ValueError):
            field.values[0] = 5.0

    def test_shape_mismatch(self, unit_grid):
        with pytest.raises(ValueError):
            CellField(unit_grid, np.zeros(3))

    def test_rejects_non_finite(self, unit_grid):
        with pytest.raises(ValueError):
            CellField(unit_grid, np.array([1.0, np.nan, 0.0, 0.0]))


def _fields(n_cells: int, seed: int) -> list[np.ndarray]:
    """Random value arrays, plus all-zero ones and ones holding -0.0."""
    rng = np.random.default_rng(seed)
    zeros = np.zeros(n_cells)
    negative_zeros = np.full(n_cells, -0.0)
    mixed_zeros = np.where(rng.uniform(size=n_cells) < 0.5, 0.0, -0.0)
    with_negative_zero = rng.uniform(-1.0, 1.0, n_cells)
    with_negative_zero[::3] = -0.0
    return [
        rng.uniform(0.0, 5.0, n_cells),
        rng.normal(0.0, 1e3, n_cells),
        -rng.uniform(0.0, 1e-300, n_cells),
        zeros, negative_zeros, mixed_zeros, with_negative_zero,
    ]


def _same(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestNormFormulas:
    """The norms, a report's first entries and the entries record_step
    appends from a step's arrays equal the direct formulas, signed zeros
    included."""

    @pytest.mark.parametrize("n_cells", [2, 3, 4, 7, 200, 3200])
    @pytest.mark.parametrize("adopted", [False, True])
    def test_norms_equal_the_direct_formulas(self, n_cells, adopted):
        grid = build_grid(0.0, 1.0, n_cells)
        fluxdesc, src = upwind_linear(linear_flux(1.0)), zero_source()
        for k, values in enumerate(_fields(n_cells, seed=n_cells)):
            if adopted:
                field = CellField.adopt(grid, values.copy(), 0.0)
            else:
                field = CellField(grid, values)
            linf = float(np.abs(values).max())
            tv = float(np.abs(values[1:] - values[:-1]).sum())
            tv_interior = float(np.abs(values[2:-1] - values[1:-2]).sum())
            report = RunReport.start(field)
            after = values.copy()
            after.setflags(write=False)
            report.record_step(make_step_record(
                grid, 0.0, 0.1, field.values, field.values, after, 0.0, 0.0,
                0.0, 0.0, fluxdesc, src))
            for got, want in ((linf_norm(field), linf),
                              (report.linf[0], linf),
                              (report.linf[1], linf),
                              (total_variation(field), tv),
                              (report.tv[0], tv),
                              (report.tv[1], tv),
                              (report.tv_interior[0], tv_interior),
                              (report.tv_interior[1], tv_interior)):
                assert _same(got, want), (k, got, want)


class TestTimeAxis:
    def test_defaults(self):
        axis = TimeAxis(t_final=5.0)
        assert axis.dt_max == pytest.approx(0.1)
        assert axis.cfl_number == pytest.approx(0.9)

    @pytest.mark.parametrize("kwargs", [
        {"t_final": -1.0},
        {"t_final": 1.0, "dt_max": 0.0},
        {"t_final": 1.0, "dt_max": -0.5},
        {"t_final": 1.0, "cfl_number": 0.0},
        {"t_final": 1.0, "cfl_number": 1.5},
        {"t_final": 1.0, "cfl_number": 2.0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TimeAxis(**kwargs)

    def test_unit_cfl_is_allowed(self):
        assert TimeAxis(t_final=1.0, cfl_number=1.0).cfl_number == 1.0


class TestProjectInitial:
    def test_linear_data_is_projected_exactly(self, unit_grid):
        field = project_initial(lambda x: 3.0 * x - 1.0, unit_grid)
        assert_allclose(field.values, 3.0 * unit_grid.cell_centers - 1.0,
                        atol=1e-14)

    def test_quadratic_cell_averages(self):
        # Exact averages of x^2 over [0, 1/2] and [1/2, 1] are 1/12 and 7/12.
        grid = build_grid(0.0, 1.0, 2)
        coarse = project_initial(lambda x: x ** 2, grid, quadrature_points=8)
        assert_allclose(coarse.values, [1.0 / 12.0, 7.0 / 12.0], atol=5e-4)
        fine = project_initial(lambda x: x ** 2, grid, quadrature_points=400)
        assert_allclose(fine.values, [1.0 / 12.0, 7.0 / 12.0], atol=5e-7)

    def test_scalar_only_callable_falls_back(self, unit_grid):
        def scalar_u0(x):
            return float(np.sin(float(x)))

        direct = project_initial(scalar_u0, unit_grid)
        vectorized = project_initial(np.sin, unit_grid)
        assert_allclose(direct.values, vectorized.values, atol=1e-14)

    def test_discontinuous_data_stays_bounded(self):
        grid = build_grid(0.0, 1.0, 8)
        field = project_initial(lambda x: np.where(x < 0.3, 2.0, 0.5), grid)
        assert field.values.min() >= 0.5 - 1e-14
        assert field.values.max() <= 2.0 + 1e-14


class TestNorms:
    def test_total_variation(self, unit_grid):
        field = CellField(unit_grid, np.array([0.0, 2.0, 1.0, 1.0]))
        assert total_variation(field) == pytest.approx(3.0)

    def test_linf(self, unit_grid):
        field = CellField(unit_grid, np.array([0.5, -2.5, 1.0, 0.0]))
        assert linf_norm(field) == pytest.approx(2.5)

    def test_l1_distance(self, unit_grid):
        a = CellField(unit_grid, np.array([1.0, 1.0, 1.0, 1.0]))
        b = CellField(unit_grid, np.array([1.0, 0.0, 3.0, 1.0]))
        assert l1_distance(a, b) == pytest.approx(0.25 * 3.0)

    def test_l1_distance_rejects_different_grids(self, unit_grid):
        other = build_grid(0.0, 1.0, 8)
        a = CellField(unit_grid, np.ones(4))
        b = CellField(other, np.ones(8))
        with pytest.raises(ValueError):
            l1_distance(a, b)
