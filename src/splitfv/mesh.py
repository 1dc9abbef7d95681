"""Uniform 1-D finite-volume grid, cell-averaged fields, and grid norms."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Grid1D:
    """Uniform partition of [x_min, x_max] into n_cells cells."""

    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self):
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise ValueError("grid endpoints must be finite")
        if self.x_max <= self.x_min:
            raise ValueError(f"degenerate interval: [{self.x_min}, {self.x_max}]")
        if self.n_cells < 2:
            raise ValueError(f"n_cells must be >= 2, got {self.n_cells}")

    @cached_property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def cell_centers(self) -> np.ndarray:
        """Cell midpoints, computed on first access and read-only.

        Every access returns the same array object, so a sink that caches
        its rates by position (`factory.as_source`) computes them once per
        grid. A plain property filling a private instance-dict entry,
        unlike the cached_property `dx`: a wrapper of a property's getter
        then still sees every access.
        """
        x = self.__dict__.get("_cell_centers")
        if x is None:
            x = self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx
            x.setflags(write=False)
            # The class is frozen: write the instance dict directly.
            self.__dict__["_cell_centers"] = x
        return x


def build_grid(x_min: float, x_max: float, n_cells: int) -> Grid1D:
    """Construct a uniform grid, validating the interval and cell count."""
    return Grid1D(float(x_min), float(x_max), int(n_cells))


@dataclass(frozen=True)
class CellField:
    """Cell-averaged scalar field on a grid at a given time.

    The value array is copied on construction and marked read-only, so a
    field can be shared between reports and observers without risk of
    aliasing bugs. A step record wraps the read-only arrays the split step
    computes with `adopt` instead, which skips the copy and the checks,
    when an observer first reads them as fields.
    """

    grid: Grid1D
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).copy()
        if values.shape != (self.grid.n_cells,):
            raise ValueError(
                f"values shape {values.shape} does not match n_cells={self.grid.n_cells}"
            )
        if not np.isfinite(values).all():
            raise ValueError("field values must be finite")
        if not np.isfinite(self.time):
            raise ValueError("field time must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def adopt(cls, grid: Grid1D, values: np.ndarray, time: float) -> CellField:
        """Wrap an array without copying or checking it, and mark it read-only.

        The caller guarantees what the constructor would check: a float
        array of shape (n_cells,) with finite entries, a finite time, and
        no other reference that writes to the array.
        """
        values.setflags(write=False)
        field = object.__new__(cls)
        # The class is frozen: fill the instance dict, as __init__ would.
        field.__dict__.update(grid=grid, values=values, time=time)
        return field


@dataclass(frozen=True)
class TimeAxis:
    """Time-marching parameters: horizon, step cap, and CFL safety factor."""

    t_final: float
    dt_max: float = 0.1
    cfl_number: float = 0.9

    def __post_init__(self):
        if not np.isfinite(self.t_final) or self.t_final < 0:
            raise ValueError(f"t_final must be >= 0, got {self.t_final}")
        if not np.isfinite(self.dt_max) or self.dt_max <= 0:
            raise ValueError(f"dt_max must be > 0, got {self.dt_max}")
        if not (0.0 < self.cfl_number <= 1.0):
            raise ValueError(f"cfl_number must be in (0, 1], got {self.cfl_number}")


def project_initial(u0: Callable, grid: Grid1D, quadrature_points: int = 8) -> CellField:
    """Project an initial profile onto cell averages by composite midpoint rule.

    Args:
        u0: real-valued function of position; may be vectorized over numpy
            arrays, a scalar-only callable is handled too.
        grid: target grid.
        quadrature_points: midpoint sub-samples per cell.

    Returns:
        CellField at time 0 with per-cell midpoint-rule averages.
    """
    if quadrature_points < 1:
        raise ValueError("quadrature_points must be >= 1")
    q = int(quadrature_points)
    dx = grid.dx
    left = grid.x_min + np.arange(grid.n_cells) * dx
    offsets = (np.arange(q) + 0.5) * (dx / q)
    points = left[:, None] + offsets[None, :]
    try:
        sampled = np.asarray(u0(points), dtype=float)
        if sampled.shape != points.shape:
            raise ValueError("shape mismatch")
    except (TypeError, ValueError):
        sampled = np.array(
            [[float(u0(float(p))) for p in row] for row in points], dtype=float
        )
    return CellField(grid, sampled.mean(axis=1), time=0.0)


def total_variation(field: CellField) -> float:
    """Sum of absolute jumps across interior interfaces."""
    return float(np.abs(np.diff(field.values)).sum())


def linf_norm(field: CellField) -> float:
    """Largest |u_j|; abs keeps an all-zero field at +0."""
    return float(np.abs(field.values).max())


def l1_distance(a: CellField, b: CellField) -> float:
    """Grid-weighted l1 distance between two fields on the same grid."""
    if a.grid != b.grid:
        raise ValueError(f"grid mismatch: {a.grid} vs {b.grid}")
    return float(a.grid.dx * np.sum(np.abs(a.values - b.values)))
