"""Verification problems with known solutions and refinement studies.

Three stock problems:

  * advection-decay: u_t + (c u)_x = -r u with smooth periodic-in-space
    data on a window, exact solution exp(-r t) u0(x - c t); first-order
    convergence in L1 is expected.
  * Burgers shock: Riemann data uL > uR travels as a discontinuity at the
    Rankine-Hugoniot speed (uL + uR) / 2.
  * Burgers rarefaction: Riemann data uL < uR opens into the fan
    x/t between the characteristic speeds; a monotone scheme must not
    keep the initial discontinuity as an (entropy-violating) jump.

Refinement studies run a problem on a sequence of doubled grids with
exact-solution Dirichlet ghosts evaluated at the ghost cell centers, and
measure the L1 distance to the cell-averaged exact solution at the final
time.
"""

from __future__ import annotations

import time as time_module
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diagnostics import EntropyObserver
from .flux import (
    NumericalFluxDescriptor,
    PhysicalFlux,
    burgers_flux,
    engquist_osher,
    godunov,
    lax_friedrichs,
    linear_flux,
    upwind_linear,
)
from .mesh import CellField, TimeAxis, build_grid, l1_distance, project_initial
from .source import SourceDescriptor, proportional_decay, zero_source
from .splitting import BoundarySpec, RunReport, run


# =============================================================
# Exact solutions
# =============================================================

def exact_advection_decay(x, t, speed: float, rate: float,
                          u0: Callable[[np.ndarray], np.ndarray]):
    """Exact solution of u_t + speed u_x = -rate u from initial data u0."""
    return np.exp(-rate * t) * u0(np.asarray(x, dtype=float) - speed * t)


def rankine_hugoniot_shock(u_left: float, u_right: float, x0: float,
                           t: float) -> Callable[[np.ndarray], np.ndarray]:
    """Exact Burgers Riemann profile at time t >= 0, as a function of x.

    For u_left > u_right this is the entropy shock moving at the
    Rankine-Hugoniot speed (u_left + u_right) / 2; for u_left < u_right it
    is the rarefaction fan x/t between the characteristic speeds.
    """
    u_left = float(u_left)
    u_right = float(u_right)
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")

    if u_left >= u_right:
        speed = 0.5 * (u_left + u_right)
        xs = x0 + speed * t

        def profile(x):
            x = np.asarray(x, dtype=float)
            return np.where(x < xs, u_left, u_right)

        return profile

    def profile(x):
        x = np.asarray(x, dtype=float)
        if t == 0.0:
            return np.where(x < x0, u_left, u_right)
        fan = (x - x0) / t
        return np.clip(fan, u_left, u_right)

    return profile


# =============================================================
# Test problems
# =============================================================

@dataclass(frozen=True)
class TestProblem:
    """A problem with an exact solution, ready for a refinement study."""

    name: str
    physical: PhysicalFlux
    flux_kind: str
    source: SourceDescriptor
    initial: Callable[[np.ndarray], np.ndarray]
    exact: Callable[[np.ndarray, float], np.ndarray]
    t_final: float
    x_min: float = 0.0
    x_max: float = 1.0
    viscosity: float = 0.0

    def fluxdesc(self) -> NumericalFluxDescriptor:
        if self.flux_kind == "upwind-linear":
            return upwind_linear(self.physical)
        if self.flux_kind == "lax-friedrichs":
            return lax_friedrichs(self.physical, self.viscosity)
        if self.flux_kind == "godunov":
            return godunov(self.physical)
        if self.flux_kind == "engquist-osher":
            return engquist_osher(self.physical)
        raise ValueError(f"unknown flux kind {self.flux_kind!r}")


def advection_decay_problem(speed: float = 0.72, rate: float = 0.03,
                            t_final: float = 0.5,
                            flux_kind: str = "upwind-linear") -> TestProblem:
    """Linear transport with proportional decay and smooth initial data."""

    def u0(x):
        return 2.0 + np.sin(2.0 * np.pi * np.asarray(x, dtype=float))

    def exact(x, t):
        return exact_advection_decay(x, t, speed, rate, u0)

    return TestProblem(
        name="advection-decay",
        physical=linear_flux(speed),
        flux_kind=flux_kind,
        source=proportional_decay(rate),
        initial=u0,
        exact=exact,
        t_final=t_final,
    )


def burgers_shock_problem(u_left: float = 1.0, u_right: float = 0.0,
                          x0: float = 0.0, t_final: float = 0.5,
                          flux_kind: str = "godunov") -> TestProblem:
    """Burgers Riemann problem with a right-moving entropy shock."""
    if u_left <= u_right:
        raise ValueError("shock problem needs u_left > u_right")

    def u0(x):
        return rankine_hugoniot_shock(u_left, u_right, x0, 0.0)(x)

    def exact(x, t):
        return rankine_hugoniot_shock(u_left, u_right, x0, t)(x)

    return TestProblem(
        name="burgers-shock",
        physical=burgers_flux(),
        flux_kind=flux_kind,
        source=zero_source(),
        initial=u0,
        exact=exact,
        t_final=t_final,
        x_min=x0 - 0.5,
        x_max=x0 + 0.5,
    )


def burgers_rarefaction_problem(u_left: float = 0.0, u_right: float = 1.0,
                                x0: float = 0.25, t_final: float = 0.5,
                                flux_kind: str = "godunov") -> TestProblem:
    """Burgers Riemann problem opening into a rarefaction fan."""
    if u_left >= u_right:
        raise ValueError("rarefaction problem needs u_left < u_right")

    def u0(x):
        return rankine_hugoniot_shock(u_left, u_right, x0, 0.0)(x)

    def exact(x, t):
        return rankine_hugoniot_shock(u_left, u_right, x0, t)(x)

    return TestProblem(
        name="burgers-rarefaction",
        physical=burgers_flux(),
        flux_kind=flux_kind,
        source=zero_source(),
        initial=u0,
        exact=exact,
        t_final=t_final,
        x_min=x0 - 0.75,
        x_max=x0 + 0.75,
    )


# =============================================================
# Refinement study
# =============================================================

@dataclass(frozen=True)
class RefinementLevel:
    """One grid level of a refinement study."""

    n_cells: int
    l1_error: float
    entropy_max: float | None
    runtime_seconds: float


@dataclass(frozen=True)
class RefinementResult:
    """Errors and observed orders across a sequence of doubled grids."""

    problem_name: str
    levels: tuple[RefinementLevel, ...]
    orders: tuple[float, ...]

    @property
    def finest_error(self) -> float:
        return self.levels[-1].l1_error


def solve_on_grid(problem: TestProblem, n_cells: int, cfl_number: float = 0.9,
                  entropy_check: bool = True) -> tuple[CellField, RunReport, float | None]:
    """Run a test problem on one grid; returns (final field, report, entropy max).

    Ghost values come from the exact solution evaluated at the ghost cell
    centers at each step's starting time.
    """
    grid = build_grid(problem.x_min, problem.x_max, n_cells)
    initial = project_initial(problem.initial, grid)
    x_left = problem.x_min - 0.5 * grid.dx
    x_right = problem.x_max + 0.5 * grid.dx
    bc = BoundarySpec.dirichlet_pair(
        lambda t: float(np.asarray(problem.exact(np.array([x_left]), t))[0]),
        lambda t: float(np.asarray(problem.exact(np.array([x_right]), t))[0]),
    )
    axis = TimeAxis(t_final=problem.t_final, dt_max=problem.t_final,
                    cfl_number=cfl_number)
    observers = []
    entropy = None
    if entropy_check:
        entropy = EntropyObserver()
        observers.append(entropy)
    report = run(initial, problem.fluxdesc(), problem.source, bc, axis,
                 observers=observers)
    entropy_max = None
    if entropy is not None and entropy.results:
        entropy_max = max(r.max_residual for r in entropy.results)
    return report.final_field, report, entropy_max


def refinement_study(problem: TestProblem, base_cells: int = 50,
                     n_levels: int = 4, cfl_number: float = 0.9,
                     entropy_check: bool = True) -> RefinementResult:
    """L1 errors on doubled grids and the observed convergence orders.

    The error on each level is the L1 distance between the computed final
    field and the cell averages of the exact solution at the final time;
    orders are log2 ratios of consecutive errors.
    """
    if n_levels < 2:
        raise ValueError(f"need at least 2 levels, got {n_levels}")
    levels = []
    for level in range(n_levels):
        n_cells = base_cells * 2 ** level
        started = time_module.perf_counter()
        final, _, entropy_max = solve_on_grid(
            problem, n_cells, cfl_number=cfl_number,
            entropy_check=entropy_check,
        )
        elapsed = time_module.perf_counter() - started
        exact_final = project_initial(
            lambda x: problem.exact(x, problem.t_final), final.grid)
        err = l1_distance(final, exact_final)
        levels.append(RefinementLevel(
            n_cells=n_cells,
            l1_error=err,
            entropy_max=entropy_max,
            runtime_seconds=elapsed,
        ))
    orders = tuple(
        float(np.log2(levels[i].l1_error / levels[i + 1].l1_error))
        for i in range(len(levels) - 1)
    )
    return RefinementResult(
        problem_name=problem.name,
        levels=tuple(levels),
        orders=orders,
    )


def shock_position(field: CellField) -> float:
    """Cell edge with the largest jump between neighbours."""
    jumps = np.abs(np.diff(field.values))
    j = int(np.argmax(jumps))
    return field.grid.x_min + (j + 1) * field.grid.dx
