"""Split-step time integration: implicit source stage, explicit transport.

One time step of size dt from t to t + dt does, in order:

  1. source stage:    solve  ubar_j = u_j + dt * g(x_j, t, ubar_j)
  2. ghost filling:   boundary values from the post-source field ubar
  3. transport stage: u_j^+ = ubar_j - (dt/dx) (F(ubar_j, ubar_{j+1})
                                               - F(ubar_{j-1}, ubar_j))

with F a monotone two-point numerical flux. The transport stage refuses to
run when dt exceeds the hard CFL limit dx / L for the Lipschitz constant L
of the flux over the stencil range (ghosts included; a flux declared linear
has one L whatever the range, so its field is not scanned).

The stages take and return float arrays; `march` carries the state as an
array and its time. A step's StepRecord holds the arrays before, between and
after the stages, and wraps each in a CellField only the first time an
observer reads it, so a run with no such reader builds no field per step.

The source stage is a contraction only while dt * lipschitz_u < 1 for the
source's Lipschitz constant in u. Both `run` and the line model's
`run_factory` keep dt a relative _CFL_MARGIN below that limit and below
the hard CFL limit, and march every step through `split_step`.

Boundaries: the left boundary is either a Dirichlet trace or an influx
rate; an influx ghost is the rate divided by the speed f(1) of the step's
physical flux (PhysicalFlux.speed), which must be declared linear
(f(u) = f(1) u). The right boundary is outflow (zero-gradient copy) or
Dirichlet. The schedules depend on time alone, so `march` reads them once a
step (BoundarySpec.values_at) for the step's dt proposal and its transport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .flux import (
    NumericalFluxDescriptor,
    PhysicalFlux,
    eval_flux,
    flux_lipschitz,
    max_dt,
)
from .mesh import CellField, Grid1D, TimeAxis, linf_norm, total_variation
from .source import SourceDescriptor, implicit_source_step

JAM_VELOCITY_FLOOR = 1e-10
# Relative margin around a hard step limit, used two ways. The drivers keep
# dt this far below the limit (the CFL limit of the transport stage, the
# contraction limit of the source stage): an upwind update whose Courant
# number reaches 1 by rounding turns an empty cell negative, and the line
# model's source solve can put the actual speed slightly above the bound its
# dt was sized for. transport_stage refuses a step only when its Courant
# number exceeds 1 by more than this, so a dt sized at the limit by rounding
# still runs.
_CFL_MARGIN = 1e-9


def _source_dt_limit(src: SourceDescriptor) -> float:
    """Largest dt `run` and `run_factory` allow the source stage: a relative
    _CFL_MARGIN under its contraction limit 1 / lipschitz_u (inf for
    lipschitz_u = 0)."""
    if src.lipschitz_u > 0.0:
        return (1.0 - _CFL_MARGIN) / src.lipschitz_u
    return math.inf


class CFLViolationError(RuntimeError):
    """The requested dt exceeds the hard CFL limit for this stencil."""


class JammedLineError(RuntimeError):
    """Transport velocity collapsed; an influx boundary cannot be filled."""


# =============================================================
# Boundary conditions
# =============================================================

def _as_schedule(value) -> Callable[[float], float]:
    if callable(value):
        return value
    v = float(value)
    return lambda t: v


@dataclass(frozen=True)
class BoundarySpec:
    """Left boundary: 'dirichlet' or 'influx'; right: 'outflow' or 'dirichlet'.

    Schedules are callables of time: a Dirichlet schedule yields the ghost
    density directly, an influx schedule yields the boundary flux rate that
    is converted to a ghost density via the speed of the step's flux.
    """

    left_kind: str
    right_kind: str
    left_schedule: Callable[[float], float]
    right_schedule: Callable[[float], float] | None = None

    def __post_init__(self):
        if self.left_kind not in ("dirichlet", "influx"):
            raise ValueError(f"left_kind must be dirichlet or influx, got {self.left_kind!r}")
        if self.right_kind not in ("outflow", "dirichlet"):
            raise ValueError(f"right_kind must be outflow or dirichlet, got {self.right_kind!r}")
        if self.right_kind == "dirichlet" and self.right_schedule is None:
            raise ValueError("right dirichlet boundary needs a schedule")

    @classmethod
    def dirichlet_pair(cls, left, right) -> BoundarySpec:
        return cls("dirichlet", "dirichlet", _as_schedule(left), _as_schedule(right))

    @classmethod
    def dirichlet_outflow(cls, left) -> BoundarySpec:
        return cls("dirichlet", "outflow", _as_schedule(left))

    @classmethod
    def influx_outflow(cls, influx) -> BoundarySpec:
        return cls("influx", "outflow", _as_schedule(influx))

    def values_at(self, t: float) -> tuple[float, float | None]:
        """The schedules read at time t: the left Dirichlet value or influx
        rate, then the right Dirichlet value, or None for an outflow
        boundary, whose ghost is copied from the field."""
        left = float(self.left_schedule(t))
        if self.right_kind == "outflow":
            return left, None
        return left, float(self.right_schedule(t))


def fill_ghosts(values: np.ndarray, bc: BoundarySpec,
                edge: tuple[float, float | None],
                flux: PhysicalFlux | None = None) -> tuple[float, float]:
    """Ghost cell values flanking the post-source cell values.

    edge holds bc's schedules read at the step's time (bc.values_at). An
    influx ghost is the rate divided by the speed f(1) of `flux`, read from
    `flux.speed`; a flux not declared linear has none and is refused
    (ValueError). An outflow ghost copies the last cell of `values`.
    """
    ghost_left, ghost_right = edge
    if bc.left_kind == "influx":
        speed = None if flux is None else flux.speed
        if speed is None:
            raise ValueError("an influx boundary needs a flux declared linear")
        if speed <= JAM_VELOCITY_FLOOR:
            raise JammedLineError(
                f"transport velocity {speed} is at or below the jam floor "
                f"{JAM_VELOCITY_FLOOR}"
            )
        ghost_left = ghost_left / speed
    if ghost_right is None:
        ghost_right = float(values[-1])
    if not (math.isfinite(ghost_left) and math.isfinite(ghost_right)):
        raise ValueError(f"non-finite ghost value ({ghost_left}, {ghost_right})")
    return ghost_left, ghost_right


# =============================================================
# Stages and the combined step
# =============================================================

@dataclass(frozen=True)
class StepRecord:
    """Everything one accepted step produced, for observers and diagnostics.

    The step's states are read-only arrays on `grid`: u_before at t_before,
    u_bar after the source stage (still at t_before) and u_after at
    t_after = t_before + dt. field_before, field_bar and field_after wrap
    them in CellFields (CellField.adopt, no copy) the first time they are
    read and return that same object on every later read of this record.
    """

    grid: Grid1D
    t_before: float
    dt: float
    u_before: np.ndarray
    u_bar: np.ndarray
    u_after: np.ndarray
    ghost_left: float
    ghost_right: float
    flux_left: float
    flux_right: float
    fluxdesc: NumericalFluxDescriptor
    src: SourceDescriptor

    @property
    def t_after(self) -> float:
        return self.t_before + self.dt

    @cached_property
    def field_before(self) -> CellField:
        return CellField.adopt(self.grid, self.u_before, self.t_before)

    @cached_property
    def field_bar(self) -> CellField:
        return CellField.adopt(self.grid, self.u_bar, self.t_before)

    @cached_property
    def field_after(self) -> CellField:
        return CellField.adopt(self.grid, self.u_after, self.t_after)


# Per-step transport flux: maps the post-source values to the numerical
# flux of the step.
FluxBuilder = Callable[[np.ndarray], NumericalFluxDescriptor]


def source_stage(u: np.ndarray, t: float, dt: float, src: SourceDescriptor,
                 x: np.ndarray) -> np.ndarray:
    """Backward-Euler source update of every cell at time t, as a new
    read-only array; x holds the cell centres."""
    bar = implicit_source_step(u, x, t, dt, src)
    # implicit_source_step returns a new array and raises on non-finite values.
    bar.setflags(write=False)
    return bar


def transport_stage(u_bar: np.ndarray, dt: float, dx: float,
                    fluxdesc: NumericalFluxDescriptor, ghost_left: float,
                    ghost_right: float) -> tuple[np.ndarray, float, float]:
    """Explicit conservative update of the post-source values between the
    two ghosts, on cells of width dx.

    Returns (u_after, flux_left, flux_right) with u_after a new read-only
    array. Refuses (CFLViolationError) a dt above the hard CFL limit over
    the stencil range. A flux declared linear has one Lipschitz constant
    over every range, so its cells are not scanned for theirs.
    """
    if fluxdesc.physical.linear:
        lo, hi = min(ghost_left, ghost_right), max(ghost_left, ghost_right)
    else:
        lo = min(float(u_bar.min()), ghost_left, ghost_right)
        hi = max(float(u_bar.max()), ghost_left, ghost_right)
    L = flux_lipschitz(fluxdesc, lo, hi)
    if dt * L / dx > 1.0 + _CFL_MARGIN:
        raise CFLViolationError(
            f"dt={dt} exceeds the hard CFL limit {dx / L if L > 0 else np.inf} "
            f"(flux Lipschitz constant {L} over the stencil range)"
        )
    ext = np.empty(u_bar.size + 2)
    ext[0], ext[1:-1], ext[-1] = ghost_left, u_bar, ghost_right
    F = eval_flux(fluxdesc, ext[:-1], ext[1:])
    u_after = u_bar - (dt / dx) * (F[1:] - F[:-1])
    if not np.isfinite(u_after).all():
        raise ArithmeticError("transport stage produced non-finite values")
    u_after.setflags(write=False)
    return u_after, float(F[0]), float(F[-1])


def make_step_record(grid: Grid1D, t_before: float, dt: float,
                     u_before: np.ndarray, u_bar: np.ndarray,
                     u_after: np.ndarray, ghost_left: float,
                     ghost_right: float, flux_left: float, flux_right: float,
                     fluxdesc: NumericalFluxDescriptor,
                     src: SourceDescriptor) -> StepRecord:
    """Assemble the StepRecord of one accepted step; it checks nothing."""
    return StepRecord(grid, t_before, dt, u_before, u_bar, u_after,
                      ghost_left, ghost_right, flux_left, flux_right,
                      fluxdesc, src)


def split_step(grid: Grid1D, u: np.ndarray, t: float, dt: float,
               src: SourceDescriptor, bc: BoundarySpec, flux_for: FluxBuilder,
               edge: tuple[float, float | None], x: np.ndarray) -> StepRecord:
    """One full split step of the values u at time t: the source stage,
    then transport.

    flux_for builds the step's flux from the post-source values; edge holds
    bc's schedules read at t (bc.values_at) and x the cell centres of grid.
    Refuses to run outside its stability conditions.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be > 0, got {dt}")
    bar = source_stage(u, t, dt, src, x)
    fluxdesc = flux_for(bar)
    ghost_left, ghost_right = fill_ghosts(bar, bc, edge, fluxdesc.physical)
    after, flux_left, flux_right = transport_stage(
        bar, dt, grid.dx, fluxdesc, ghost_left, ghost_right
    )
    return make_step_record(
        grid, t, dt, u, bar, after, ghost_left, ghost_right, flux_left,
        flux_right, fluxdesc, src,
    )


def step(field: CellField, dt: float, fluxdesc: NumericalFluxDescriptor,
         src: SourceDescriptor, bc: BoundarySpec) -> StepRecord:
    """One full split step of a field with a fixed flux."""
    return split_step(field.grid, field.values, field.time, dt, src, bc,
                      lambda bar: fluxdesc, bc.values_at(field.time),
                      field.grid.cell_centers)


# =============================================================
# Run driver and report
# =============================================================

@dataclass
class RunReport:
    """Per-step diagnostic record of a run.

    `initial` is the field the run started from. Scalar series are aligned
    with `times` (one entry per accepted state, initial state included);
    `dts` and the ghost series have one entry per step. `channels` holds
    the named values of the channels hook given to `march`, each series
    aligned with `times`. Whole states are kept only at the checkpoint
    times and for the final field; an observer that appends each step's
    rec.u_after collects every state. It holds no verdicts.
    """

    initial: CellField
    times: list = dataclass_field(default_factory=list)
    dts: list = dataclass_field(default_factory=list)
    linf: list = dataclass_field(default_factory=list)
    tv: list = dataclass_field(default_factory=list)
    tv_interior: list = dataclass_field(default_factory=list)
    ghost_left: list = dataclass_field(default_factory=list)
    ghost_right: list = dataclass_field(default_factory=list)
    channels: dict = dataclass_field(default_factory=dict)
    checkpoints: dict = dataclass_field(default_factory=dict)
    _last: StepRecord | None = dataclass_field(default=None, init=False,
                                               repr=False)

    @classmethod
    def start(cls, initial: CellField) -> RunReport:
        report = cls(initial=initial)
        report.times.append(initial.time)
        report.linf.append(linf_norm(initial))
        report.tv.append(total_variation(initial))
        u = initial.values
        report.tv_interior.append(float(np.abs(u[1:] - u[:-1])[1:-1].sum()))
        return report

    def _append_channels(self, values: dict[str, float]) -> None:
        for name, value in values.items():
            self.channels.setdefault(name, []).append(value)

    def record_step(self, rec: StepRecord) -> None:
        """Append the step's state norms, dt and ghosts, from its arrays.

        The floats are those linf_norm, total_variation and the interior
        variation (the jumps but the two at the boundaries) give on
        rec.field_after, which is not built.
        """
        u = rec.u_after
        jumps = np.abs(u[1:] - u[:-1])
        self.times.append(rec.t_after)
        # max |u_j| is max(|min|, |max|): abs is exact.
        self.linf.append(float(np.abs(u).max()))
        self.tv.append(float(jumps.sum()))
        self.tv_interior.append(float(jumps[1:-1].sum()))
        self.dts.append(rec.dt)
        self.ghost_left.append(rec.ghost_left)
        self.ghost_right.append(rec.ghost_right)
        self._last = rec

    @property
    def final_field(self) -> CellField:
        """The last recorded state: the initial field, or the last step's
        field_after."""
        return self.initial if self._last is None else self._last.field_after

    @property
    def grid(self) -> Grid1D:
        return self.initial.grid

    @property
    def n_steps(self) -> int:
        return len(self.dts)


def march(initial: CellField, t_final: float,
          pick_dt: Callable[[np.ndarray, float, tuple, RunReport], float],
          src: SourceDescriptor, bc: BoundarySpec, flux_for: FluxBuilder,
          observers: Iterable[Callable[[StepRecord], None]] = (),
          checkpoint_times: Sequence[float] = (),
          channels: Callable[[np.ndarray, float], dict[str, float]] | None = None,
          ) -> RunReport:
    """Generic adaptive time loop shared by the plain and model-bound drivers.

    The state is a read-only values array and its time. Each step reads
    bc's schedules once at that time (bc.values_at); pick_dt(u, t, edge,
    report) proposes a stable step for the state, given those values and
    the report recorded so far; split_step performs it with the flux
    flux_for builds. Steps are clipped so the run lands exactly on each
    checkpoint time and on t_final; the values at those times go to
    report.checkpoints. channels, when given, maps the initial state and
    every step's result (values, time) to named values, appended to
    report.channels before the observers run. Observers see every step's
    StepRecord, in order; they are the one route to per-step output beyond
    the report's series. A non-finite t_final is refused (ValueError).
    """
    if not math.isfinite(t_final):
        raise ValueError(f"t_final must be finite, got {t_final}")
    if t_final < initial.time:
        raise ValueError(f"t_final={t_final} precedes the initial time {initial.time}")
    observers = tuple(observers)
    report = RunReport.start(initial)
    if channels is not None:
        report._append_channels(channels(initial.values, initial.time))
    grid = initial.grid
    # The grid's cached, read-only cell centres, shared by every step's
    # source stage.
    x = grid.cell_centers
    tiny = 1e-12 * max(1.0, abs(t_final))
    targets = sorted({float(c) for c in checkpoint_times})
    for target in targets:
        if abs(target - initial.time) <= tiny:
            report.checkpoints[target] = initial.values

    # The state's time advances by each step's dt; t is the marching time,
    # set to the exact time each step lands on.
    u, time = initial.values, initial.time
    t = initial.time
    while t < t_final - tiny:
        edge = bc.values_at(time)
        dt = pick_dt(u, time, edge, report)
        if not (math.isfinite(dt) and dt > 0.0):
            raise RuntimeError(f"dt proposal {dt} at t={t} is not usable")
        t_next = min(t + dt, t_final)
        for target in targets:
            if t + tiny < target < t_next - tiny:
                t_next = target
                break
        if t_final - t_next < tiny:
            t_next = t_final
        if t_next - t < 1e-14 * max(1.0, abs(t_final)):
            raise RuntimeError(f"step size collapsed at t={t}")
        rec = split_step(grid, u, time, t_next - t, src, bc, flux_for, edge, x)
        report.record_step(rec)
        u, time = rec.u_after, rec.t_after
        if channels is not None:
            report._append_channels(channels(u, time))
        for observer in observers:
            observer(rec)
        t = t_next
        for target in targets:
            if abs(target - t) <= tiny:
                report.checkpoints[target] = u
    return report


def run(initial: CellField, fluxdesc: NumericalFluxDescriptor,
        src: SourceDescriptor, bc: BoundarySpec, time_axis: TimeAxis,
        observers: Iterable[Callable[[StepRecord], None]] = (),
        checkpoint_times: Sequence[float] = ()) -> RunReport:
    """March a fixed-flux problem from the initial field to time_axis.t_final.

    dt is the CFL step of the current field and its ghosts at its time,
    capped by time_axis.dt_max, the source stage's contraction limit and
    the hard CFL limit over the range the source stage reaches.
    """

    cfl_number = min(time_axis.cfl_number, 1.0 - _CFL_MARGIN)
    dt_cap = min(time_axis.dt_max, _source_dt_limit(src))
    # Under a linear flux or a zero source the CFL limit cannot move.
    source_moves_limit = not fluxdesc.physical.linear and (
        src.lipschitz_u > 0.0 or src.sup_at_zero > 0.0)
    dx = initial.grid.dx
    x = initial.grid.cell_centers

    def pick_dt(u: np.ndarray, t: float, edge: tuple, report: RunReport) -> float:
        ghosts = fill_ghosts(u, bc, edge, fluxdesc.physical)
        dt = max_dt(fluxdesc, u, dx, cfl_number, dt_cap, ghosts)
        if not source_moves_limit:
            return dt
        # ubar = u + dt g(x, t, ubar) moves monotonically away from u as dt
        # grows (it cannot cross a zero of g), so the range reached at this dt
        # holds that of any shorter step. Decay stays in the field's range.
        bar = source_stage(u, t, dt, src, x)
        L = flux_lipschitz(fluxdesc,
                           min(float(u.min()), float(bar.min()), *ghosts),
                           max(float(u.max()), float(bar.max()), *ghosts))
        return min(dt, (1.0 - _CFL_MARGIN) * dx / L) if L > 0.0 else dt

    return march(
        initial, time_axis.t_final, pick_dt, src, bc, lambda bar: fluxdesc,
        observers=observers,
        checkpoint_times=checkpoint_times,
    )
