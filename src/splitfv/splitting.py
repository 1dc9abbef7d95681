"""Split-step time integration: implicit source stage, explicit transport.

One time step of size dt from t to t + dt does, in order:

  1. source stage:    solve  ubar_j = u_j + dt * g(x_j, t, ubar_j)
  2. ghost filling:   boundary values from the post-source field ubar
  3. transport stage: u_j^+ = ubar_j - (dt/dx) (F(ubar_j, ubar_{j+1})
                                               - F(ubar_{j-1}, ubar_j))

with F a monotone two-point numerical flux. The transport stage refuses to
run when dt exceeds the hard CFL limit dx / L for the Lipschitz constant L
of the flux over the stencil range (ghosts included).

The source stage is a contraction only while dt * lipschitz_u < 1 for the
source's Lipschitz constant in u. Both `run` and the line model's
`run_factory` keep dt a relative _CFL_MARGIN below that limit and below
the hard CFL limit, and march every step through `split_step`.

Boundaries: the left boundary is either a Dirichlet trace or an influx
rate; an influx ghost is the rate divided by the speed f(1) of the step's
physical flux (PhysicalFlux.speed), which must be declared linear
(f(u) = f(1) u). The right boundary is outflow (zero-gradient copy) or
Dirichlet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
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


def fill_ghosts(field_bar: CellField, bc: BoundarySpec,
                flux: PhysicalFlux | None = None) -> tuple[float, float]:
    """Ghost cell values flanking the post-source field at its time.

    An influx ghost is the rate divided by the speed f(1) of `flux`, read
    from `flux.speed`; a flux not declared linear has none and is refused
    (ValueError).
    """
    t = field_bar.time
    if bc.left_kind == "dirichlet":
        ghost_left = float(bc.left_schedule(t))
    else:
        speed = None if flux is None else flux.speed
        if speed is None:
            raise ValueError("an influx boundary needs a flux declared linear")
        if speed <= JAM_VELOCITY_FLOOR:
            raise JammedLineError(
                f"transport velocity {speed} at t={t} is at or below "
                f"the jam floor {JAM_VELOCITY_FLOOR}"
            )
        ghost_left = float(bc.left_schedule(t)) / speed
    if bc.right_kind == "outflow":
        ghost_right = float(field_bar.values[-1])
    else:
        ghost_right = float(bc.right_schedule(t))
    if not (math.isfinite(ghost_left) and math.isfinite(ghost_right)):
        raise ValueError(f"non-finite ghost value at t={t}")
    return ghost_left, ghost_right


# =============================================================
# Stages and the combined step
# =============================================================

@dataclass(frozen=True)
class StepRecord:
    """Everything one accepted step produced, for observers and diagnostics."""

    t_before: float
    dt: float
    field_before: CellField
    field_bar: CellField
    field_after: CellField
    ghost_left: float
    ghost_right: float
    flux_left: float
    flux_right: float
    fluxdesc: NumericalFluxDescriptor
    src: SourceDescriptor


# Per-step transport flux: maps the post-source field to the numerical flux
# of the step.
FluxBuilder = Callable[[CellField], NumericalFluxDescriptor]


def source_stage(field: CellField, dt: float, src: SourceDescriptor,
                 x: np.ndarray) -> CellField:
    """Backward-Euler source update of every cell; keeps the field's time.

    x holds the cell centres of field.grid.
    """
    bar = implicit_source_step(field.values, x, field.time, dt, src)
    # implicit_source_step returns a new array and raises on non-finite values.
    return CellField.adopt(field.grid, bar, field.time)


def transport_stage(field_bar: CellField, dt: float,
                    fluxdesc: NumericalFluxDescriptor, bc: BoundarySpec):
    """Explicit conservative update of the post-source field.

    Returns (field_after, ghost_left, ghost_right, flux_left, flux_right).
    """
    t = field_bar.time
    dx = field_bar.grid.dx
    values = field_bar.values
    ghost_left, ghost_right = fill_ghosts(field_bar, bc, fluxdesc.physical)
    ext = np.concatenate(([ghost_left], values, [ghost_right]))
    lo, hi = field_bar.bounds
    L = flux_lipschitz(fluxdesc, min(lo, ghost_left, ghost_right),
                       max(hi, ghost_left, ghost_right))
    if dt * L / dx > 1.0 + _CFL_MARGIN:
        raise CFLViolationError(
            f"dt={dt} exceeds the hard CFL limit {dx / L if L > 0 else np.inf} "
            f"(flux Lipschitz constant {L} over the stencil range)"
        )
    F = eval_flux(fluxdesc, ext[:-1], ext[1:])
    new_values = values - (dt / dx) * (F[1:] - F[:-1])
    if not np.isfinite(new_values).all():
        raise ArithmeticError(f"transport stage produced non-finite values at t={t}")
    after = CellField.adopt(field_bar.grid, new_values, t + dt)
    return after, ghost_left, ghost_right, float(F[0]), float(F[-1])


def make_step_record(field_before: CellField, field_bar: CellField,
                     field_after: CellField, ghost_left: float,
                     ghost_right: float, flux_left: float, flux_right: float,
                     dt: float, fluxdesc: NumericalFluxDescriptor,
                     src: SourceDescriptor) -> StepRecord:
    """Assemble the StepRecord of one accepted step; it checks nothing."""
    return StepRecord(
        t_before=field_before.time,
        dt=dt,
        field_before=field_before,
        field_bar=field_bar,
        field_after=field_after,
        ghost_left=ghost_left,
        ghost_right=ghost_right,
        flux_left=flux_left,
        flux_right=flux_right,
        fluxdesc=fluxdesc,
        src=src,
    )


def split_step(field: CellField, dt: float, src: SourceDescriptor,
               bc: BoundarySpec, flux_for: FluxBuilder,
               x: np.ndarray) -> StepRecord:
    """One full split step: the source stage, then transport.

    flux_for builds the step's flux from the post-source field; x holds the
    cell centres of field.grid. Refuses to run outside its stability
    conditions.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be > 0, got {dt}")
    bar = source_stage(field, dt, src, x)
    fluxdesc = flux_for(bar)
    after, ghost_left, ghost_right, flux_left, flux_right = transport_stage(
        bar, dt, fluxdesc, bc
    )
    return make_step_record(
        field, bar, after, ghost_left, ghost_right, flux_left, flux_right,
        dt, fluxdesc, src,
    )


def step(field: CellField, dt: float, fluxdesc: NumericalFluxDescriptor,
         src: SourceDescriptor, bc: BoundarySpec) -> StepRecord:
    """One full split step with a fixed flux."""
    return split_step(field, dt, src, bc, lambda bar: fluxdesc,
                      field.grid.cell_centers)


# =============================================================
# Run driver and report
# =============================================================

def _interior_tv(field: CellField) -> float:
    """Total variation without the two boundary-adjacent jumps."""
    return float(field.jumps[1:-1].sum())


@dataclass
class RunReport:
    """Per-step diagnostic record of a run.

    `initial` is the field the run started from. Scalar series are aligned
    with `times` (one entry per accepted state, initial state included);
    `dts` and the ghost series have one entry per step. `channels` holds
    the named values of the channels hook given to `march`, each series
    aligned with `times`. Whole states are kept only at the checkpoint
    times and for the final field; an observer that appends each step's
    rec.field_after.values collects every state. It holds no verdicts.
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
    final_field: CellField | None = None

    @classmethod
    def start(cls, initial: CellField) -> RunReport:
        report = cls(initial=initial)
        report._append_state(initial)
        report.final_field = initial
        return report

    def _append_state(self, field: CellField) -> None:
        self.times.append(field.time)
        self.linf.append(linf_norm(field))
        self.tv.append(total_variation(field))
        self.tv_interior.append(_interior_tv(field))

    def _append_channels(self, values: dict[str, float]) -> None:
        for name, value in values.items():
            self.channels.setdefault(name, []).append(value)

    def record_step(self, rec: StepRecord) -> None:
        self._append_state(rec.field_after)
        self.dts.append(rec.dt)
        self.ghost_left.append(rec.ghost_left)
        self.ghost_right.append(rec.ghost_right)
        self.final_field = rec.field_after

    @property
    def grid(self) -> Grid1D:
        return self.initial.grid

    @property
    def n_steps(self) -> int:
        return len(self.dts)


def march(initial: CellField, t_final: float,
          pick_dt: Callable[[CellField, RunReport], float],
          src: SourceDescriptor, bc: BoundarySpec, flux_for: FluxBuilder,
          observers: Iterable[Callable[[StepRecord], None]] = (),
          checkpoint_times: Sequence[float] = (),
          channels: Callable[[CellField], dict[str, float]] | None = None) -> RunReport:
    """Generic adaptive time loop shared by the plain and model-bound drivers.

    pick_dt proposes a stable step for the current field, given the report
    recorded so far; split_step performs it with the flux flux_for builds.
    Steps are clipped so the run lands exactly on each checkpoint time
    and on t_final; the values at those times go to report.checkpoints.
    channels, when given, maps the initial field and every step's result to
    named values, appended to report.channels before the observers run.
    Observers see every step's StepRecord, in order; they are the one
    route to per-step output beyond the report's series. A non-finite
    t_final is refused (ValueError).
    """
    if not math.isfinite(t_final):
        raise ValueError(f"t_final must be finite, got {t_final}")
    if t_final < initial.time:
        raise ValueError(f"t_final={t_final} precedes the initial time {initial.time}")
    observers = tuple(observers)
    report = RunReport.start(initial)
    if channels is not None:
        report._append_channels(channels(initial))
    # The grid's cached, read-only cell centres, shared by every step's
    # source stage.
    x = initial.grid.cell_centers
    tiny = 1e-12 * max(1.0, abs(t_final))
    targets = sorted({float(c) for c in checkpoint_times})
    for target in targets:
        if abs(target - initial.time) <= tiny:
            report.checkpoints[target] = initial.values

    field = initial
    t = initial.time
    while t < t_final - tiny:
        dt = pick_dt(field, report)
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
        rec = split_step(field, t_next - t, src, bc, flux_for, x)
        report.record_step(rec)
        if channels is not None:
            report._append_channels(channels(rec.field_after))
        for observer in observers:
            observer(rec)
        field = rec.field_after
        t = t_next
        for target in targets:
            if abs(target - t) <= tiny:
                report.checkpoints[target] = field.values
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

    def pick_dt(field: CellField, report: RunReport) -> float:
        ghosts = fill_ghosts(field, bc, fluxdesc.physical)
        dt = max_dt(fluxdesc, field, cfl_number, dt_cap, ghosts)
        if not source_moves_limit:
            return dt
        # ubar = u + dt g(x, t, ubar) moves monotonically away from u as dt
        # grows (it cannot cross a zero of g), so the range reached at this dt
        # holds that of any shorter step. Decay stays in the field's range.
        lo, hi = field.bounds
        bar = source_stage(field, dt, src, field.grid.cell_centers).bounds
        L = flux_lipschitz(fluxdesc, min(lo, bar[0], *ghosts),
                           max(hi, bar[1], *ghosts))
        return min(dt, (1.0 - _CFL_MARGIN) * dx / L) if L > 0.0 else dt

    return march(
        initial, time_axis.t_final, pick_dt, src, bc, lambda bar: fluxdesc,
        observers=observers,
        checkpoint_times=checkpoint_times,
    )
