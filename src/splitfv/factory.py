"""Manufacturing line model on the unit interval.

The line is described by an item density u(x, t) on [0, 1]. All items move
with one state-dependent speed

    v(t) = v0 * (1 - WIP(t) / max_load),    WIP(t) = integral of u over [0, 1],

so the transport flux is f(u) = v * u with v frozen over each step. Items
enter at x = 0 at a prescribed influx rate (ghost density = rate / v),
leave at x = 1 at rate v * u(1, t), and may be removed along the line by a
yield-loss profile c(x) >= 0 acting as the sink g = -c(x) * u.

The run driver recomputes v once per step from the post-source field, so
the transport stage sees a plain linear flux; the coupling is explicit in
time. A step is refused (JammedLineError) when the load reaches max_load
or the speed falls to the jam floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .flux import NumericalFluxDescriptor, godunov, linear_flux
from .mesh import CellField, Grid1D, TimeAxis
from .source import SourceDescriptor
from .splitting import (
    _CFL_MARGIN,
    JAM_VELOCITY_FLOOR,
    BoundarySpec,
    JammedLineError,
    RunReport,
    StepRecord,
    _source_dt_limit,
    march,
)

FACTORY_FLUX_KINDS = ("upwind-linear", "godunov")
# Stopping rule of the steady-speed fixed-point iteration in
# constant_yield_steady_state.
_STEADY_TOL = 1e-12
_STEADY_MAX_ITERS = 1000


# =============================================================
# Yield-loss profiles
# =============================================================

@dataclass(frozen=True)
class YieldLoss:
    """Space-dependent removal-rate profile c(x) >= 0 on [0, 1].

    kind is one of 'none', 'constant-rate', 'piecewise-linear'. A
    piecewise-linear profile interpolates (position, rate) breakpoints and
    holds the end values constant outside their span.
    """

    kind: str
    rate: float = 0.0
    breakpoints: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.kind not in ("none", "constant-rate", "piecewise-linear"):
            raise ValueError(f"unknown yield-loss kind {self.kind!r}")
        if self.kind == "constant-rate":
            if not np.isfinite(self.rate) or self.rate < 0.0:
                raise ValueError(f"removal rate must be >= 0, got {self.rate}")
        if self.kind == "piecewise-linear":
            if len(self.breakpoints) < 2:
                raise ValueError("piecewise-linear profile needs at least two breakpoints")
            xs = np.array([b[0] for b in self.breakpoints], dtype=float)
            rs = np.array([b[1] for b in self.breakpoints], dtype=float)
            if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(rs))):
                raise ValueError("breakpoints must be finite")
            if np.any(np.diff(xs) <= 0.0):
                raise ValueError("breakpoint positions must be strictly increasing")
            if np.any(rs < 0.0):
                raise ValueError("breakpoint rates must be >= 0")
            # Built once here, read by every rate_at call of the sink.
            object.__setattr__(self, "_xs", xs)
            object.__setattr__(self, "_rs", rs)

    @classmethod
    def none(cls) -> YieldLoss:
        return cls("none")

    @classmethod
    def constant(cls, rate: float) -> YieldLoss:
        return cls("constant-rate", rate=float(rate))

    @classmethod
    def piecewise_linear(cls, breakpoints: Iterable[tuple[float, float]]) -> YieldLoss:
        return cls("piecewise-linear",
                   breakpoints=tuple((float(x), float(r)) for x, r in breakpoints))

    def rate_at(self, x):
        """Removal rate at position(s) x; matches the shape of x."""
        if self.kind == "none":
            return np.zeros_like(np.asarray(x, dtype=float))
        if self.kind == "constant-rate":
            return np.full_like(np.asarray(x, dtype=float), self.rate)
        return np.interp(np.asarray(x, dtype=float), self._xs, self._rs)

    def max_rate(self) -> float:
        if self.kind == "none":
            return 0.0
        if self.kind == "constant-rate":
            return self.rate
        return max(r for _, r in self.breakpoints)

    def rate_tv(self) -> float:
        """Total variation of the profile in x (0 for flat profiles)."""
        if self.kind != "piecewise-linear":
            return 0.0
        rs = [r for _, r in self.breakpoints]
        return float(np.sum(np.abs(np.diff(rs))))


def as_source(profile: YieldLoss, u_max: float = 0.0) -> SourceDescriptor:
    """Sink descriptor g(x, t, u) = -c(x) * u for a yield-loss profile.

    u_max feeds the declared spatial-variation bound (TV of g(., t, u) is
    at most TV(c) * u_max when |u| <= u_max); it does not affect stepping,
    only property verification against that bound.
    """
    if u_max < 0.0:
        raise ValueError(f"u_max must be >= 0, got {u_max}")
    tv_rate = profile.rate_tv()

    def func(x, t, u):
        return -profile.rate_at(x) * u

    return SourceDescriptor(
        func=func,
        lipschitz_u=profile.max_rate(),
        sup_at_zero=0.0,
        tv_bound=lambda t: tv_rate * u_max,
        linear=True,
    )


# =============================================================
# Model state functions
# =============================================================

@dataclass(frozen=True)
class FactoryModel:
    """Line parameters: empty-line speed v0, capacity max_load, influx schedule."""

    v0: float
    max_load: float
    influx: Callable[[float], float]
    yield_loss: YieldLoss

    def __post_init__(self):
        if not np.isfinite(self.v0) or self.v0 <= 0.0:
            raise ValueError(f"v0 must be > 0, got {self.v0}")
        if not np.isfinite(self.max_load) or self.max_load <= 0.0:
            raise ValueError(f"max_load must be > 0, got {self.max_load}")


def step_influx(before: float, after: float, jump_time: float = 0.0) -> Callable[[float], float]:
    """Influx schedule that switches from `before` to `after` at jump_time.

    The switch time itself takes the post-jump value.
    """
    before = float(before)
    after = float(after)
    jump_time = float(jump_time)

    def schedule(t: float) -> float:
        return after if t >= jump_time else before

    return schedule


def wip(field: CellField) -> float:
    """Work in progress: the integral of the density over the unit line."""
    grid = field.grid
    if abs(grid.x_min) > 1e-12 or abs(grid.x_max - 1.0) > 1e-12:
        raise ValueError(
            f"factory fields live on [0, 1], got [{grid.x_min}, {grid.x_max}]"
        )
    return float(grid.dx * field.values.sum())


def velocity(wip_value: float, model: FactoryModel) -> float:
    """Line speed v0 * (1 - WIP / max_load); not clamped, callers jam-check."""
    return model.v0 * (1.0 - wip_value / model.max_load)


def outflux(field: CellField, velocity_value: float) -> float:
    """Exit rate v * u at the right end of the line."""
    return velocity_value * float(field.values[-1])


def steady_density(model: FactoryModel, influx_rate: float) -> float:
    """Uniform density whose induced speed carries exactly influx_rate.

    Solves v0 * rho * (1 - rho / max_load) = influx_rate and returns the
    smaller root (the free-flowing branch). Raises when the requested rate
    exceeds the line capacity v0 * max_load / 4.
    """
    lm = model.max_load
    disc = lm * lm - 4.0 * lm * influx_rate / model.v0
    if disc < 0.0:
        raise ValueError(
            f"influx {influx_rate} exceeds the line capacity {model.v0 * lm / 4.0}"
        )
    return (lm - math.sqrt(disc)) / 2.0


@dataclass(frozen=True)
class SteadyYieldState:
    """Self-consistent steady state under constant influx and constant yield."""

    velocity: float
    wip: float
    outflux: float
    density: Callable[[np.ndarray], np.ndarray]


def constant_yield_steady_state(influx_rate: float, rate: float,
                                v0: float = 1.0,
                                max_load: float = 10.0) -> SteadyYieldState:
    """Steady state of the line with constant influx and constant removal rate.

    For a frozen speed v the steady density is u(x) = (influx/v) e^{-rate x / v}
    with WIP = influx (1 - e^{-rate/v}) / rate (or influx / v when rate = 0);
    the speed consistent with its own WIP is found by fixed-point iteration,
    to a relative change of _STEADY_TOL within _STEADY_MAX_ITERS iterations.
    """
    if influx_rate <= 0.0:
        raise ValueError(f"influx must be > 0, got {influx_rate}")
    if rate < 0.0:
        raise ValueError(f"rate must be >= 0, got {rate}")

    def wip_for(v: float) -> float:
        if rate == 0.0:
            return influx_rate / v
        return influx_rate * (1.0 - math.exp(-rate / v)) / rate

    v = v0 * 0.5
    for _ in range(_STEADY_MAX_ITERS):
        w = wip_for(v)
        if w >= max_load:
            raise ValueError("no free-flowing steady state: load reaches capacity")
        v_next = v0 * (1.0 - w / max_load)
        if abs(v_next - v) <= _STEADY_TOL * max(1.0, abs(v)):
            v = v_next
            break
        v = v_next
    else:
        raise RuntimeError("steady-state iteration did not converge")
    w = wip_for(v)
    v_final = float(v)

    def density(x):
        return (influx_rate / v_final) * np.exp(-rate * np.asarray(x, dtype=float) / v_final)

    exit_density = influx_rate / v_final * math.exp(-rate / v_final)
    return SteadyYieldState(
        velocity=v_final,
        wip=float(w),
        outflux=float(v_final * exit_density),
        density=density,
    )


# =============================================================
# Run driver
# =============================================================

def transport_descriptor(speed: float, flux_kind: str) -> NumericalFluxDescriptor:
    phys = linear_flux(speed)
    if flux_kind == "upwind-linear":
        # linear_flux is linear by construction; only the sign needs a check.
        if speed < 0:
            raise ValueError(f"upwind-linear requires speed >= 0, got {float(speed)}")
        return NumericalFluxDescriptor("upwind-linear", phys)
    if flux_kind == "godunov":
        return godunov(phys)
    raise ValueError(
        f"flux_kind must be one of {FACTORY_FLUX_KINDS}, got {flux_kind!r}"
    )


def run_factory(model: FactoryModel, initial: CellField | float,
                time_axis: TimeAxis,
                flux_kind: str = "upwind-linear",
                observers: Iterable[Callable[[StepRecord], None]] = (),
                checkpoint_times: Sequence[float] = (),
                grid: Grid1D | None = None) -> RunReport:
    """March the model to time_axis.t_final, refreezing the speed every step.

    `initial` is either a CellField on [0, 1] or a uniform density (a grid
    is then required). The report gains channels 'wip', 'velocity',
    'influx' and 'outflux', each aligned with report.times; the velocity
    and outflux entries are evaluated from the recorded state, the influx
    from the schedule at the recorded time.
    """
    if isinstance(initial, CellField):
        field0 = initial
    else:
        if grid is None:
            raise ValueError("a grid is required when initial is a uniform density")
        field0 = CellField(grid, np.full(grid.n_cells, float(initial)))
    wip(field0)  # validates the domain
    dx = field0.grid.dx

    src = as_source(model.yield_loss)
    bc = BoundarySpec.influx_outflow(model.influx)
    if flux_kind not in FACTORY_FLUX_KINDS:
        raise ValueError(
            f"flux_kind must be one of {FACTORY_FLUX_KINDS}, got {flux_kind!r}"
        )

    def jam_check(wip_value: float, speed: float, t: float, where: str) -> None:
        if wip_value >= model.max_load or speed <= JAM_VELOCITY_FLOOR:
            raise JammedLineError(
                f"line jammed at t={t} ({where}): WIP={wip_value}, "
                f"speed={speed}, capacity={model.max_load}"
            )

    c_max = src.lipschitz_u
    dt_sink = _source_dt_limit(src)

    def pick_dt(field: CellField, report: RunReport) -> float:
        # The recorded channels already hold this field's load and speed.
        w = report.channels["wip"][-1]
        v = report.channels["velocity"][-1]
        jam_check(w, v, field.time, "dt selection")
        dt = min(time_axis.cfl_number * dx / v, time_axis.dt_max, dt_sink)
        # The sink lowers the load, so transport runs faster than v. For
        # nonnegative data the post-source load is at least w / (1 + dt c_max)
        # and a smaller dt only lowers that speed bound, so capping dt just
        # under the hard CFL limit of the bound keeps the step admissible.
        v_bar = velocity(w / (1.0 + dt * c_max), model)
        return min(dt, (1.0 - _CFL_MARGIN) * dx / v_bar)

    def flux_for(bar: CellField) -> NumericalFluxDescriptor:
        # The influx ghost is rate / f(1), and linear_flux(v) has f(1) = v.
        w_bar = wip(bar)
        v = velocity(w_bar, model)
        jam_check(w_bar, v, bar.time, "post-source load")
        return transport_descriptor(v, flux_kind)

    def channels(field: CellField) -> dict[str, float]:
        w = wip(field)
        v = velocity(w, model)
        return {
            "wip": w,
            "velocity": v,
            "influx": float(model.influx(field.time)),
            "outflux": outflux(field, v),
        }

    return march(
        field0, time_axis.t_final, pick_dt, src, bc, flux_for,
        observers=observers,
        checkpoint_times=checkpoint_times,
        channels=channels,
    )


# =============================================================
# Preset scenarios
# =============================================================

@dataclass(frozen=True)
class FactoryScenario:
    """A named, ready-to-run line configuration."""

    name: str
    model: FactoryModel
    initial_density: float
    notes: tuple[str, ...] = ()


def preset_scenario(name: str) -> FactoryScenario:
    """Built-in line configurations.

    'testcase1': influx steps 2.016 -> 2.139 at t = 0 with a uniform 3%
    removal rate; starts from the pre-jump free-flowing steady density.

    'testcase2': same line and influx jump, with a piecewise-linear removal
    profile through (0, 0.01), (0.5, 0.05), (1, 0.02). The profile is a
    stand-in: it exercises the space-dependent sink path, it is not a
    calibrated process description.
    """
    if name == "testcase1":
        model = FactoryModel(
            v0=1.0,
            max_load=10.0,
            influx=step_influx(2.016, 2.139, jump_time=0.0),
            yield_loss=YieldLoss.constant(0.03),
        )
        notes = ()
    elif name == "testcase2":
        model = FactoryModel(
            v0=1.0,
            max_load=10.0,
            influx=step_influx(2.016, 2.139, jump_time=0.0),
            yield_loss=YieldLoss.piecewise_linear(
                ((0.0, 0.01), (0.5, 0.05), (1.0, 0.02))
            ),
        )
        notes = (
            "removal profile is a stand-in exercising the space-dependent "
            "sink, not a calibrated process description",
        )
    else:
        raise ValueError(f"unknown preset {name!r}; known: testcase1, testcase2")
    rho0 = steady_density(model, model.influx(-1.0))
    return FactoryScenario(name=name, model=model,
                           initial_density=rho0, notes=notes)
