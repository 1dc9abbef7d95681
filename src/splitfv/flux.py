"""Physical fluxes and two-point monotone numerical fluxes.

A numerical flux F(a, b) approximates the physical flux f at an interface
with left state a and right state b. Every flux here is intended to satisfy
the three classical axioms:

  (i)   locally Lipschitz in both arguments,
  (ii)  consistent: F(s, s) = f(s),
  (iii) monotone: nondecreasing in a, nonincreasing in b.

Supported kinds:

  upwind-linear   F(a, b) = f(a), valid for linear f(u) = c*u with c >= 0
  lax-friedrichs  F(a, b) = (f(a) + f(b))/2 - (alpha/2)(b - a)
  godunov         min over [a, b] of f if a <= b, else max over [b, a]
  engquist-osher  f(0) + int_0^a max(f', 0) + int_0^b min(f', 0)

Godunov and Engquist-Osher are both evaluated exactly from values of f at
the interface states, at 0 (Engquist-Osher) and at the critical points of
f (zeros of f'): f is monotone between consecutive critical points, so the
extrema of f and the integrals of the parts of f' are read off those values
(Engquist & Osher, Math. Comp. 36, 1981). A physical flux may declare its
critical points; every shipped flux (linear, Burgers, zero) does, and for
them no search runs. Other fluxes are searched by a slope scan and
bisection on every Godunov or Engquist-Osher call.

A physical flux may also declare itself linear, f(u) = f(1) * u, as
linear_flux and zero_flux do; it then holds its speed f(1), read once at
construction. A descriptor of kind upwind-linear refuses any other flux,
and one with f(1) < 0, however it is built. On a linear flux with f(1) >= 0
Godunov is upwind to the float (_is_upwind): rounded f is nondecreasing,
so its min or max over [a, b] is f(a), which eval_flux and the entropy
check (diagnostics.entropy_residual_max) take directly. The check also
reads the declaration to search k at the residual's kinks alone. An
undeclared flux is never treated as linear, whatever its shape.

The viscosity alpha of lax-friedrichs must reach sup|f'| over the working
range for monotonicity; smaller values are accepted by the constructor so
that the monotonicity checker has something to fail on.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import Callable

import numpy as np

FLUX_KINDS = ("upwind-linear", "lax-friedrichs", "godunov", "engquist-osher")
# Points per axis of check_monotone's sample lattice.
_MONOTONE_SAMPLES = 50


# =============================================================
# Physical flux
# =============================================================

@dataclass(frozen=True)
class PhysicalFlux:
    """Scalar flux function f with optional derivative and Lipschitz bound.

    Args:
        func: f(u), vectorized over numpy arrays.
        deriv: f'(u) if known; a central finite difference is used otherwise.
        lipschitz_on: callable (lo, hi) -> sup of |f'| over [lo, hi]; when
            absent the bound is estimated by dense sampling of the slope.
        critical: the sorted zeros of f' if known; they are searched for
            on every call of `critical_points` otherwise.
        linear: declares f(u) = f(1) * u. Nothing checks the declaration;
            a false one makes upwind-linear inconsistent and lets the
            entropy check miss a maximum inside a piece, or take f(a) for
            a Godunov flux.

    `speed` is derived: f(1) as a float for a flux declared linear, None
    otherwise. It is the one place f(1) is evaluated, except that
    linear_flux, whose f(1) is its speed times 1.0, passes it in as
    _speed and so skips the evaluation on a 0-d array.
    """

    func: Callable
    deriv: Callable | None = None
    lipschitz_on: Callable | None = None
    critical: tuple[float, ...] | None = None
    linear: bool = False
    _speed: InitVar[float | None] = None

    def __post_init__(self, _speed):
        if not self.linear:
            speed = None
        elif _speed is not None:
            speed = _speed
        else:
            speed = float(self.func(np.asarray(1.0)))
        object.__setattr__(self, "speed", speed)

    def eval(self, u):
        u = np.asarray(u, dtype=float)
        out = self.func(u)
        if u.ndim == 0:
            return float(out)
        return np.asarray(out, dtype=float)

    def slope(self, u):
        if self.deriv is not None:
            out = self.deriv(np.asarray(u, dtype=float))
            if np.isscalar(u) or np.ndim(u) == 0:
                return float(out)
            return np.asarray(out, dtype=float)
        uu = np.asarray(u, dtype=float)
        h = 1e-6 * np.maximum(1.0, np.abs(uu))
        out = (self.func(uu + h) - self.func(uu - h)) / (2.0 * h)
        if np.isscalar(u) or np.ndim(u) == 0:
            return float(out)
        return out

    def bound(self, lo: float, hi: float) -> float:
        """Sup of |f'| over [lo, hi] (exact if lipschitz_on given, sampled otherwise)."""
        if hi < lo:
            lo, hi = hi, lo
        if self.lipschitz_on is not None:
            return float(self.lipschitz_on(lo, hi))
        s = np.linspace(lo, hi, 513) if hi > lo else np.array([lo])
        return float(np.max(np.abs(self.slope(s))))


def linear_flux(speed: float) -> PhysicalFlux:
    """f(u) = speed * u; declared linear, with no critical points.

    At speed 0 the slope vanishes everywhere, but f is constant, so no
    point is needed to bound it: the extrema of f over any interval are
    read off its ends.
    """
    c = float(speed)
    return PhysicalFlux(
        func=lambda u: c * u,
        deriv=lambda u: c * np.ones_like(np.asarray(u, dtype=float)),
        lipschitz_on=lambda lo, hi: abs(c),
        critical=(),
        linear=True,
        _speed=c,
    )


def burgers_flux() -> PhysicalFlux:
    """f(u) = u^2 / 2."""
    return PhysicalFlux(
        func=lambda u: 0.5 * u * u,
        deriv=lambda u: np.asarray(u, dtype=float),
        lipschitz_on=lambda lo, hi: max(abs(lo), abs(hi)),
        critical=(0.0,),
    )


def zero_flux() -> PhysicalFlux:
    """f identically zero (pure source problems); declared linear."""
    return PhysicalFlux(
        func=lambda u: 0.0 * np.asarray(u, dtype=float),
        deriv=lambda u: 0.0 * np.asarray(u, dtype=float),
        lipschitz_on=lambda lo, hi: 0.0,
        critical=(),
        linear=True,
    )


# =============================================================
# Numerical flux descriptors
# =============================================================

@dataclass(frozen=True)
class NumericalFluxDescriptor:
    """A numerical flux kind bound to a physical flux.

    Kind upwind-linear is monotone only on f(u) = c*u with c >= 0, so it
    is refused (ValueError) unless the flux is declared linear with speed
    f(1) >= 0, whichever way the descriptor is built.
    """

    kind: str
    physical: PhysicalFlux
    viscosity: float = 0.0

    def __post_init__(self):
        if self.kind not in FLUX_KINDS:
            raise ValueError(f"unknown flux kind {self.kind!r}, expected one of {FLUX_KINDS}")
        if not math.isfinite(self.viscosity) or self.viscosity < 0:
            raise ValueError(f"viscosity must be >= 0, got {self.viscosity}")
        if self.kind == "upwind-linear":
            speed = self.physical.speed
            if speed is None:
                raise ValueError(
                    "upwind-linear requires a flux declared linear "
                    "(PhysicalFlux(..., linear=True), f(u) = c*u)"
                )
            if speed < 0:
                raise ValueError(f"upwind-linear requires speed >= 0, got {speed}")


def upwind_linear(physical: PhysicalFlux) -> NumericalFluxDescriptor:
    """Upwind flux F(a, b) = f(a); the descriptor refuses a flux not
    declared linear, or with speed f(1) < 0."""
    return NumericalFluxDescriptor("upwind-linear", physical)


def lax_friedrichs(physical: PhysicalFlux, viscosity: float) -> NumericalFluxDescriptor:
    return NumericalFluxDescriptor("lax-friedrichs", physical, float(viscosity))


def godunov(physical: PhysicalFlux) -> NumericalFluxDescriptor:
    return NumericalFluxDescriptor("godunov", physical)


def engquist_osher(physical: PhysicalFlux) -> NumericalFluxDescriptor:
    return NumericalFluxDescriptor("engquist-osher", physical)


# =============================================================
# Evaluation
# =============================================================

def critical_points(phys: PhysicalFlux, lo: float, hi: float) -> list[float]:
    """Zeros of f' in (lo, hi): the declared ones, or else located by
    bisection on a 64-point pre-scan."""
    if phys.critical is not None:
        return [c for c in phys.critical if lo < c < hi]
    if not hi > lo:
        return []
    s = np.linspace(lo, hi, 64)
    d = phys.slope(s)
    # Signs are compared rather than products, which underflow to zero for
    # slopes near the origin of a tiny bracket.
    sign = np.sign(d)
    crits = [float(s[i]) for i in range(1, 63) if d[i] == 0.0]
    for i in range(63):
        if sign[i] * sign[i + 1] < 0.0:
            a, b = float(s[i]), float(s[i + 1])
            da = float(d[i])
            for _ in range(80):
                m = 0.5 * (a + b)
                dm = float(phys.slope(m))
                if dm == 0.0:
                    a = b = m
                    break
                if (da < 0.0) != (dm < 0.0):
                    b = m
                else:
                    a, da = m, dm
            crit = 0.5 * (a + b)
            # Bisection ends within ~1e-26 of a zero at the origin, on a side
            # set by the scan range; snap to it so the point is exact.
            if a <= 0.0 <= b and phys.slope(0.0) == 0.0:
                crit = 0.0
            crits.append(crit)
    return sorted(crits)


def _godunov_eval(phys: PhysicalFlux, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    fa = phys.eval(a)
    fb = phys.eval(b)
    fmin = np.minimum(fa, fb)
    fmax = np.maximum(fa, fb)
    for c in critical_points(phys, float(lo.min()), float(hi.max())):
        inside = (lo < c) & (c < hi)
        if inside.any():
            fc = phys.eval(c)
            fmin = np.where(inside, np.minimum(fmin, fc), fmin)
            fmax = np.where(inside, np.maximum(fmax, fc), fmax)
    return np.where(a <= b, fmin, fmax)


def _engquist_osher_eval(phys: PhysicalFlux, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Between consecutive critical points f is monotone, so the integral of
    # max(f', 0) over a piece is the positive part of the change in f there
    # and the integral of min(f', 0) the negative part. Each half runs over
    # the points [lo, clip(c_j)..., hi] with (lo, hi) spanning 0 and its
    # limit; clipped points make zero-length pieces that add nothing.
    limit = np.stack((a, b))
    lo = np.minimum(limit, 0.0)
    hi = np.maximum(limit, 0.0)
    crits = critical_points(phys, float(lo.min()), float(hi.max()))
    pts = np.stack([lo] + [np.clip(c, lo, hi) for c in crits] + [hi])
    rise = np.diff(phys.eval(pts), axis=0)
    pos = np.maximum(rise[:, 0], 0.0).sum(axis=0)
    neg = np.minimum(rise[:, 1], 0.0).sum(axis=0)
    return phys.eval(0.0) + np.sign(a) * pos + np.sign(b) * neg


def _is_upwind(desc: NumericalFluxDescriptor) -> bool:
    """Whether F(a, b) is f(a) to the float: upwind-linear, or Godunov on a
    flux declared linear with speed f(1) >= 0 (read from `speed`)."""
    speed = desc.physical.speed
    return desc.kind == "upwind-linear" or (
        desc.kind == "godunov" and speed is not None and speed >= 0.0)


def eval_flux(desc: NumericalFluxDescriptor, a, b):
    """Evaluate the numerical flux at interface states (a, b).

    Accepts scalars or equally shaped numpy arrays; returns the same shape.
    Where F(a, b) is f(a) (_is_upwind) it returns f(a), with no extremum
    pass: Godunov's values up to the sign of an exact zero. A non-finite
    state that reaches the flux is refused (ValueError); on that route b
    never does, so only a is checked.
    """
    aa = np.asarray(a, dtype=float)
    bb = np.asarray(b, dtype=float)
    scalar = aa.ndim == 0 and bb.ndim == 0
    if scalar:
        aa, bb = aa.reshape(1), bb.reshape(1)
    if aa.shape != bb.shape:
        aa, bb = np.broadcast_arrays(aa, bb)
    upwind = _is_upwind(desc)
    if not (np.isfinite(aa).all() and (upwind or np.isfinite(bb).all())):
        raise ValueError("non-finite interface state passed to eval_flux")
    phys = desc.physical
    if upwind:
        out = phys.eval(aa)
    elif desc.kind == "lax-friedrichs":
        out = 0.5 * (phys.eval(aa) + phys.eval(bb)) - 0.5 * desc.viscosity * (bb - aa)
    elif desc.kind == "godunov":
        out = _godunov_eval(phys, aa, bb)
    else:
        out = _engquist_osher_eval(phys, aa, bb)
    out = np.asarray(out, dtype=float)
    if scalar:
        return float(out.reshape(())[()])
    return out


# =============================================================
# Monotonicity check and CFL bound
# =============================================================

@dataclass(frozen=True)
class FluxMonotonicityReport:
    """Worst forward differences of F over a sample lattice.

    worst_drop_in_a is the most negative forward difference along the first
    argument (should be >= -1e-14 for a monotone flux); worst_rise_in_b is
    the most positive forward difference along the second argument (should
    be <= 1e-14).
    """

    kind: str
    bounds: tuple[float, float]
    samples: int
    worst_drop_in_a: float
    worst_rise_in_b: float

    @property
    def passed(self) -> bool:
        return self.worst_drop_in_a >= -1e-14 and self.worst_rise_in_b <= 1e-14


def check_monotone(
    desc: NumericalFluxDescriptor, bounds: tuple[float, float]
) -> FluxMonotonicityReport:
    """Sample F on a _MONOTONE_SAMPLES-square lattice over bounds x bounds
    and report monotonicity."""
    lo, hi = float(bounds[0]), float(bounds[1])
    if not hi > lo:
        raise ValueError(f"empty sample range ({lo}, {hi})")
    s = np.linspace(lo, hi, _MONOTONE_SAMPLES)
    A, B = np.meshgrid(s, s, indexing="ij")
    F = eval_flux(desc, A, B)
    diff_a = np.diff(F, axis=0)
    diff_b = np.diff(F, axis=1)
    return FluxMonotonicityReport(
        kind=desc.kind,
        bounds=(lo, hi),
        samples=_MONOTONE_SAMPLES,
        worst_drop_in_a=float(diff_a.min()),
        worst_rise_in_b=float(diff_b.max()),
    )


def flux_lipschitz(desc: NumericalFluxDescriptor, lo: float, hi: float) -> float:
    """Lipschitz constant governing the CFL restriction over [lo, hi].

    For upwind-linear, godunov and engquist-osher this is sup|f'|; for
    lax-friedrichs the viscosity also enters: max(sup|f'|, alpha).
    """
    base = desc.physical.bound(lo, hi)
    if desc.kind == "lax-friedrichs":
        return max(base, desc.viscosity)
    return base


def max_dt(
    desc: NumericalFluxDescriptor,
    values: np.ndarray,
    dx: float,
    cfl_number: float,
    dt_cap: float = np.inf,
    ghosts: tuple[float, ...] = (),
) -> float:
    """Largest stable step for the explicit transport update of the cell
    values `values` on cells of width dx.

    Returns cfl_number * dx / L where L = flux_lipschitz over the range of
    the values widened to the `ghosts` values, which should be the ghost
    cells the step will use; degenerate fluxes (L = 0) return the caller's
    dt_cap.
    """
    if not (0.0 < cfl_number <= 1.0):
        raise ValueError(f"cfl_number must be in (0, 1], got {cfl_number}")
    lo, hi = float(values.min()), float(values.max())
    L = flux_lipschitz(desc, min((lo, *ghosts)), max((hi, *ghosts)))
    if L <= 0.0:
        return dt_cap
    return min(cfl_number * dx / L, dt_cap)
