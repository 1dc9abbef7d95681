"""Source terms g(x, t, u) and the implicit sub-step of the splitting.

The splitting treats the source by one backward-Euler step per time step:
solve w = u + dt * g(x, t, w) for w. Under the contraction condition
lipschitz_u * dt < 1 the map w -> u + dt*g(x, t, w) is a contraction, so
plain fixed-point iteration converges geometrically; bisection on a
bracket around each cell's root serves as a fallback for descriptors near
the contraction limit.

A descriptor may declare its source linear in u, g(x, t, u) = g(x, t, 1) u;
every shipped one does. The solve then evaluates g once per step, iterates
on that slope, and gives any cell the iteration leaves unsolved the closed
form u / (1 - dt g(x, t, 1)) instead of the bisection. Near the contraction
limit, where the iteration budget may not settle the error, it takes the
closed form without iterating.

A SourceDescriptor bundles g with the constants the solver and the
diagnostics rely on:

  lipschitz_u   L with |g(x,t,u1) - g(x,t,u2)| <= L|u1 - u2|
  sup_at_zero   bound on sup over (x,t) of |g(x, t, 0)|
  tv_bound      B(t) bounding the spatial total variation of g(., t, u)
  linear        g(x, t, u) = g(x, t, 1) * u; defaults to False

and derives from them

  growth_const  L_g = max(lipschitz_u, sup_at_zero), so that whenever the
                first two declarations hold,
                |g(x,t,u)| <= |g(x,t,0)| + L |u| <= L_g (1 + |u|)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Absolute residual every implicit source solve meets, and the fixed-point
# iterations it runs before the closed form or the bisection takes over.
_SOLVE_TOL = 1e-12
_MAX_ITERS = 100
# Most fixed-point passes a linear source runs between two convergence
# tests.
_MAX_BATCH = 8


class SourceSolveError(RuntimeError):
    """The implicit source step failed; the descriptor's declared constants
    are likely inconsistent with the actual source function."""


@dataclass(frozen=True)
class SourceDescriptor:
    """Source function g(x, t, u) with its declared analytic constants."""

    func: Callable
    lipschitz_u: float
    sup_at_zero: float
    tv_bound: Callable
    linear: bool = False

    def __post_init__(self):
        if not np.isfinite(self.lipschitz_u) or self.lipschitz_u < 0:
            raise ValueError(f"lipschitz_u must be >= 0, got {self.lipschitz_u}")
        if not np.isfinite(self.sup_at_zero) or self.sup_at_zero < 0:
            raise ValueError(f"sup_at_zero must be >= 0, got {self.sup_at_zero}")

    @property
    def growth_const(self) -> float:
        """L_g with |g(x, t, u)| <= L_g (1 + |u|)."""
        return max(self.lipschitz_u, self.sup_at_zero)

    def eval(self, x, t, u):
        return self.func(x, t, u)


def zero_source() -> SourceDescriptor:
    return SourceDescriptor(
        func=lambda x, t, u: 0.0 * np.asarray(u, dtype=float),
        lipschitz_u=0.0,
        sup_at_zero=0.0,
        tv_bound=lambda t: 0.0,
        linear=True,
    )


def proportional_decay(rate: float) -> SourceDescriptor:
    """g(x, t, u) = -rate * u with rate >= 0."""
    r = float(rate)
    if not np.isfinite(r) or r < 0:
        raise ValueError(f"rate must be >= 0, got {rate}")
    return SourceDescriptor(
        func=lambda x, t, u: -r * np.asarray(u, dtype=float),
        lipschitz_u=r,
        sup_at_zero=0.0,
        tv_bound=lambda t: 0.0,
        linear=True,
    )


# =============================================================
# Implicit sub-step
# =============================================================

def _bracketed_rescue(src: SourceDescriptor, u0: float, x: float, t: float,
                      dt: float) -> float:
    def residual(w: float) -> float:
        return w - u0 - dt * float(src.eval(x, t, w))

    radius = dt * abs(float(src.eval(x, t, u0))) / (1.0 - src.lipschitz_u * dt)
    radius = radius * (1.0 + 1e-9) + 1e-12
    lo, hi = u0 - radius, u0 + radius
    for _ in range(6):
        if residual(lo) <= 0.0 <= residual(hi):
            break
        lo, hi = u0 - 2.0 * (u0 - lo), u0 + 2.0 * (hi - u0)
    else:
        raise SourceSolveError(
            "no sign change bracketing the implicit source update; the "
            "declared lipschitz_u does not bound the actual source slope"
        )
    # Bisection keeps residual(lo) <= 0 <= residual(hi). It stops once the
    # bracket is narrower than 1e-14 + 4 eps |root| and the residual meets
    # _SOLVE_TOL (a steep residual needs a narrower bracket), or when the
    # bracket cannot be split further.
    rtol = 4.0 * np.finfo(float).eps
    root = 0.5 * (lo + hi)
    r = residual(root)
    while r != 0.0 and (hi - lo > 1e-14 + rtol * abs(root)
                        or abs(r) > _SOLVE_TOL):
        if r < 0.0:
            lo = root
        else:
            hi = root
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        root = mid
        r = residual(root)
    if not abs(r) <= _SOLVE_TOL:
        raise SourceSolveError("implicit source update did not reach tolerance")
    return float(root)


def _fixed_point(u0: np.ndarray, dt: float,
                 g: Callable[[np.ndarray], np.ndarray], batch: int,
                 slope: np.ndarray | None = None) -> tuple[np.ndarray, bool]:
    """Iterate w <- u0 + dt g(w) from u0, at most _MAX_ITERS passes, with
    a convergence test after every `batch` passes.

    Returns the first iterate that met _SOLVE_TOL in every cell, or else
    the last one, and whether it converged. An iteration that leaves the
    floats stops early, unconverged.

    The iterates go to the rows of one buffer allocated per call. A pass
    computes g(w), then dt * (.), then u0 + (.); given a slope (a linear
    source), g(w) is slope * w, computed in the buffer, so no pass
    allocates. The changes |w_next - w| of a batch then take one
    subtraction, one abs and one max per row, and are read in pass order,
    so any batch stops at the same pass with the same floats; the passes
    after it in its batch are dropped. The result is a new array.
    """
    iterates = np.empty((batch + 1,) + u0.shape)
    changes_buf = np.empty((batch,) + u0.shape)
    iterates[0] = u0
    # The same float64 as dt; a ufunc takes a 0-d array faster.
    dt = np.array(dt)
    passes = 0
    with np.errstate(all="ignore"):
        while passes < _MAX_ITERS:
            m = min(batch, _MAX_ITERS - passes)
            for k in range(m):
                w_next = iterates[k + 1]
                if slope is None:
                    np.multiply(dt, g(iterates[k]), out=w_next)
                else:
                    np.multiply(slope, iterates[k], out=w_next)
                    np.multiply(dt, w_next, out=w_next)
                np.add(u0, w_next, out=w_next)
            diff = changes_buf[:m]
            np.subtract(iterates[1:m + 1], iterates[:m], out=diff)
            changes = np.abs(diff, out=diff).reshape(m, -1).max(axis=1)
            for k in range(m):
                # Every iterate before this pass is finite.
                change = changes[k]
                if change <= _SOLVE_TOL:
                    # |w - u0 - dt g(w)| = |w_next - w|, so w is the answer.
                    return iterates[k].copy(), True
                # A non-finite change means w_next is not finite, or that
                # two finite iterates differ by more than a float holds.
                if not math.isfinite(change) and not np.isfinite(iterates[k + 1]).all():
                    return iterates[k + 1].copy(), False
            iterates[0] = iterates[m]
            passes += m
    return iterates[0].copy(), False


def implicit_source_step(u, x, t: float, dt: float, src: SourceDescriptor):
    """Solve w = u + dt * g(x, t, w) cell-wise.

    Accepts scalar (u, x) or equally shaped arrays. The returned value w
    satisfies |w - u - dt g(x, t, w)| <= 1e-12 (_SOLVE_TOL), reached by at
    most 100 fixed-point iterations (_MAX_ITERS) and then, for the cells
    they leave unsolved, the closed form or the bisection. A linear sink
    skips the iterations when (lipschitz_u dt)^100 > 1e-12, that is when
    lipschitz_u dt exceeds about 0.76. Raises ValueError
    when the contraction condition lipschitz_u * dt < 1 fails and
    SourceSolveError when the solve cannot be completed at all.

    An array u is read, never copied or written: the returned w is always
    a new array, which a caller may adopt as its own.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be > 0, got {dt}")
    if src.lipschitz_u * dt >= 1.0:
        raise ValueError(
            f"contraction condition violated: lipschitz_u * dt = "
            f"{src.lipschitz_u * dt} >= 1"
        )
    # Not copied: u0 is only read, and w is always a new array.
    u0 = np.asarray(u, dtype=float)
    scalar = u0.ndim == 0
    if scalar:
        u0 = u0.reshape(1)
    xx = np.asarray(x, dtype=float)
    if xx.shape != u0.shape:
        xx = np.broadcast_to(xx, u0.shape)
    if not np.isfinite(u0).all():
        raise ValueError("non-finite state passed to implicit_source_step")

    def g(w):
        return np.asarray(src.eval(xx, t, w), dtype=float)

    # One evaluation gives a linear source's slope for every iterate and
    # the rescue.
    slope = np.asarray(src.eval(xx, t, 1.0), dtype=float) if src.linear else None

    # The iteration shrinks an error by up to q = lipschitz_u * dt a pass.
    # When _MAX_ITERS passes may not bring that under _SOLVE_TOL, as at the
    # source-stage dt limit, a linear sink goes to its closed form at once.
    # Otherwise it tests convergence after as many passes as bring an error
    # of 1 under _SOLVE_TOL (4 on the line model at 200 cells, 3 at 3200),
    # or after each pass when q = 0 and the first settles every cell. A
    # general source tests after each pass, so g runs no pass it need not.
    q = src.lipschitz_u * dt
    if not src.linear:
        w, converged = _fixed_point(u0, dt, g, 1)
    elif q ** _MAX_ITERS > _SOLVE_TOL:
        w, converged = u0.copy(), False
    else:
        batch = 1 if q == 0.0 else min(
            _MAX_BATCH, math.ceil(math.log(_SOLVE_TOL) / math.log(q)))
        w, converged = _fixed_point(u0, dt, g, batch, slope)
    if not converged:
        def unsolved(w):
            with np.errstate(all="ignore"):
                gw = g(w) if slope is None else slope * w
                resid = np.abs(u0 + dt * gw - w)
            return ~np.isfinite(resid) | (resid > _SOLVE_TOL)

        bad = unsolved(w)
        if src.linear:
            # Backward Euler for g = slope * w in closed form; a cell it
            # leaves outside _SOLVE_TOL still goes to the bisection.
            with np.errstate(all="ignore"):
                w[bad] = (u0 / (1.0 - dt * slope))[bad]
            bad = unsolved(w)
        for i in np.flatnonzero(bad):
            w[i] = _bracketed_rescue(src, float(u0[i]), float(xx[i]), t, dt)
        if not np.isfinite(w).all():
            raise SourceSolveError("implicit source update produced non-finite values")
    return float(w[0]) if scalar else w


# =============================================================
# Property verification
# =============================================================

@dataclass(frozen=True)
class SourcePropertyReport:
    """Observed margins for the three declared source properties.

    Margins are (declared bound) - (worst observed value); a negative
    margin beyond rounding noise means the declaration is wrong.
    """

    lipschitz_declared: float
    lipschitz_observed: float
    tv_margin: float
    growth_margin: float

    @property
    def lipschitz_margin(self) -> float:
        return self.lipschitz_declared - self.lipschitz_observed

    @property
    def lipschitz_ok(self) -> bool:
        return self.lipschitz_margin >= -1e-12 * max(1.0, self.lipschitz_declared)

    @property
    def tv_ok(self) -> bool:
        return self.tv_margin >= -1e-12

    @property
    def growth_ok(self) -> bool:
        return self.growth_margin >= -1e-12

    @property
    def passed(self) -> bool:
        return self.lipschitz_ok and self.tv_ok and self.growth_ok


def verify_source_properties(src: SourceDescriptor, x_probes, t_probes,
                             u_probes) -> SourcePropertyReport:
    """Check the declared Lipschitz, spatial-TV and growth bounds on probes.

    Args:
        src: descriptor under test.
        x_probes: positions (sorted internally for the TV sweep).
        t_probes: times.
        u_probes: state values.

    Returns:
        SourcePropertyReport with the worst observed margins.
    """
    xs = np.sort(np.asarray(x_probes, dtype=float))
    ts = np.asarray(t_probes, dtype=float)
    us = np.asarray(u_probes, dtype=float)
    if xs.size < 2 or us.size < 2 or ts.size < 1:
        raise ValueError("need at least 2 x probes, 2 u probes and 1 t probe")

    # g on the full probe lattice: shape (nx, nt, nu)
    G = np.asarray(
        src.eval(xs[:, None, None], ts[None, :, None], us[None, None, :]),
        dtype=float,
    )
    G = np.broadcast_to(G, (xs.size, ts.size, us.size))

    # Lipschitz in u: worst pairwise difference quotient at fixed (x, t).
    du = np.abs(us[:, None] - us[None, :])
    dg = np.abs(G[:, :, :, None] - G[:, :, None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        quot = np.where(du > 0.0, dg / du, 0.0)
    lipschitz_observed = float(quot.max())

    # Spatial TV at fixed (t, u) against B(t).
    tv = np.sum(np.abs(np.diff(G, axis=0)), axis=0)  # (nt, nu)
    B = np.array([float(src.tv_bound(t)) for t in ts])
    tv_margin = float((B[:, None] - tv).min())

    # Growth: |g| <= growth_const (1 + |u|).
    allowed = src.growth_const * (1.0 + np.abs(us))[None, None, :]
    growth_margin = float((allowed - np.abs(G)).min())

    return SourcePropertyReport(
        lipschitz_declared=src.lipschitz_u,
        lipschitz_observed=lipschitz_observed,
        tv_margin=tv_margin,
        growth_margin=growth_margin,
    )
