"""Entropy and stability diagnostics for recorded runs.

Entropy: for the Kruzkov family |u - k| the split step must satisfy, for
every constant k,

    (|u^+ - k| - |u - k|) + (dt/dx) (G_j - G_{j-1})
        - sign(ubar_j - k) dt g(x_j, t, ubar_j)  <= 0

with the Crandall-Majda numerical entropy flux
G(a, b; k) = F(max(a,k), max(b,k)) - F(min(a,k), min(b,k)). As a function of
k the residual has constant tails outside a cell's data, kinks at the values
entering its inequality and at critical points of the physical flux, and is
smooth in between with the flux's own shape (linear pieces for a linear
flux, quadratic for a quadratic one). entropy_residual_max, the package's
only entropy check, takes the supremum over k by evaluating every piece at
its endpoints, midpoint and fitted parabola vertex, which is exhaustive for
linear and quadratic fluxes. For a flux declared linear (PhysicalFlux.linear)
the endpoints alone are searched: a linear piece peaks at one of them.
When, in addition, F(a, b) is f(a) (flux._is_upwind: upwind-linear, or
Godunov with f(1) >= 0), G reduces to f(max(s, k)) - f(min(s, k)) at the
upwind state s and the check makes no numerical flux call at all. The
check reads the flux and the source from the step's record. At k = ubar_j,
where the source term's sign jumps, the residual is taken as the larger of
its two one-sided limits, so no tie convention enters.

Stability: the split scheme keeps the sup norm and the total variation
under exponential-in-time envelopes whose rate is
C0 = L / (1 - L * dt_cap) for a source with Lipschitz constant L in u.
On a bounded domain both envelopes are checked in an extended sense that
includes the boundary data (ghost values and their variation in time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .flux import NumericalFluxDescriptor, _is_upwind, critical_points, eval_flux
from .splitting import RunReport, StepRecord


# =============================================================
# Entropy residual
# =============================================================

def numerical_entropy_flux(fluxdesc: NumericalFluxDescriptor, a, b, k):
    """Crandall-Majda entropy flux G(a, b; k) for the Kruzkov entropy |u - k|.

    a, b and k broadcast together; the upper and lower flux arguments are
    stacked so that the whole array costs one eval_flux call.
    """
    flux = eval_flux(
        fluxdesc,
        np.stack(np.broadcast_arrays(np.maximum(a, k), np.minimum(a, k))),
        np.stack(np.broadcast_arrays(np.maximum(b, k), np.minimum(b, k))),
    )
    return flux[0] - flux[1]


@dataclass(frozen=True)
class EntropyCheckResult:
    """Largest entropy residual found in one step."""

    max_residual: float
    tolerance: float
    cell_index: int
    k_value: float
    t_before: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def _residual_rows(rec: StepRecord, ext: np.ndarray, k_rows: np.ndarray,
                   source_values: np.ndarray) -> np.ndarray:
    """Residual of every cell for each row of per-cell k values, shape (rows, n).

    ext holds the ghost values around the post-source states. Both
    interfaces of every cell go through one numerical_entropy_flux call, so
    the whole array costs a single eval_flux call. When F(a, b) is f(a)
    (_is_upwind), G is f(max(s, k)) - f(min(s, k)) at the upwind state s,
    from one evaluation of the physical flux and no eval_flux call; the
    floats are those eval_flux would give, up to the sign of an exact zero.
    Non-finite states are refused (ValueError) on either route. At
    k = ubar_j, where sign(ubar_j - k) jumps, the source term takes the
    sign that makes it dt |g|: the larger of its two one-sided limits.
    """
    before = rec.field_before.values
    bar = rec.field_bar.values
    after = rec.field_after.values
    dtdx = rec.dt / rec.field_before.grid.dx
    # Leading axis: right interface (bar_j, bar_{j+1}), left (bar_{j-1}, bar_j);
    # a holds each interface's left state, the upwind one when F(a, b) = f(a).
    a = np.stack([ext[1:-1], ext[:-2]])[:, None, :]
    fluxdesc = rec.fluxdesc
    if _is_upwind(fluxdesc):
        if not (np.isfinite(ext).all() and np.isfinite(k_rows).all()):
            raise ValueError("non-finite state passed to the entropy check")
        f = fluxdesc.physical.eval(
            np.stack([np.maximum(a, k_rows), np.minimum(a, k_rows)]))
        g = f[0] - f[1]
    else:
        g = numerical_entropy_flux(
            fluxdesc, a, np.stack([ext[2:], ext[1:-1]])[:, None, :], k_rows)
    s = np.where(bar == k_rows, -np.sign(source_values), np.sign(bar - k_rows))
    return (np.abs(after - k_rows) - np.abs(before - k_rows)
            + dtdx * (g[0] - g[1])
            - s * rec.dt * source_values)


def _source_values(rec: StepRecord) -> np.ndarray:
    x = rec.field_before.grid.cell_centers
    return np.asarray(
        rec.src.eval(x, rec.t_before, rec.field_bar.values), dtype=float
    )


def entropy_residual_max(rec: StepRecord) -> EntropyCheckResult:
    """Per-cell supremum of the residual over every entropy constant k, for
    the flux and source of the record (rec.fluxdesc, rec.src).

    Cell j's residual is piecewise smooth in k. Its kinks sit at the five
    values entering the inequality (u_j, u_j^+, ubar_{j-1}, ubar_j,
    ubar_{j+1}) and at critical points of the physical flux; outside all of
    them it is constant; between them it inherits the flux's shape. Each
    piece is evaluated at its endpoints and midpoint, plus the vertex of
    the parabola through those three points when it arches above them.
    For linear and quadratic fluxes every piece is itself linear or
    quadratic, so this search is exhaustive; for other smooth fluxes it is
    a per-piece refinement of the endpoint search.

    The per-cell k candidates form (rows, n) arrays evaluated in three
    batches, one eval_flux call each: the sorted kink rows, every piece's
    midpoint, and every piece's vertex. A piece whose row has no cell of
    positive width adds no candidate. Candidates are ranked in the order
    rows, midpoint 0, vertex 0, midpoint 1, vertex 1, ..., and the first
    maximum wins, in each cell and then across cells.

    For a flux declared linear only the kink rows are evaluated, one
    eval_flux call. Every piece is then linear in k, so its midpoint and
    vertex lie between its endpoint values; as rows rank first, they could
    change the result only by rounding above both ends. If the numerical
    flux is also upwind-linear, or Godunov with f(1) >= 0, F(a, b) is f(a)
    (flux._is_upwind), and the rows take no eval_flux call: G(a, b; k) is
    f(max(a, k)) - f(min(a, k)), the same floats.

    The source term's sign jumps at k = ubar_j. The row there takes the
    larger of the residual's two one-sided limits, so it bounds every value
    the residual could be given at the jump, and the supremum is exact
    there too. The result passes when it is at most 1e-10 times the step's
    largest state magnitude before or after the step (at least 1).
    """
    fluxdesc = rec.fluxdesc
    gsrc = _source_values(rec)
    bar = rec.field_bar.values
    n = bar.size
    ext = np.concatenate([[rec.ghost_left], bar, [rec.ghost_right]])
    local = np.stack([
        rec.field_before.values,
        rec.field_after.values,
        ext[:-2],
        bar,
        ext[2:],
    ])
    tolerance = 1e-10 * max(1.0, float(np.abs(local[:2]).max()))
    lo = local.min(axis=0)
    hi = local.max(axis=0)
    rows = [local, lo[None, :] - 1.0, hi[None, :] + 1.0]
    for c in critical_points(fluxdesc.physical, float(lo.min()), float(hi.max())):
        rows.append(np.full((1, n), c))
    k_rows = np.sort(np.vstack(rows), axis=0)
    r_rows = _residual_rows(rec, ext, k_rows, gsrc)
    if fluxdesc.physical.linear:
        return _worst_candidate(r_rows, k_rows, tolerance, rec.t_before)

    k1, k2 = k_rows[:-1], k_rows[1:]
    r1, r2 = r_rows[:-1], r_rows[1:]
    half = 0.5 * (k2 - k1)
    live = half > 1e-13 * np.maximum(1.0, np.abs(k1) + np.abs(k2))
    km = k1 + half
    rm = _residual_rows(rec, ext, km, gsrc)
    # Parabola through (k1, r1), (km, rm), (k2, r2): an interior maximum
    # exists only where the middle sample arches upward.
    arch = r1 - 2.0 * rm + r2
    shift = np.zeros_like(km)
    np.divide(-half * (r2 - r1), 2.0 * arch, out=shift, where=live & (arch < 0.0))
    kv = km + np.clip(shift, -half, half)
    rv = _residual_rows(rec, ext, kv, gsrc)
    dead = ~np.any(live, axis=1)
    rm[dead] = -np.inf
    rv[dead] = -np.inf

    cand_r = np.concatenate([r_rows, np.stack([rm, rv], axis=1).reshape(-1, n)])
    cand_k = np.concatenate([k_rows, np.stack([km, kv], axis=1).reshape(-1, n)])
    return _worst_candidate(cand_r, cand_k, tolerance, rec.t_before)


def _worst_candidate(cand_r: np.ndarray, cand_k: np.ndarray, tolerance: float,
                     t_before: float) -> EntropyCheckResult:
    """The first cell holding the largest column maximum, then the first
    row of that cell's column holding it."""
    worst_cell = int(np.argmax(cand_r.max(axis=0)))
    row = int(np.argmax(cand_r[:, worst_cell]))
    return EntropyCheckResult(
        max_residual=float(cand_r[row, worst_cell]),
        tolerance=tolerance,
        cell_index=worst_cell,
        k_value=float(cand_k[row, worst_cell]),
        t_before=t_before,
    )


class EntropyObserver:
    """Per-step entropy check to attach to a run's observer list.

    Every step is checked with entropy_residual_max, the exact per-cell
    supremum over k (the larger one-sided limit at k = ubar_j) against the
    step's own tolerance. The flux and source are taken from each step's
    record, so runs whose transport flux changes between steps are handled.
    """

    def __init__(self):
        self.results: list[EntropyCheckResult] = []

    def __call__(self, rec: StepRecord) -> None:
        self.results.append(entropy_residual_max(rec))

    @property
    def worst(self) -> EntropyCheckResult:
        if not self.results:
            raise ValueError("no steps observed")
        return max(self.results, key=lambda r: r.max_residual - r.tolerance)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


# =============================================================
# Stability envelopes
# =============================================================

@dataclass(frozen=True)
class BoundCheckConfig:
    """Inputs to the growth envelopes.

    growth_const is the source's Lipschitz constant in u, dt_cap the
    largest step the run was allowed to take (the envelope rate is
    C0 = growth_const / (1 - growth_const * dt_cap)), and source_tv_l1 a
    bound on the time integral of the source's spatial-variation bound,
    which enters the total-variation envelope only.
    """

    growth_const: float
    dt_cap: float
    source_tv_l1: float = 0.0

    def __post_init__(self):
        if self.growth_const < 0.0:
            raise ValueError(f"growth_const must be >= 0, got {self.growth_const}")
        if self.dt_cap <= 0.0:
            raise ValueError(f"dt_cap must be > 0, got {self.dt_cap}")
        if self.growth_const * self.dt_cap >= 1.0:
            raise ValueError(
                "growth_const * dt_cap must be < 1 for the implicit stage "
                f"to be a contraction, got {self.growth_const * self.dt_cap}"
            )
        if self.source_tv_l1 < 0.0:
            raise ValueError(f"source_tv_l1 must be >= 0, got {self.source_tv_l1}")

    @property
    def envelope_rate(self) -> float:
        return self.growth_const / (1.0 - self.growth_const * self.dt_cap)


@dataclass(frozen=True)
class BoundCheckResult:
    """Observed series against its envelope; margins are bound - observed."""

    name: str
    extended: bool
    reference: float
    bounds: np.ndarray
    observed: np.ndarray
    margins: np.ndarray
    worst_margin: float
    worst_time: float

    @property
    def passed(self) -> bool:
        scale = max(1.0, abs(self.reference))
        return self.worst_margin >= -1e-8 * scale


def _finish_bound(name: str, extended: bool, reference: float,
                  times: np.ndarray, bounds: np.ndarray,
                  observed: np.ndarray) -> BoundCheckResult:
    margins = bounds - observed
    worst = int(np.argmin(margins))
    return BoundCheckResult(
        name=name,
        extended=extended,
        reference=reference,
        bounds=bounds,
        observed=observed,
        margins=margins,
        worst_margin=float(margins[worst]),
        worst_time=float(times[worst]),
    )


def check_linf_bound(report: RunReport, cfg: BoundCheckConfig) -> BoundCheckResult:
    """Sup-norm series against exp(C0 (t - t0)) * max(|u0|_inf, sup |ghosts|).

    On a bounded domain the boundary data can raise the sup norm, so the
    reference extends the initial norm by the largest ghost magnitude seen
    during the run (result flagged extended=True when steps were taken).
    """
    times = np.asarray(report.times)
    observed = np.asarray(report.linf)
    ghost_sup = 0.0
    if report.n_steps > 0:
        ghost_sup = max(
            float(np.max(np.abs(report.ghost_left))),
            float(np.max(np.abs(report.ghost_right))),
        )
    reference = max(observed[0], ghost_sup)
    c0 = cfg.envelope_rate
    bounds = np.exp(c0 * (times - times[0])) * reference
    return _finish_bound(
        "linf", report.n_steps > 0, reference, times, bounds, observed
    )


def check_tv_bound(report: RunReport, cfg: BoundCheckConfig) -> BoundCheckResult:
    """Interior-variation series against the boundary-extended envelope.

    The state at step n is compared with

        exp(C0 (t_n - t0)) * (TV0_ext + GTV_n + source_tv_l1)

    where TV0_ext is the initial variation extended by the jumps to the
    first step's ghost values and GTV_n the accumulated temporal variation
    of the ghost data up to step n. The observed series is the variation of
    the interior cells (first and last cell excluded), where the transport
    stencil never involves more than those same boundary data.
    """
    times = np.asarray(report.times)
    observed = np.asarray(report.tv_interior)
    gl = np.asarray(report.ghost_left)
    gr = np.asarray(report.ghost_right)
    tv0 = report.tv[0]
    if report.n_steps > 0:
        u0 = report.initial.values
        tv0_ext = (abs(float(u0[0]) - gl[0]) + tv0
                   + abs(float(u0[-1]) - gr[0]))
        gtv = np.zeros(len(times))
        gtv[2:] = np.cumsum(np.abs(np.diff(gl)) + np.abs(np.diff(gr)))
        gtv[1] = 0.0
    else:
        tv0_ext = tv0
        gtv = np.zeros(len(times))
    c0 = cfg.envelope_rate
    bounds = np.exp(c0 * (times - times[0])) * (tv0_ext + gtv + cfg.source_tv_l1)
    return _finish_bound(
        "tv", report.n_steps > 0, float(tv0_ext), times, bounds, observed
    )


# =============================================================
# Temporal variation report
# =============================================================

@dataclass(frozen=True)
class TimeBVReport:
    """Accumulated |u^{n+1}_j - u^n_j| per cell over a run's states."""

    per_cell: np.ndarray
    total_max: float
    n_steps: int


def time_bv_report(states: Sequence[np.ndarray]) -> TimeBVReport:
    """Per-cell temporal variation sums over a run's states, in time order.

    states holds the initial values and every step's result; an observer
    collects them by appending rec.field_after.values to a list that starts
    with the initial values. Reported for inspection only: the scheme does
    not certify a specific constant for this quantity.
    """
    snaps = np.asarray(states, dtype=float)
    if snaps.ndim != 2 or len(snaps) == 0:
        raise ValueError("time_bv_report needs a sequence of equally long "
                         "states, the initial one first")
    per_cell = np.sum(np.abs(np.diff(snaps, axis=0)), axis=0)
    return TimeBVReport(
        per_cell=per_cell,
        total_max=float(per_cell.max()) if per_cell.size else 0.0,
        n_steps=len(snaps) - 1,
    )
