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
linear and quadratic fluxes. That takes two numerical flux calls a step:
the endpoints with the midpoints, then the vertices. A cell whose five
states are equal (flat) has a transport part of exactly 0.0 at every k and
is left out of both calls. For a flux declared linear (PhysicalFlux.linear)
the endpoints alone are searched, unsorted: a linear piece peaks at one of
them, and the smallest k holding a cell's maximum is the one a sort would
rank first (of k = -0.0 and +0.0, the first in row order). When, in
addition, F(a, b) is f(a) (flux._is_upwind: upwind-linear, or Godunov with
f(1) >= 0), G reduces to f(max(s, k)) - f(min(s, k)) at the upwind state
s, and that is |f(s) - f(k)| to the bit: rounded f is nondecreasing, so it
is the same subtraction or its negation. The check then evaluates f once
on the endpoints and makes no numerical flux call at all. The check
reads the flux and the source from the step's record. At k = ubar_j,
where the source term's sign jumps, the residual is taken as the larger of
its two one-sided limits, so no tie convention enters.

Stability: the split scheme keeps the sup norm and the total variation
under exponential-in-time envelopes of rate C0 = L / (1 - L * dt_cap),
where L is the rate at which the source can grow |u|: its Lipschitz
constant in u, or 0 for a source that only removes load (the line's sink).
On a bounded domain both envelopes are checked in an extended sense that
includes the boundary data (ghost values and their variation in time).
"""

from __future__ import annotations

import math
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


def _add_source_term(r: np.ndarray, bar: np.ndarray, k: np.ndarray,
                     source_values: np.ndarray, dt: float) -> None:
    """Add the source term -sign(ubar_j - k) dt g_j to the residual rows r
    in place.

    At k = ubar_j, where the sign jumps, the term is dt |g_j|: the larger
    of its two one-sided limits. Every term is +-dt |g_j|, so it is added
    as copysign(dt |g_j|, y) with y = sigma k - sigma ubar_j + 0.0 and
    sigma = sign(g_j): away from the jump y has the term's sign, and at it
    y is +0.0 (the + 0.0 turns the -0.0 of -0.0 - +0.0 into +0.0). When
    every g_j is +-0 the term is left out: the transport part is never
    -0.0, so adding +-0 keeps it.
    """
    if np.count_nonzero(source_values):
        sigma = np.sign(source_values)
        y = sigma * k - sigma * bar
        y += 0.0
        r += np.copysign(np.abs(dt * source_values), y, out=y)


def _residual_rows(rec: StepRecord, states: np.ndarray,
                   cells: np.ndarray | slice, k: np.ndarray,
                   source_values: np.ndarray) -> np.ndarray:
    """Residual of every cell for each row of per-cell k values, shape
    (rows, n), with the entropy fluxes from eval_flux.

    states holds the five states (u_j, u_j^+, ubar_{j-1}, ubar_j, ubar_{j+1})
    of the columns that cells selects: the cells that are not flat, or
    slice(None) for all. The transport part
    |u^+ - k| - |u - k| + (dt/dx) (G_r - G_l) is computed on those cells
    only and is 0.0 elsewhere: on a flat cell, whose five states are equal,
    both of its terms are differences of identical floats, so it is exactly
    0.0 at every k. The two interfaces of a cell share ubar_j, so max and
    min against k are taken once for each of the three ubar states; the
    interfaces' left and right arguments are overlapping views of that one
    array, evaluated in a single eval_flux call.
    """
    r = np.zeros(k.shape)
    if states.shape[1]:  # eval_flux takes the range of a non-empty batch
        kc = k[:, cells]
        # x[0] holds max(state, k), x[1] min(state, k), for the states
        # ubar_{j-1}, ubar_j and ubar_{j+1}.
        x = np.empty((2, 3) + kc.shape)
        np.maximum(states[2:, None, :], kc, out=x[0])
        np.minimum(states[2:, None, :], kc, out=x[1])
        f = eval_flux(rec.fluxdesc, x[:, :2], x[:, 1:])
        g = f[0] - f[1]  # left interface, right interface
        r[:, cells] = (np.abs(states[1] - kc) - np.abs(states[0] - kc)
                       + rec.dt / rec.grid.dx * (g[1] - g[0]))
    _add_source_term(r, rec.u_bar, k, source_values, rec.dt)
    return r


def entropy_residual_max(rec: StepRecord) -> EntropyCheckResult:
    """Per-cell supremum of the residual over every entropy constant k, for
    the flux and source of the record (rec.fluxdesc, rec.src).

    Cell j's residual is piecewise smooth in k. Its kinks sit at the five
    values entering the inequality (u_j, u_j^+, ubar_{j-1}, ubar_j,
    ubar_{j+1}) and at critical points of the physical flux; outside all of
    them it is constant; between them it inherits the flux's shape. The
    kink rows are the five states, each cell's lowest state - 1 and highest
    state + 1 (one point of each constant tail), and the critical points
    within the range of all states. Each piece between consecutive kinks is
    evaluated at its endpoints and midpoint, plus the vertex of the
    parabola through those three points when it arches above them. For
    linear and quadratic fluxes every piece is itself linear or quadratic,
    so this search is exhaustive; for other smooth fluxes it is a per-piece
    refinement of the endpoint search.

    The states are refused (ValueError) before any flux work if one is not
    finite, flat cells included.

    For a flux declared linear only the kink rows are evaluated, unsorted
    and on all cells. Every piece is then linear in k, so its midpoint and
    vertex lie between its endpoint values; as rows rank first, they could
    change the result only by rounding above both ends. The winner is the
    first cell holding the largest residual, then the smallest k among
    that cell's rows holding it: the row a sort of k would rank first. Of
    k = -0.0 and k = +0.0, which compare equal and give equal residuals,
    the first in row order wins. If the numerical flux is upwind-linear,
    or Godunov with f(1) >= 0, F(a, b) is f(a) (flux._is_upwind) and rounded
    f is nondecreasing, so G(a, b; k) = f(max(a, k)) - f(min(a, k)) is
    |f(a) - f(k)| to the bit: the same subtraction or its negation. Rows 2
    and 3 are the upwind states ubar_{j-1} and ubar_j, so one evaluation of
    f on the kink rows gives every entropy flux, with no eval_flux call;
    such an entropy flux may differ from eval_flux's only in the sign of an
    exact zero, which the residual does not see. Otherwise the rows take
    one eval_flux call.

    Any other flux takes the sorted search of _piecewise_supremum.

    The residual is never -0.0: |u^+ - k| - |u - k| is +0.0 where it
    vanishes, and adding a zero to it, or subtracting one, keeps that. So a
    source that is +-0 in every cell is left out exactly.

    The source term's sign jumps at k = ubar_j. The row there takes the
    larger of the residual's two one-sided limits, so it bounds every value
    the residual could be given at the jump, and the supremum is exact
    there too. The result passes when it is at most 1e-10 times the step's
    largest state magnitude before or after the step (at least 1).
    """
    fluxdesc = rec.fluxdesc
    phys = fluxdesc.physical
    bar = rec.u_bar
    n = bar.size
    rows = np.empty((7, n))
    local = rows[:5]
    local[0], local[1], local[3] = rec.u_before, rec.u_after, bar
    local[2, 0], local[2, 1:] = rec.ghost_left, bar[:-1]
    local[4, :-1], local[4, -1] = bar[1:], rec.ghost_right
    lo, hi = rows[5], rows[6]
    np.minimum.reduce(local, axis=0, out=lo)
    np.maximum.reduce(local, axis=0, out=hi)
    lo_min = float(np.minimum.reduce(lo))
    hi_max = float(np.maximum.reduce(hi))
    # min and max propagate NaN and an infinite state is an extreme, so the
    # range's ends are finite only if every state is.
    if not (math.isfinite(lo_min) and math.isfinite(hi_max)):
        raise ValueError("non-finite state passed to the entropy check")
    tolerance = 1e-10 * max(1.0, float(np.maximum.reduce(
        np.abs(local[:2]), axis=None)))
    lo -= 1.0
    hi += 1.0
    crits = critical_points(phys, lo_min, hi_max)
    if crits:
        rows = np.concatenate(
            [rows, np.repeat(np.array(crits)[:, None], n, axis=1)])
    gsrc = np.asarray(rec.src.eval(rec.grid.cell_centers, rec.t_before, bar),
                      dtype=float)
    if not phys.linear:
        return _piecewise_supremum(rec, local, np.sort(rows, axis=0), gsrc,
                                   tolerance)
    if _is_upwind(fluxdesc):
        f_k = phys.eval(rows)
        g_right = np.abs(f_k[3] - f_k)
        g_left = np.abs(f_k[2] - f_k)
        r = (np.abs(rec.u_after - rows) - np.abs(rec.u_before - rows)
             + rec.dt / rec.grid.dx * (g_right - g_left))
        _add_source_term(r, bar, rows, gsrc, rec.dt)
    else:
        r = _residual_rows(rec, local, slice(None), rows, gsrc)
    worst = np.maximum.reduce(r, axis=0)
    cell = int(worst.argmax())
    best = float(worst[cell])
    col = r[:, cell].tolist()
    k_col = rows[:, cell].tolist()
    # NaN ranks above every number, as in argmax.
    hits = [i for i, v in enumerate(col)
            if v == best or (v != v and best != best)]
    row = min(hits, key=k_col.__getitem__)
    return EntropyCheckResult(col[row], tolerance, cell, k_col[row],
                              rec.t_before)


def _piecewise_supremum(rec: StepRecord, local: np.ndarray,
                        k_rows: np.ndarray, source_values: np.ndarray,
                        tolerance: float) -> EntropyCheckResult:
    """entropy_residual_max for a flux not declared linear, from the five
    states of every cell (local, shape (5, n)) and the sorted kink rows
    (k_rows, shape (R, n)).

    The candidates are evaluated in two batches, one eval_flux call each:
    the R kink rows together with every piece's midpoint, as one
    (2R - 1, n) array, and then every piece's vertex, which needs the
    midpoint residuals. eval_flux is elementwise, so the merged batch gives
    each entry the floats it would get alone. A piece whose row has no
    cell of positive width adds no candidate. Candidates rank in the order
    rows, midpoint 0, vertex 0, midpoint 1, vertex 1, ..., and the first
    maximum wins, in each cell and then across cells: the cell is the
    first whose largest candidate is the largest, and only its column is
    put in rank order.

    A cell is flat when its five states are equal. There the transport
    part of the residual is exactly 0.0 at every k, so both batches compute
    it only on the other cells (gathered once) and the residual of a flat
    cell is its source term alone. The k rows, with the critical points
    taken over all cells, and the candidates are the same as without the
    shortcut, so the result is too.
    """
    k1, k2 = k_rows[:-1], k_rows[1:]
    half = 0.5 * (k2 - k1)
    live = half > 1e-13 * np.maximum(1.0, np.abs(k1) + np.abs(k2))
    km = k1 + half
    cells = np.flatnonzero((local != rec.u_bar).any(axis=0))
    states = local[:, cells]
    r = _residual_rows(rec, states, cells, np.concatenate([k_rows, km]),
                       source_values)
    m = len(k_rows)
    r_rows, rm = r[:m], r[m:]
    r1, r2 = r_rows[:-1], r_rows[1:]
    # Parabola through (k1, r1), (km, rm), (k2, r2): an interior maximum
    # exists only where the middle sample arches upward.
    arch = r1 - 2.0 * rm + r2
    shift = np.zeros_like(km)
    np.divide(-half * (r2 - r1), 2.0 * arch, out=shift, where=live & (arch < 0.0))
    kv = km + np.clip(shift, -half, half)
    rv = _residual_rows(rec, states, cells, kv, source_values)
    dead = ~np.any(live, axis=1)
    rm[dead] = -np.inf
    rv[dead] = -np.inf

    worst = np.maximum(np.maximum(r_rows.max(axis=0), rm.max(axis=0)),
                       rv.max(axis=0))
    cell = int(np.argmax(worst))
    cand_r = np.concatenate(
        [r_rows[:, cell], np.stack([rm[:, cell], rv[:, cell]], axis=1).ravel()])
    cand_k = np.concatenate(
        [k_rows[:, cell], np.stack([km[:, cell], kv[:, cell]], axis=1).ravel()])
    row = int(np.argmax(cand_r))
    return EntropyCheckResult(float(cand_r[row]), tolerance, cell,
                              float(cand_k[row]), rec.t_before)


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

    growth_const is the rate at which the source can grow |u| (its
    Lipschitz constant in u, 0 for a source that only removes load), dt_cap
    the largest allowed step (C0 = growth_const / (1 - growth_const *
    dt_cap)), and source_tv_l1 a bound on the time integral of the source's
    spatial-variation bound, which enters the total-variation envelope only.
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


def _finish_bound(name: str, reference: float,
                  times: np.ndarray, rate: float, base: float | np.ndarray,
                  observed: np.ndarray) -> BoundCheckResult:
    # Envelope base * exp(rate (t - t0)): +inf (vacuous) where the growth
    # factor overflows, and exactly 0 where base is 0.
    with np.errstate(over="ignore", invalid="ignore"):
        bounds = np.exp(rate * (times - times[0])) * base
    bounds = np.where(np.asarray(base) == 0.0, 0.0, bounds)
    margins = bounds - observed
    worst = int(np.argmin(margins))
    return BoundCheckResult(
        name=name,
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
    during the run.
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
    return _finish_bound("linf", reference, times,
                         cfg.envelope_rate, reference, observed)


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
    return _finish_bound("tv", float(tv0_ext), times,
                         cfg.envelope_rate, tv0_ext + gtv + cfg.source_tv_l1,
                         observed)


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
    collects them by appending rec.u_after to a list that starts
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
