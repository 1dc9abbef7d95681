"""Tests for entropy residuals, stability envelopes and variation reports."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splitfv import (
    BoundarySpec,
    BoundCheckConfig,
    CellField,
    EntropyObserver,
    FactoryModel,
    SourceDescriptor,
    TimeAxis,
    YieldLoss,
    advection_decay_problem,
    build_grid,
    burgers_flux,
    check_linf_bound,
    check_tv_bound,
    engquist_osher,
    entropy_residual_max,
    godunov,
    lax_friedrichs,
    linear_flux,
    make_step_record,
    numerical_entropy_flux,
    preset_scenario,
    proportional_decay,
    run,
    run_factory,
    solve_on_grid,
    step_influx,
    time_bv_report,
    transport_stage,
    upwind_linear,
    zero_flux,
    zero_source,
)
import splitfv.diagnostics
import splitfv.flux
import splitfv.verify
from splitfv.flux import critical_points, eval_flux, flux_lipschitz


def burgers_shock_run(n_cells: int = 48, t_final: float = 0.35,
                      observers=(), fluxdesc=None):
    """Decaying Riemann step on [0, 1], under Godunov transport by default."""
    grid = build_grid(0.0, 1.0, n_cells)
    values = np.where(grid.cell_centers < 0.25, 1.0, 0.0)
    field = CellField(grid, values)
    return run(
        field,
        fluxdesc=fluxdesc or godunov(burgers_flux()),
        src=proportional_decay(0.1),
        bc=BoundarySpec.dirichlet_pair(1.0, 0.0),
        time_axis=TimeAxis(t_final, dt_max=0.05),
        observers=observers,
    )


def expansion_shock_record(fluxdesc, left: float = -1.0, right: float = 1.0):
    """One transport step on an entropy-violating upward jump.

    By default the field is -1 on the left half and +1 on the right half of
    [-0.5, 0.5] with matching ghosts, so any conservative scheme whose
    interface flux is 0.5 everywhere leaves it frozen; the Kruzkov
    inequality rejects that.
    """
    grid = build_grid(-0.5, 0.5, 10)
    values = np.where(grid.cell_centers < 0.0, left, right)
    values.setflags(write=False)
    dt = 0.05
    left, right = float(left), float(right)
    after, f_left, f_right = transport_stage(values, dt, grid.dx, fluxdesc,
                                             left, right)
    return make_step_record(grid, 0.0, dt, values, values, after, left, right,
                            f_left, f_right, fluxdesc, zero_source())


# =============================================================
# Entropy flux identities
# =============================================================

class TestNumericalEntropyFlux:
    @pytest.mark.parametrize("fluxdesc", [
        godunov(burgers_flux()),
        lax_friedrichs(burgers_flux(), viscosity=1.5),
    ])
    def test_vanishes_on_the_diagonal(self, fluxdesc):
        for k in (-1.0, 0.0, 0.7, 2.5):
            assert numerical_entropy_flux(fluxdesc, k, k, k) == pytest.approx(0.0)

    def test_reduces_to_flux_minus_constant_below_the_data(self):
        fluxdesc = godunov(burgers_flux())
        rng = np.random.default_rng(3)
        a = rng.uniform(0.5, 2.0, size=25)
        b = rng.uniform(0.5, 2.0, size=25)
        k = 0.2
        expected = eval_flux(fluxdesc, a, b) - fluxdesc.physical.eval(k)
        assert_allclose(numerical_entropy_flux(fluxdesc, a, b, k), expected,
                        rtol=1e-13)

    def test_reduces_to_constant_minus_flux_above_the_data(self):
        fluxdesc = godunov(burgers_flux())
        rng = np.random.default_rng(4)
        a = rng.uniform(-1.0, 1.0, size=25)
        b = rng.uniform(-1.0, 1.0, size=25)
        k = 3.0
        expected = fluxdesc.physical.eval(k) - eval_flux(fluxdesc, a, b)
        assert_allclose(numerical_entropy_flux(fluxdesc, a, b, k), expected,
                        rtol=1e-13, atol=1e-15)


# =============================================================
# Residuals on valid runs
# =============================================================

class TestEntropyResidual:
    def test_below_range_constant_recovers_conservation(self):
        # For k under every state the residual telescopes to the update
        # identity, so it must vanish to solver precision, not merely stay
        # nonpositive.
        records = []
        burgers_shock_run(observers=[records.append])
        rec = records[len(records) // 2]
        assert abs(float(np.max(cell_residuals(rec, -5.0)))) <= 1e-11

    def test_exact_maximum_dominates_the_probe(self):
        records = []
        burgers_shock_run(observers=[records.append])
        for rec in records[:: max(1, len(records) // 6)]:
            # Every state value of the step, plus both extremes padded by 0.1.
            values = np.unique(np.concatenate([
                rec.field_before.values, rec.field_bar.values,
                [rec.ghost_left, rec.ghost_right], rec.field_after.values,
            ]))
            k = np.concatenate([values, [values[0] - 0.1, values[-1] + 0.1]])
            probed = float(np.max(cell_residuals(rec, k[:, None])))
            exact = entropy_residual_max(rec)
            assert exact.max_residual >= probed - 1e-12

    @pytest.mark.parametrize("tie_sign", [0.0, 1.0, -1.0])
    def test_shock_run_passes_under_any_tie_convention(self, tie_sign):
        # The check takes the larger one-sided limit at k = ubar_j, so its
        # pass covers the search under any value given to the sign there.
        records = []
        burgers_shock_run(observers=[records.append])
        for rec in records:
            res = entropy_residual_max(rec)
            assert res.passed, (rec.t_before, res.max_residual)
            larger, _, _ = one_sided_supremum(rec)
            assert res.max_residual == pytest.approx(larger, rel=1e-12)
            tied, _, _ = sequential_supremum(rec, tie_sign)
            assert tied <= larger + rounding_gap(rec), rec.t_before

    def test_supremum_takes_the_larger_one_sided_limit_at_the_bar_value(self):
        # A central flux on a decaying step violates the inequality near
        # k = ubar_j, where the source term's sign jumps. The reported
        # supremum must reach the residual there under either sign; taking
        # the sign as 0 fell short by up to 2 dt |g|.
        grid = build_grid(0.0, 1.0, 48)
        field = CellField(grid, np.where(grid.cell_centers < 0.5, 1.0, 0.0))
        records = []
        run(field, fluxdesc=lax_friedrichs(linear_flux(0.72), 0.0),
            src=proportional_decay(0.5),
            bc=BoundarySpec.dirichlet_pair(1.0, 0.0),
            time_axis=TimeAxis(0.2, dt_max=0.1), observers=[records.append])
        assert records
        for rec in records:
            res = entropy_residual_max(rec)
            bar = rec.field_bar.values
            for sign in (1.0, -1.0):
                at_bar = float(np.max(cell_residuals(rec, bar, sign)))
                assert res.max_residual >= at_bar, (rec.t_before, sign)

    def test_result_reports_location(self):
        records = []
        burgers_shock_run(observers=[records.append])
        res = entropy_residual_max(records[0])
        assert 0 <= res.cell_index < 48
        assert np.isfinite(res.k_value)
        assert res.t_before == records[0].t_before


# (step index, max_residual, cell_index, k_value) of entropy_residual_max,
# recorded with the one-k-row-at-a-time search that the batched search
# replaced. The residuals sit at rounding level, so k_value records which of
# the tied candidates wins: the first in candidate order. The Burgers run's
# steps are sized over the field and its ghosts, as its CFL guard checks
# them; its pins were recorded again with one_sided_supremum below when that
# sizing replaced one over the field alone.
BURGERS_SHOCK_PINS = [
    (0, 2.3297119441934022e-14, 0, -0.0018714909544372826),
    (1, 2.3210816949004176e-14, 11, 0.44747821260765414),
    (5, 2.331598455973527e-14, 1, -0.006240350427887398),
    (9, 2.3264593376759457e-14, 0, -0.004162321843839356),
    (13, 2.3320755049294206e-14, 2, -0.008324625547140418),
    (17, 2.3168966745146236e-14, 0, -0.004162321867729468),
    (18, 3.1645693010506903e-15, 3, -0.009788046297922182),
]
TESTCASE2_GODUNOV_PINS = [
    (0, 2.3893213796366553e-14, 20, 1.7956972472054966),
    (1, 2.4015511801422917e-14, 20, 1.791420103921324),
    (7, 2.406234933527429e-14, 20, 1.76817884859221),
    (13, 2.390622422243638e-14, 19, 1.7524112805425265),
    (19, 2.4266179343701566e-14, 20, 1.7384530740306143),
    (25, 2.5903758305023672e-14, 20, 1.8603404387761713),
    (31, 1.3679161969815112e-14, 20, 1.9019223779364562),
]


@pytest.fixture(scope="module")
def burgers_shock_records():
    records = []
    burgers_shock_run(observers=[records.append])
    return records


def line_records(preset: str, flux_kind: str, n_cells: int = 40,
                 time_axis: TimeAxis = TimeAxis(1.0, dt_max=0.05)):
    """Steps of a preset line (linear flux), by default on 40 cells to t = 1."""
    scenario = preset_scenario(preset)
    records = []
    run_factory(scenario.model, scenario.initial_density,
                time_axis=time_axis, flux_kind=flux_kind,
                grid=build_grid(0.0, 1.0, n_cells), observers=[records.append])
    return records


@pytest.fixture(scope="module")
def testcase2_records():
    """Steps of the testcase2 line (linear flux) under Godunov transport."""
    return line_records("testcase2", "godunov")


def empty_line_records(flux_kind: str):
    """Steps of a line that starts empty and gets no influx, on 40 cells to
    t = 1: every state, ghost and flux value is an exact zero."""
    model = FactoryModel(v0=1.0, max_load=10.0, influx=step_influx(0.0, 0.0),
                         yield_loss=YieldLoss.constant(0.03))
    records = []
    run_factory(model, 0.0, time_axis=TimeAxis(1.0, dt_max=0.05),
                flux_kind=flux_kind, grid=build_grid(0.0, 1.0, 40),
                observers=[records.append])
    return records


def cell_residuals(rec, k, tie_sign: float = 0.0):
    """Entropy residual of every cell of a step at the constant(s) k.

    k is a scalar, one value per cell, or an (m, 1) column of constants,
    which gives an (m, n) array. Written out from the inequality, apart from
    the batched residual inside entropy_residual_max, so it can serve as an
    oracle for that function.
    """
    before = rec.field_before.values
    bar = rec.field_bar.values
    after = rec.field_after.values
    dtdx = rec.dt / rec.field_before.grid.dx
    ext = np.concatenate([[rec.ghost_left], bar, [rec.ghost_right]])
    gsrc = np.asarray(rec.src.eval(rec.field_before.grid.cell_centers,
                                   rec.t_before, bar), dtype=float)
    g = (numerical_entropy_flux(rec.fluxdesc, ext[1:-1], ext[2:], k)
         - numerical_entropy_flux(rec.fluxdesc, ext[:-2], ext[1:-1], k))
    s = np.sign(bar - k)
    if tie_sign != 0.0:
        s = np.where(bar == k, tie_sign, s)
    return (np.abs(after - k) - np.abs(before - k) + dtdx * g
            - s * rec.dt * gsrc)


def one_sided_supremum(rec):
    """Reference for entropy_residual_max: the larger of the sequential
    searches with the source sign at k = ubar_j set to +1 and to -1.

    On equal maxima the +1 search's answer is kept.
    """
    return max(sequential_supremum(rec, 1.0), sequential_supremum(rec, -1.0),
               key=lambda result: result[0])


def sequential_supremum(rec, tie_sign: float = 0.0):
    """Reference for entropy_residual_max: one k row at a time.

    Same candidates, each row evaluated on its own, and a candidate replaces
    the best so far only when strictly larger. Returns
    (max_residual, cell_index, k_value).
    """
    fluxdesc = rec.fluxdesc
    before = rec.field_before.values
    bar = rec.field_bar.values
    after = rec.field_after.values
    n = bar.size
    ext = np.concatenate([[rec.ghost_left], bar, [rec.ghost_right]])
    local = np.stack([before, after, ext[:-2], bar, ext[2:]])
    lo = local.min(axis=0)
    hi = local.max(axis=0)
    rows = [local, lo[None, :] - 1.0, hi[None, :] + 1.0]
    rows += [np.full((1, n), c) for c in
             critical_points(fluxdesc.physical, float(lo.min()), float(hi.max()))]
    k_rows = np.sort(np.vstack(rows), axis=0)
    best_r = np.full(n, -np.inf)
    best_k = np.empty(n)

    def consider(k, r):
        better = r > best_r
        best_r[better] = r[better]
        best_k[better] = k[better]

    r_rows = [cell_residuals(rec, k, tie_sign) for k in k_rows]
    for k, r in zip(k_rows, r_rows):
        consider(k, r)
    for i in range(len(k_rows) - 1):
        k1, k2 = k_rows[i], k_rows[i + 1]
        half = 0.5 * (k2 - k1)
        live = half > 1e-13 * np.maximum(1.0, np.abs(k1) + np.abs(k2))
        if not np.any(live):
            continue
        km = k1 + half
        rm = cell_residuals(rec, km, tie_sign)
        consider(km, rm)
        arch = r_rows[i] - 2.0 * rm + r_rows[i + 1]
        shift = np.zeros(n)
        np.divide(-half * (r_rows[i + 1] - r_rows[i]), 2.0 * arch, out=shift,
                  where=live & (arch < 0.0))
        kv = km + np.clip(shift, -half, half)
        consider(kv, cell_residuals(rec, kv, tie_sign))
    j = int(np.argmax(best_r))
    return float(best_r[j]), j, float(best_k[j])


PARITY_SOURCES = {
    "zero": zero_source(),
    "decay": proportional_decay(0.5),
    "growth": SourceDescriptor(
        func=lambda x, t, u: 0.3 * np.asarray(u, dtype=float),
        lipschitz_u=0.3,
        sup_at_zero=0.0,
        tv_bound=lambda t: 0.0,
        linear=True,
    ),
    # dt |g| stays under half an ulp of the states, so no state moves.
    "trickle": SourceDescriptor(
        func=lambda x, t, u: 1e-15 * (np.asarray(u, dtype=float) - 0.5),
        lipschitz_u=1e-15,
        sup_at_zero=5e-16,
        tv_bound=lambda t: 0.0,
    ),
}
PARITY_FLUXES = {
    "godunov": godunov(burgers_flux()),
    "lax-friedrichs": lax_friedrichs(burgers_flux(), viscosity=1.0),
    "engquist-osher": engquist_osher(burgers_flux()),
    "central": lax_friedrichs(burgers_flux(), viscosity=0.0),
}


def riemann_records(left: float, right: float, flux_kind: str, source: str,
                    n_cells: int = 40, t_final: float = 0.3):
    """Steps of a Burgers Riemann problem on [-0.5, 0.5], jump at 0."""
    fluxdesc = PARITY_FLUXES[flux_kind]
    grid = build_grid(-0.5, 0.5, n_cells)
    field = CellField(grid, np.where(grid.cell_centers < 0.0, left, right))
    records = []
    run(field, fluxdesc=fluxdesc, src=PARITY_SOURCES[source],
        bc=BoundarySpec.dirichlet_pair(left, right),
        time_axis=TimeAxis(t_final, dt_max=0.05, cfl_number=0.8),
        observers=[records.append])
    return records


def three_batch_supremum(rec):
    """Reference for entropy_residual_max on a flux not declared linear:
    the search with the kink rows, the midpoints and the vertices evaluated
    in three numerical flux calls over every cell, flat or not.

    Returns (max_residual, cell_index, k_value, tolerance).
    """
    before = rec.field_before.values
    bar = rec.field_bar.values
    after = rec.field_after.values
    n = bar.size
    dtdx = rec.dt / rec.field_before.grid.dx
    ext = np.concatenate([[rec.ghost_left], bar, [rec.ghost_right]])
    gsrc = np.asarray(rec.src.eval(rec.field_before.grid.cell_centers,
                                   rec.t_before, bar), dtype=float)
    # Leading axis: right interface (bar_j, bar_{j+1}), left (bar_{j-1}, bar_j).
    a = np.stack([ext[1:-1], ext[:-2]])[:, None, :]
    b = np.stack([ext[2:], ext[1:-1]])[:, None, :]

    def residual_rows(k):
        g = numerical_entropy_flux(rec.fluxdesc, a, b, k)
        s = np.where(bar == k, -np.sign(gsrc), np.sign(bar - k))
        return (np.abs(after - k) - np.abs(before - k)
                + dtdx * (g[0] - g[1])
                - s * rec.dt * gsrc)

    local = np.stack([before, after, ext[:-2], bar, ext[2:]])
    tolerance = 1e-10 * max(1.0, float(np.abs(local[:2]).max()))
    lo = local.min(axis=0)
    hi = local.max(axis=0)
    rows = [local, lo[None, :] - 1.0, hi[None, :] + 1.0]
    rows += [np.full((1, n), c) for c in critical_points(
        rec.fluxdesc.physical, float(lo.min()), float(hi.max()))]
    k_rows = np.sort(np.vstack(rows), axis=0)
    r_rows = residual_rows(k_rows)
    k1, k2 = k_rows[:-1], k_rows[1:]
    r1, r2 = r_rows[:-1], r_rows[1:]
    half = 0.5 * (k2 - k1)
    live = half > 1e-13 * np.maximum(1.0, np.abs(k1) + np.abs(k2))
    km = k1 + half
    rm = residual_rows(km)
    arch = r1 - 2.0 * rm + r2
    shift = np.zeros_like(km)
    np.divide(-half * (r2 - r1), 2.0 * arch, out=shift,
              where=live & (arch < 0.0))
    kv = km + np.clip(shift, -half, half)
    rv = residual_rows(kv)
    dead = ~np.any(live, axis=1)
    rm[dead] = -np.inf
    rv[dead] = -np.inf
    cand_r = np.concatenate([r_rows, np.stack([rm, rv], axis=1).reshape(-1, n)])
    cand_k = np.concatenate([k_rows, np.stack([km, kv], axis=1).reshape(-1, n)])
    cell = int(np.argmax(cand_r.max(axis=0)))
    row = int(np.argmax(cand_r[:, cell]))
    return (float(cand_r[row, cell]), cell, float(cand_k[row, cell]),
            tolerance)


def sorted_rows_supremum(rec):
    """Reference for entropy_residual_max on a flux declared linear: the
    kink rows sorted by k and evaluated in one batch, with the first
    maximum winning in each cell and then across cells. Where F(a, b) is
    f(a) the entropy flux is f(max(s, k)) - f(min(s, k)) at the upwind
    state s; otherwise it takes one eval_flux call.

    Returns (max_residual, cell_index, k_value, tolerance).
    """
    fluxdesc = rec.fluxdesc
    before, bar, after = rec.u_before, rec.u_bar, rec.u_after
    n = bar.size
    dtdx = rec.dt / rec.grid.dx
    ext = np.concatenate([[rec.ghost_left], bar, [rec.ghost_right]])
    gsrc = np.asarray(rec.src.eval(rec.grid.cell_centers, rec.t_before, bar),
                      dtype=float)
    local = np.array([before, after, ext[:-2], bar, ext[2:]])
    tolerance = 1e-10 * max(1.0, float(np.abs(local[:2]).max()))
    lo = local.min(axis=0)
    hi = local.max(axis=0)
    rows = [local, lo[None, :] - 1.0, hi[None, :] + 1.0]
    rows += [np.full((1, n), c) for c in critical_points(
        fluxdesc.physical, float(lo.min()), float(hi.max()))]
    k = np.sort(np.concatenate(rows), axis=0)
    upwind = splitfv.flux._is_upwind(fluxdesc)
    ubar = local[2:4] if upwind else local[2:]
    x = np.empty((2, len(ubar)) + k.shape)
    np.maximum(ubar[:, None, :], k, out=x[0])
    np.minimum(ubar[:, None, :], k, out=x[1])
    if upwind:
        f = fluxdesc.physical.eval(x)
    else:
        f = eval_flux(fluxdesc, x[:, :2], x[:, 1:])
    g = f[0] - f[1]  # left interface, right interface
    r = np.abs(after - k) - np.abs(before - k) + dtdx * (g[1] - g[0])
    s = np.where(bar == k, -np.sign(gsrc), np.sign(bar - k))
    r -= s * rec.dt * gsrc
    cell = int(np.argmax(r.max(axis=0)))
    row = int(np.argmax(r[:, cell]))
    return (float(r[row, cell]), cell, float(k[row, cell]), tolerance)


def assert_equals_sorted_rows_search(records):
    """Every record's result is the reference's tuple, and its largest
    residual has the reference's very bytes (== does not see the sign of a
    zero)."""
    assert records
    for rec in records:
        res = entropy_residual_max(rec)
        reference = sorted_rows_supremum(rec)
        got = (res.max_residual, res.cell_index, res.k_value, res.tolerance)
        assert got == reference, rec.t_before
        assert (np.float64(res.max_residual).tobytes()
                == np.float64(reference[0]).tobytes()), rec.t_before


# g = 0.2 everywhere: a source term that is not zero at u = 0.
CONSTANT_SOURCE = SourceDescriptor(
    func=lambda x, t, u: np.full(np.shape(u), 0.2),
    lipschitz_u=0.0, sup_at_zero=0.2, tv_bound=lambda t: 0.0)


def tied_zero_record(fluxdesc, src):
    """One hand-made step of four cells whose states mix -0.0 and +0.0 and
    repeat one another, so that k rows tie within and across cells."""
    grid = build_grid(0.0, 1.0, 4)
    before = np.array([-0.0, 0.0, 0.5, 0.5])
    bar = np.array([0.0, -0.0, 0.5, 0.25])
    after = np.array([0.0, 0.0, 0.5, -0.0])
    for a in (before, bar, after):
        a.setflags(write=False)
    return make_step_record(grid, 0.0, 0.1, before, bar, after, -0.0, 0.0,
                            0.0, 0.0, fluxdesc, src)


class TestBatchedSupremum:
    @pytest.mark.parametrize("tie_sign", [0.0, 1.0, -1.0])
    @pytest.mark.parametrize("records", ["burgers_shock_records",
                                         "testcase2_records"])
    def test_every_step_matches_the_sequential_search(self, records, tie_sign,
                                                      request):
        # The reference is the larger of the +1 and -1 sign conventions at
        # k = ubar_j; the search under tie_sign never exceeds it.
        for rec in request.getfixturevalue(records):
            res = entropy_residual_max(rec)
            max_residual, cell, k_value = one_sided_supremum(rec)
            assert res.max_residual == pytest.approx(max_residual, rel=1e-12)
            assert res.cell_index == cell
            assert res.k_value == pytest.approx(k_value, rel=1e-12)
            tied, _, _ = sequential_supremum(rec, tie_sign)
            assert tied <= max_residual + rounding_gap(rec), rec.t_before

    @pytest.mark.parametrize("records,n_steps,pins", [
        ("burgers_shock_records", 19, BURGERS_SHOCK_PINS),
        ("testcase2_records", 32, TESTCASE2_GODUNOV_PINS),
    ])
    def test_steps_match_the_recorded_supremum(self, records, n_steps, pins,
                                               request):
        records = request.getfixturevalue(records)
        assert len(records) == n_steps
        for step, max_residual, cell, k_value in pins:
            rec = records[step]
            res = entropy_residual_max(rec)
            assert res.max_residual == pytest.approx(max_residual, rel=1e-12), step
            assert res.cell_index == cell, step
            assert res.k_value == pytest.approx(k_value, rel=1e-12), step

    @pytest.mark.parametrize("case", ["linear", "burgers"])
    def test_one_check_makes_at_most_two_flux_calls(self, case,
                                                    testcase2_records,
                                                    monkeypatch):
        # A flux declared linear is searched at its kink rows only, and
        # under Godunov with a nonnegative speed those take f(a) directly,
        # with no call. Burgers evaluates its kink rows with their
        # midpoints in one batch and the vertices in a second; its jump
        # from -1 to 1 straddles the critical point 0, which adds an eighth
        # k row, so the first batch holds 8 rows and 7 midpoints. Only the
        # two cells next to the jump are not flat, so both calls take two
        # columns.
        if case == "linear":
            rec = testcase2_records[5]
            expected = []
        else:
            rec = expansion_shock_record(godunov(burgers_flux()))
            expected = [(2, 2, 15, 2), (2, 2, 7, 2)]
        shapes, _ = flux_call_shapes(monkeypatch, rec, rec.fluxdesc)
        assert shapes == expected

    def test_undeclared_linear_flux_takes_the_two_batch_search(
            self, testcase2_records, monkeypatch):
        # The sink changes every cell of the line, so none is flat: both
        # batches take every column, 7 rows with 6 midpoints, then 6
        # vertices.
        rec = testcase2_records[5]
        undeclared = dataclasses.replace(
            rec.fluxdesc,
            physical=dataclasses.replace(rec.fluxdesc.physical, linear=False),
        )
        shapes, res = flux_call_shapes(monkeypatch, rec, undeclared)
        n = rec.field_bar.values.size
        assert shapes == [(2, 2, 13, n), (2, 2, 6, n)]
        assert res == entropy_residual_max(rec)

    @pytest.mark.parametrize("source", sorted(PARITY_SOURCES))
    @pytest.mark.parametrize("flux_kind", sorted(PARITY_FLUXES))
    @pytest.mark.parametrize("left,right", [
        (1.0, 0.0), (0.0, 1.0), (1.0, -0.5), (-1.0, 1.0), (0.25, 0.25),
    ], ids=["shock", "rarefaction", "sonic-shock", "sonic-rarefaction",
            "still"])
    def test_every_step_equals_the_three_batch_search(self, left, right,
                                                      flux_kind, source):
        # Skipping flat cells and merging the rows with the midpoints must
        # not move a single bit of the result. The sonic data's critical
        # point 0 lies inside their range. The central flux keeps the
        # sonic rarefaction as a frozen expansion shock, whose steps
        # violate the inequality inside the jump: there a cell whose
        # downwind state alone differs is not flat. The trickle source
        # moves no state by a float, so its flat cells carry a nonzero
        # source term of either sign; on still data every cell is flat
        # and that term alone makes the result.
        records = riemann_records(left, right, flux_kind, source)
        assert len(records) > 5
        for rec in records:
            res = entropy_residual_max(rec)
            assert (res.max_residual, res.cell_index, res.k_value,
                    res.tolerance) == three_batch_supremum(rec), rec.t_before

    @pytest.mark.parametrize("values", [
        np.full(10, np.inf),
        np.array([-1.0] * 5 + [1.0, 1.0, np.nan, 1.0, 1.0]),
    ], ids=["inf-in-every-cell", "nan-in-one-cell"])
    @pytest.mark.parametrize("fluxdesc", [
        godunov(burgers_flux()),
        lax_friedrichs(burgers_flux(), viscosity=1.0),
    ], ids=["godunov", "lax-friedrichs"])
    def test_non_finite_flat_cells_are_refused(self, fluxdesc, values):
        # Where every state is inf every cell is flat, so no state reaches
        # eval_flux; the refusal must not depend on that.
        grid = build_grid(-0.5, 0.5, 10)
        values = values.copy()
        # A decay source: zero_source's 0 * inf would warn before the check.
        rec = make_step_record(grid, 0.0, 0.05, values, values, values,
                               values[0], values[-1], 0.0, 0.0, fluxdesc,
                               proportional_decay(0.1))
        with pytest.raises(ValueError, match="non-finite"):
            entropy_residual_max(rec)

    @pytest.mark.parametrize("fluxdesc", [
        lax_friedrichs(linear_flux(0.72), viscosity=1.0),
        engquist_osher(linear_flux(0.72)),
        godunov(linear_flux(-0.5)),
    ], ids=["lax-friedrichs", "engquist-osher", "godunov-backward"])
    def test_other_linear_fluxes_keep_one_flux_call(self, fluxdesc,
                                                   monkeypatch):
        # Only upwind-linear, and Godunov with a nonnegative speed, reduce
        # F(a, b) to f(a); any other flux declared linear evaluates its kink
        # rows (five states, lo - 1, hi + 1) through eval_flux.
        rec = expansion_shock_record(fluxdesc)
        shapes, _ = flux_call_shapes(monkeypatch, rec, fluxdesc)
        assert shapes == [(2, 2, 7, 10)]

    @pytest.mark.parametrize("fluxdesc", [
        upwind_linear(linear_flux(0.72)),
        godunov(linear_flux(0.72)),
        upwind_linear(linear_flux(0.0)),
        godunov(zero_flux()),
    ], ids=["upwind", "godunov", "upwind-speed-0", "godunov-zero"])
    def test_direct_rows_equal_the_flux_call_rows(self, fluxdesc, monkeypatch):
        # On the decaying step, where the search may differ from the
        # sequential one by rounding, f(a) taken directly still gives the
        # very result of the rows evaluated through eval_flux, with Godunov
        # taking its extremum pass there.
        records = []
        burgers_shock_run(observers=[records.append], fluxdesc=fluxdesc)
        assert records
        direct = [entropy_residual_max(rec) for rec in records]
        monkeypatch.setattr(splitfv.diagnostics, "_is_upwind",
                            lambda desc: False)
        monkeypatch.setattr(splitfv.flux, "_is_upwind",
                            lambda desc: desc.kind == "upwind-linear")
        assert [entropy_residual_max(rec) for rec in records] == direct

    @pytest.mark.parametrize("flux", [
        upwind_linear(linear_flux(0.0)), godunov(zero_flux()),
        "upwind-linear", "godunov",
    ], ids=["upwind-speed-0", "godunov-zero", "empty-line-upwind",
            "empty-line-godunov"])
    def test_zero_flux_steps_equal_the_sequential_search(self, flux):
        # With f = 0 every entropy flux is a difference of zeros, and on an
        # empty line with no influx (flux given by kind) every state is an
        # exact zero too: there only the sign of a zero could tell f(a)
        # taken directly from eval_flux's Godunov minimum, and == does not
        # see it.
        if isinstance(flux, str):
            records = empty_line_records(flux)
            assert not np.any(records[-1].field_after.values)
        else:
            records = []
            burgers_shock_run(observers=[records.append], fluxdesc=flux)
        assert records
        for rec in records:
            res = entropy_residual_max(rec)
            assert (res.max_residual, res.cell_index, res.k_value) \
                == one_sided_supremum(rec), rec.t_before

    @pytest.mark.parametrize("direct", [True, False])
    @pytest.mark.parametrize("ghosts", [(np.inf, 0.0), (0.0, np.nan)])
    def test_non_finite_states_are_refused(self, ghosts, direct,
                                           testcase2_records, monkeypatch):
        # The right ghost enters only as a right state, which f(a) taken
        # directly never evaluates; the refusal must not depend on that.
        rec = dataclasses.replace(testcase2_records[5], ghost_left=ghosts[0],
                                  ghost_right=ghosts[1])
        if not direct:
            monkeypatch.setattr(splitfv.diagnostics, "_is_upwind",
                                lambda desc: False)
        with pytest.raises(ValueError, match="non-finite"):
            entropy_residual_max(rec)

    @pytest.mark.parametrize("tie_sign", [0.0, 1.0, -1.0])
    @pytest.mark.parametrize("flux_kind", ["upwind-linear", "godunov"])
    @pytest.mark.parametrize("preset", ["testcase1", "testcase2"])
    def test_line_steps_equal_the_sequential_search(self, preset, flux_kind,
                                                    tie_sign):
        # On every step of the line model the rows-only search returns the
        # sequential search's answer bit for bit: no midpoint or vertex
        # rounds above the rows. The CLI's outputs rest on this. The
        # reference takes the larger of the +1 and -1 sign conventions at
        # k = ubar_j; the search under tie_sign never exceeds it.
        records = line_records(preset, flux_kind)
        assert records and records[0].fluxdesc.physical.linear
        for rec in records:
            res = entropy_residual_max(rec)
            reference = one_sided_supremum(rec)
            assert (res.max_residual, res.cell_index, res.k_value) \
                == reference, rec.t_before
            tied, _, _ = sequential_supremum(rec, tie_sign)
            assert tied <= reference[0] + rounding_gap(rec), rec.t_before

    @pytest.mark.parametrize("tie_sign", [0.0, 1.0, -1.0])
    @pytest.mark.parametrize("fluxdesc", [
        upwind_linear(linear_flux(0.72)),
        godunov(linear_flux(0.72)),
        lax_friedrichs(linear_flux(0.72), viscosity=0.72),
        lax_friedrichs(linear_flux(0.72), viscosity=1.0),
        engquist_osher(linear_flux(0.72)),
        godunov(linear_flux(-0.5)),
        engquist_osher(linear_flux(-0.5)),
        godunov(zero_flux()),
    ], ids=["upwind", "godunov", "lax-friedrichs-0.72", "lax-friedrichs-1",
            "engquist-osher", "godunov-backward", "engquist-osher-backward",
            "godunov-zero"])
    def test_linear_flux_steps_are_within_rounding_of_the_sequential_search(
            self, fluxdesc, tie_sign):
        # On the decaying step a midpoint does round above its piece's ends
        # (by about 0.1 ulp of the residual's terms), so the answers can
        # differ in the last bits and in the cell and k they name. The rows
        # are a subset of the sequential candidates, so the rows-only
        # maximum can never be the larger one. The reference takes the
        # larger of the +1 and -1 sign conventions at k = ubar_j; the
        # search under tie_sign never exceeds it.
        records = []
        burgers_shock_run(observers=[records.append], fluxdesc=fluxdesc)
        assert records and fluxdesc.physical.linear
        for rec in records:
            res = entropy_residual_max(rec)
            max_residual, _, _ = one_sided_supremum(rec)
            assert res.max_residual <= max_residual, rec.t_before
            assert max_residual - res.max_residual <= rounding_gap(rec), \
                rec.t_before
            assert res.passed == (max_residual <= res.tolerance)
            tied, _, _ = sequential_supremum(rec, tie_sign)
            assert tied <= max_residual + rounding_gap(rec), rec.t_before

    @pytest.mark.parametrize("fluxdesc", [
        godunov(burgers_flux()),
        lax_friedrichs(burgers_flux(), viscosity=1.0),
    ], ids=["godunov", "lax-friedrichs"])
    def test_exact_supremum_dominates_a_dense_k_sweep(self, fluxdesc):
        records = []
        burgers_shock_run(observers=[records.append], fluxdesc=fluxdesc)
        for rec in records[:: max(1, len(records) // 6)]:
            assert_dominates_dense_sweep(rec)

    def test_flat_flux_decay_run_dominates_a_dense_k_sweep(self):
        # zero_flux declares no critical points, so the search has no k row
        # inside the data beyond the states themselves.
        records = []
        burgers_shock_run(observers=[records.append],
                          fluxdesc=godunov(zero_flux()))
        assert records
        for rec in records:
            assert_dominates_dense_sweep(rec)

    @pytest.mark.parametrize("viscosity,left,right", [
        (0.3, -1.0, 2.0),
        (0.6, -0.5, 2.0),
    ])
    def test_dense_k_sweep_on_a_violating_step(self, viscosity, left, right):
        # Too little viscosity lets the jump violate the inequality; the
        # worst k lies inside a piece, so only the vertex candidate finds it.
        rec = expansion_shock_record(lax_friedrichs(burgers_flux(), viscosity),
                                     left, right)
        exact = assert_dominates_dense_sweep(rec)
        assert exact.max_residual > 0.4
        assert not exact.passed


class TestLinearRouteParity:
    """The unsorted, upwind-direct linear route gives the sorted search's
    result bit for bit."""

    @pytest.mark.parametrize("flux_kind", ["upwind-linear", "godunov"])
    @pytest.mark.parametrize("preset", ["testcase1", "testcase2"])
    def test_every_line_step_at_200_cells(self, preset, flux_kind):
        records = line_records(preset, flux_kind, n_cells=200,
                               time_axis=TimeAxis(2.0))
        assert len(records) > 300
        assert_equals_sorted_rows_search(records)

    def test_every_advection_decay_step(self, monkeypatch):
        # The study's own run, with its ghosts from the exact solution.
        records = []

        class Recorder(EntropyObserver):
            def __call__(self, rec):
                records.append(rec)
                super().__call__(rec)

        monkeypatch.setattr(splitfv.verify, "EntropyObserver", Recorder)
        solve_on_grid(advection_decay_problem(), 50)
        assert_equals_sorted_rows_search(records)

    @pytest.mark.parametrize("flux_kind", ["upwind-linear", "godunov"])
    def test_every_empty_line_step(self, flux_kind):
        # Every source value is a zero, so the source term is left out.
        records = empty_line_records(flux_kind)
        assert not np.any(records[-1].u_after)
        assert_equals_sorted_rows_search(records)

    @pytest.mark.parametrize("src", [
        zero_source(), proportional_decay(0.5), CONSTANT_SOURCE,
    ], ids=["zero", "decay", "constant"])
    @pytest.mark.parametrize("fluxdesc", [
        upwind_linear(linear_flux(0.72)),
        godunov(linear_flux(0.72)),
        upwind_linear(linear_flux(0.0)),
        lax_friedrichs(linear_flux(0.72), viscosity=1.0),
        godunov(linear_flux(-0.5)),
    ], ids=["upwind", "godunov", "upwind-speed-0", "lax-friedrichs",
            "godunov-backward"])
    def test_signed_zeros_and_ties(self, fluxdesc, src):
        assert_equals_sorted_rows_search([tied_zero_record(fluxdesc, src)])

    def test_a_tie_between_zeros_goes_to_the_first_row(self):
        # u_j is -0.0 and every other state +0.0, under a flux of speed 0,
        # so the transport part is 0 at every k. The constant source lifts
        # k = ubar_j and every k above it to the largest residual, dt g, in
        # every cell. The smallest such k are the five zero states, and
        # row order names u_0 = -0.0 of cell 0.
        grid = build_grid(0.0, 1.0, 4)
        before = np.full(4, -0.0)
        zeros = np.zeros(4)
        rec = make_step_record(grid, 0.0, 0.1, before, zeros, zeros, 0.0, 0.0,
                               0.0, 0.0, upwind_linear(linear_flux(0.0)),
                               CONSTANT_SOURCE)
        res = entropy_residual_max(rec)
        assert (res.max_residual, res.cell_index, res.k_value) \
            == (0.1 * 0.2, 0, 0.0)
        assert np.signbit(res.k_value)


def flux_call_shapes(monkeypatch, rec, fluxdesc):
    """Shapes of the eval_flux calls one entropy check makes, and its result."""
    shapes = []

    def counting(desc, a, b):
        shapes.append(np.shape(a))
        return eval_flux(desc, a, b)

    monkeypatch.setattr(splitfv.diagnostics, "eval_flux", counting)
    res = entropy_residual_max(dataclasses.replace(rec, fluxdesc=fluxdesc))
    monkeypatch.undo()
    return shapes, res


def rounding_gap(rec):
    """How far rounding can lift one residual of a step above another that
    is at least as large in exact arithmetic.

    Each residual is a sum of four terms, none larger than T, the sum of
    their bounds: 2 S for each |u - k| with S = max |u| + 1 (k lies within
    the data range +-1), 8 (dt/dx) L S for the difference of two entropy
    fluxes |G(a, b; k)| <= L (|a - k| + |b - k|), and dt max |g| for the
    source. Each is computed to within a few ulps of T, and two sums are
    compared, so the bound is 16 ulps of T.
    """
    data = np.concatenate([
        rec.field_before.values, rec.field_bar.values,
        rec.field_after.values, [rec.ghost_left, rec.ghost_right],
    ])
    size = float(np.max(np.abs(data))) + 1.0
    lipschitz = flux_lipschitz(rec.fluxdesc, -size, size)
    gsrc = rec.src.eval(rec.field_before.grid.cell_centers, rec.t_before,
                        rec.field_bar.values)
    terms = (4.0 * size
             + 8.0 * rec.dt / rec.field_before.grid.dx * lipschitz * size
             + rec.dt * float(np.max(np.abs(gsrc))))
    return 16.0 * np.finfo(float).eps * terms


def assert_dominates_dense_sweep(rec):
    """Exact supremum >= the maximum over 2001 evenly spaced k.

    The k values span the step's data range +-1, so they also probe between
    the state values, where the per-piece search must not miss anything.
    """
    data = np.concatenate([
        rec.field_before.values, rec.field_bar.values,
        rec.field_after.values, [rec.ghost_left, rec.ghost_right],
    ])
    k = np.linspace(data.min() - 1.0, data.max() + 1.0, 2001)
    dense = float(np.max(cell_residuals(rec, k[:, None])))
    exact = entropy_residual_max(rec)
    assert exact.max_residual >= dense - 1e-12, (
        rec.t_before, exact.max_residual, dense)
    return exact


class TestExpansionShock:
    def test_central_flux_is_caught(self):
        # Zero-viscosity averaging flux keeps the expansion shock frozen;
        # the residual at k = 0 is dt/dx * f(0 -> 1) = 0.25 here.
        rec = expansion_shock_record(lax_friedrichs(burgers_flux(), 0.0))
        assert_allclose(rec.field_after.values, rec.field_bar.values,
                        atol=1e-15)
        res = entropy_residual_max(rec)
        assert res.max_residual == pytest.approx(0.25, rel=1e-12)
        assert res.k_value == 0.0
        assert not res.passed
        # The violation lives strictly between the state values, so a
        # sampled k set only sees it when it reaches inside the jump.
        inside = float(np.max(cell_residuals(rec, 0.0)))
        assert inside == pytest.approx(0.25, rel=1e-12)

    def test_godunov_breaks_the_expansion_shock(self):
        rec = expansion_shock_record(godunov(burgers_flux()))
        assert np.max(np.abs(rec.field_after.values
                             - rec.field_bar.values)) > 0.1
        res = entropy_residual_max(rec)
        assert res.passed


class TestEntropyObserver:
    def test_observes_every_step_of_a_fixed_flux_run(self):
        obs = EntropyObserver()
        report = burgers_shock_run(observers=[obs])
        assert len(obs.results) == report.n_steps
        assert obs.passed
        assert obs.worst.max_residual <= obs.worst.tolerance

    def test_follows_the_per_step_flux_of_a_factory_run(self):
        scenario = preset_scenario("testcase1")
        obs = EntropyObserver()
        run_factory(scenario.model, scenario.initial_density,
                    time_axis=TimeAxis(1.0, dt_max=0.05),
                    grid=build_grid(0.0, 1.0, 40), observers=[obs])
        assert obs.results
        assert obs.passed

    def test_worst_requires_observations(self):
        with pytest.raises(ValueError, match="no steps"):
            EntropyObserver().worst


# =============================================================
# Stability envelopes
# =============================================================

class TestBoundCheckConfig:
    def test_envelope_rate(self):
        cfg = BoundCheckConfig(growth_const=0.03, dt_cap=0.1)
        assert_allclose(cfg.envelope_rate, 0.03 / 0.997, rtol=1e-15)
        assert BoundCheckConfig(growth_const=0.0, dt_cap=1.0).envelope_rate == 0.0

    @pytest.mark.parametrize("kwargs", [
        dict(growth_const=-0.1, dt_cap=0.1),
        dict(growth_const=0.1, dt_cap=0.0),
        dict(growth_const=0.5, dt_cap=2.0),
        dict(growth_const=0.1, dt_cap=0.1, source_tv_l1=-1.0),
    ])
    def test_rejects_bad_configs(self, kwargs):
        with pytest.raises(ValueError):
            BoundCheckConfig(**kwargs)


@pytest.fixture(scope="module")
def factory_run():
    scenario = preset_scenario("testcase1")
    report = run_factory(scenario.model, scenario.initial_density,
                         time_axis=TimeAxis(2.0, dt_max=0.05),
                         grid=build_grid(0.0, 1.0, 50))
    cfg = BoundCheckConfig(growth_const=0.03,
                           dt_cap=float(np.max(report.dts)))
    return report, cfg


class TestStabilityBounds:
    def test_linf_bound_holds(self, factory_run):
        report, cfg = factory_run
        res = check_linf_bound(report, cfg)
        assert res.passed
        assert res.name == "linf"
        assert len(res.margins) == len(report.times)
        # The influx ghost exceeds the initial interior norm here.
        assert res.reference > np.max(np.abs(report.final_field.values)) * 0.9

    def test_tv_bound_holds(self, factory_run):
        report, cfg = factory_run
        res = check_tv_bound(report, cfg)
        assert res.passed
        assert res.worst_margin >= 0.0 or res.passed

    def test_mutated_series_fails_the_linf_bound(self, factory_run):
        report, cfg = factory_run
        spoiled = [float(v) for v in report.linf]
        spoiled[-1] = spoiled[-1] * 10.0
        original = report.linf
        report.linf = spoiled
        try:
            assert not check_linf_bound(report, cfg).passed
        finally:
            report.linf = original

    def test_mutated_series_fails_the_tv_bound(self, factory_run):
        report, cfg = factory_run
        spoiled = [float(v) for v in report.tv_interior]
        spoiled[-1] = spoiled[-1] + 50.0
        original = report.tv_interior
        report.tv_interior = spoiled
        try:
            assert not check_tv_bound(report, cfg).passed
        finally:
            report.tv_interior = original

    def test_zero_step_run_has_a_flat_envelope(self):
        scenario = preset_scenario("testcase1")
        report = run_factory(scenario.model, scenario.initial_density,
                             time_axis=TimeAxis(0.0),
                             grid=build_grid(0.0, 1.0, 20))
        assert report.n_steps == 0
        cfg = BoundCheckConfig(growth_const=0.03, dt_cap=0.05)
        res = check_linf_bound(report, cfg)
        assert res.passed
        assert_allclose(res.bounds, res.reference)


# =============================================================
# Temporal variation report
# =============================================================

class TestTimeBVReport:
    @pytest.mark.parametrize("states", [[], [1.0, 2.0]])
    def test_needs_a_sequence_of_states(self, states):
        with pytest.raises(ValueError, match="states"):
            time_bv_report(states)

    def test_matches_a_direct_sum(self):
        states = []
        report = burgers_shock_run(
            observers=[lambda rec: states.append(rec.field_after.values)])
        states.insert(0, report.initial.values)
        bv = time_bv_report(states)
        snaps = np.asarray(states)
        assert bv.n_steps == report.n_steps
        assert_allclose(bv.per_cell,
                        np.sum(np.abs(np.diff(snaps, axis=0)), axis=0),
                        rtol=1e-15)
        assert bv.total_max == pytest.approx(np.max(bv.per_cell))
        # The inflow cell sees the decay pull plus the advected jump.
        assert bv.total_max > 0.1
