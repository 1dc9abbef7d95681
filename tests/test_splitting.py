"""Tests for boundary filling, the split step and the run driver."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splitfv import (
    BoundarySpec,
    CellField,
    CFLViolationError,
    JammedLineError,
    NumericalFluxDescriptor,
    PhysicalFlux,
    SourceDescriptor,
    TimeAxis,
    build_grid,
    burgers_flux,
    fill_ghosts,
    godunov,
    linear_flux,
    linf_norm,
    march,
    preset_scenario,
    proportional_decay,
    run,
    run_factory,
    step,
    total_variation,
    transport_stage,
    upwind_linear,
    zero_flux,
    zero_source,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def make_field(values, x_min=0.0, x_max=1.0, time=0.0):
    values = np.asarray(values, dtype=float)
    return CellField(build_grid(x_min, x_max, values.size), values, time=time)


# =============================================================
# Boundary handling
# =============================================================

class TestBoundaries:
    def test_dirichlet_pair(self):
        bc = BoundarySpec.dirichlet_pair(lambda t: 2.0 + t, 0.5)
        values = np.ones(3)
        assert fill_ghosts(values, bc, bc.values_at(3.0)) == (5.0, 0.5)

    def test_outflow_copies_last_cell(self):
        bc = BoundarySpec.dirichlet_outflow(1.0)
        values = np.array([1.0, 2.0, 7.0])
        assert fill_ghosts(values, bc, bc.values_at(0.0)) == (1.0, 7.0)

    def test_influx_divides_by_velocity(self):
        bc = BoundarySpec.influx_outflow(lambda t: 2.016)
        values = np.full(2, 2.8)
        gl, gr = fill_ghosts(values, bc, bc.values_at(0.0), linear_flux(0.72))
        assert gl == pytest.approx(2.8)
        assert gr == pytest.approx(2.8)

    def test_influx_requires_velocity(self):
        bc = BoundarySpec.influx_outflow(2.0)
        with pytest.raises(ValueError):
            fill_ghosts(np.ones(2), bc, bc.values_at(0.0))

    def test_influx_refuses_a_flux_not_declared_linear(self):
        bc = BoundarySpec.influx_outflow(2.0)
        edge = bc.values_at(0.0)
        with pytest.raises(ValueError, match="declared linear"):
            fill_ghosts(np.ones(2), bc, edge, burgers_flux())
        undeclared = PhysicalFlux(func=lambda u: 0.5 * u,
                                  lipschitz_on=lambda lo, hi: 0.5, critical=())
        with pytest.raises(ValueError, match="declared linear"):
            fill_ghosts(np.ones(2), bc, edge, undeclared)

    def test_influx_jams_at_vanishing_velocity(self):
        bc = BoundarySpec.influx_outflow(2.0)
        with pytest.raises(JammedLineError):
            fill_ghosts(np.ones(2), bc, bc.values_at(0.0), linear_flux(1e-12))

    def test_invalid_kinds_rejected(self):
        with pytest.raises(ValueError):
            BoundarySpec("periodic", "outflow", lambda t: 0.0)
        with pytest.raises(ValueError):
            BoundarySpec("dirichlet", "dirichlet", lambda t: 0.0)


# =============================================================
# Transport stage
# =============================================================

class TestTransportStage:
    def test_unit_courant_upwind_is_an_exact_shift(self, rng):
        # With c dt / dx = 1 the upwind update moves every value one cell
        # to the right, so the scheme reproduces the exact solution.
        values = rng.uniform(0.0, 2.0, 16)
        dx = 1.0 / 16
        c = 0.5
        dt = dx / c
        after, f_left, f_right = transport_stage(
            values, dt, dx, upwind_linear(linear_flux(c)), 3.25, 0.0
        )
        expected = np.concatenate([[3.25], values[:-1]])
        assert_allclose(after, expected, atol=1e-13)
        assert not after.flags.writeable
        assert f_left == pytest.approx(c * 3.25)
        assert f_right == pytest.approx(c * values[-1])

    def test_refuses_dt_above_hard_cfl_limit(self):
        values = np.linspace(0.0, 2.0, 10)
        dx = 0.1
        desc = godunov(burgers_flux())
        with pytest.raises(CFLViolationError):
            transport_stage(values, 1.01 * dx / 2.0, dx, desc, 0.0, 2.0)
        transport_stage(values, 0.99 * dx / 2.0, dx, desc, 0.0, 2.0)

    def test_ghosts_enter_the_cfl_range(self):
        # Interior values are small but a large ghost raises the Lipschitz
        # constant, so the same dt becomes inadmissible.
        values = np.full(10, 0.1)
        dx = 0.1
        dt = 0.9 * dx / 0.1
        desc = godunov(burgers_flux())
        transport_stage(values, dt, dx, desc, 0.1, 0.1)
        with pytest.raises(CFLViolationError):
            transport_stage(values, dt, dx, desc, 5.0, 0.1)

    def test_a_linear_flux_is_refused_above_its_speed_limit(self):
        # A linear flux has one Lipschitz constant, |f(1)|, whatever the
        # values, so the guard reads only the ghosts' range.
        values = np.linspace(0.0, 50.0, 10)
        dx = 0.1
        desc = upwind_linear(linear_flux(2.0))
        with pytest.raises(CFLViolationError):
            transport_stage(values, 1.01 * dx / 2.0, dx, desc, 0.0, 0.0)
        transport_stage(values, 0.99 * dx / 2.0, dx, desc, 0.0, 0.0)

    def test_conservation_identity(self, rng):
        # The update only moves mass through the two boundary interfaces.
        values = rng.uniform(-1.0, 1.0, 32)
        dx = 1.0 / 32
        dt = 0.9 * dx / 1.0
        after, f_left, f_right = transport_stage(
            values, dt, dx, godunov(burgers_flux()), 0.3, -0.2
        )
        mass_change = dx * (after.sum() - values.sum())
        assert mass_change == pytest.approx(dt * (f_left - f_right), abs=1e-12)


# =============================================================
# Combined step
# =============================================================

class TestStep:
    def test_source_then_transport_ordering(self):
        # With unit Courant shift, cell 0 must receive the ghost and cell 1
        # the decayed pre-step value of cell 0: the source acts first.
        field = make_field([2.0, 4.0])
        dx = field.grid.dx
        c = 1.0
        dt = dx / c
        rate = 0.5
        rec = step(field, dt, upwind_linear(linear_flux(c)),
                   proportional_decay(rate), BoundarySpec.dirichlet_pair(9.0, 0.0))
        decayed = 2.0 / (1.0 + rate * dt)
        assert_allclose(rec.field_bar.values,
                        np.array([2.0, 4.0]) / (1.0 + rate * dt), rtol=1e-12)
        assert rec.field_after.values[0] == pytest.approx(9.0)
        assert rec.field_after.values[1] == pytest.approx(decayed, rel=1e-12)

    def test_record_carries_the_step_wiring(self):
        field = make_field([1.0, 1.0, 1.0])
        desc = upwind_linear(linear_flux(1.0))
        src = zero_source()
        rec = step(field, 0.1, desc, src, BoundarySpec.dirichlet_pair(1.0, 1.0))
        assert rec.fluxdesc is desc
        assert rec.src is src
        assert rec.t_before == 0.0
        assert rec.dt == pytest.approx(0.1)
        assert (rec.ghost_left, rec.ghost_right) == (1.0, 1.0)

    def test_rejects_nonpositive_dt(self):
        field = make_field([1.0, 1.0])
        with pytest.raises(ValueError):
            step(field, 0.0, upwind_linear(linear_flux(1.0)), zero_source(),
                 BoundarySpec.dirichlet_pair(1.0, 1.0))


# =============================================================
# Run driver
# =============================================================

def collect_states(states):
    """Observer appending every step's resulting values to `states`."""
    return lambda rec: states.append(rec.field_after.values)


def shock_run(n_cells=64, t_final=0.4, checkpoint_times=(), **kwargs):
    grid = build_grid(0.0, 1.0, n_cells)
    values = np.where(grid.cell_centers < 0.3, 1.0, 0.0)
    initial = CellField(grid, values)
    axis = TimeAxis(t_final=t_final, dt_max=0.05, cfl_number=0.9)
    return run(initial, godunov(burgers_flux()), zero_source(),
               BoundarySpec.dirichlet_pair(1.0, 0.0), axis,
               checkpoint_times=checkpoint_times, **kwargs)


class TestRun:
    def test_dt_is_sized_over_the_ghosts_the_guard_checks(self):
        # The decay pulls the field below the right Dirichlet ghost 1.0; a
        # dt sized over the field alone then fails the transport stage's
        # CFL guard, which checks the ghosts too.
        grid = build_grid(-0.5, 0.5, 40)
        initial = CellField(grid, np.where(grid.cell_centers < 0.0, 0.0, 1.0))
        report = run(initial, godunov(burgers_flux()), proportional_decay(0.5),
                     BoundarySpec.dirichlet_pair(0.0, 1.0),
                     TimeAxis(0.3, dt_max=0.05))
        assert report.times[-1] == pytest.approx(0.3, abs=1e-12)
        assert report.n_steps == 14
        # L = 1 at the ghost, so each full step is 0.9 dx.
        assert max(report.dts) == pytest.approx(0.9 * grid.dx, rel=1e-12)

    def test_dt_is_sized_for_the_post_source_stencil(self):
        # g = 2u raises the state within the source stage, and Burgers
        # transport then runs faster than the pre-source field allows; dt
        # sized over that field alone fails the transport stage's CFL guard.
        grid = build_grid(0.0, 1.0, 40)
        growth = SourceDescriptor(lambda x, t, u: 2.0 * u, 2.0, 0.0,
                                  lambda t: 0.0, linear=True)
        report = run(CellField(grid, np.ones(40)), godunov(burgers_flux()),
                     growth, BoundarySpec.dirichlet_outflow(1.0),
                     TimeAxis(0.3, dt_max=0.05, cfl_number=1.0))
        assert report.times[-1] == pytest.approx(0.3, abs=1e-12)
        assert report.n_steps == 17
        assert max(report.linf) > 1.8

    @pytest.mark.parametrize("rate, dt_max, n_steps", [
        (20.0, 0.1, 21),   # dt at the contraction limit, dt L = 1 - 1e-9
        (18.0, 0.05, 20),  # dt L = 0.9
    ])
    def test_a_decaying_source_keeps_the_field_s_dt(self, rate, dt_max,
                                                     n_steps):
        # Decay moves each state toward 0, inside the field's own range, so
        # Burgers transport runs no faster after it: every full step is the
        # field's CFL step under the caps, as if the source had no reach.
        grid = build_grid(0.0, 1.0, 40)
        report = run(CellField(grid, np.full(40, 0.1)),
                     godunov(burgers_flux()), proportional_decay(rate),
                     BoundarySpec.dirichlet_outflow(0.0), TimeAxis(1.0, dt_max))
        dt = min(dt_max, (1.0 - 1e-9) / rate)
        assert report.n_steps == n_steps
        assert report.dts[:-1] == pytest.approx([dt] * (n_steps - 1),
                                                rel=1e-12)

    def test_zero_flux_under_a_source_takes_the_step_cap(self):
        # No transport speed at any state: the source's reach limits nothing.
        grid = build_grid(0.0, 1.0, 10)
        growth = SourceDescriptor(lambda x, t, u: 2.0 * u, 2.0, 0.0,
                                  lambda t: 0.0, linear=True)
        report = run(CellField(grid, np.ones(10)), godunov(zero_flux()),
                     growth, BoundarySpec.dirichlet_outflow(1.0),
                     TimeAxis(0.3, dt_max=0.05))
        assert report.dts == pytest.approx([0.05] * 6, rel=1e-12)

    @pytest.mark.parametrize("make_desc", [
        lambda: NumericalFluxDescriptor("upwind-linear", burgers_flux()),
        lambda: NumericalFluxDescriptor("upwind-linear", linear_flux(-0.5)),
        lambda: dataclasses.replace(upwind_linear(linear_flux(1.0)),
                                    physical=linear_flux(-1.0)),
    ], ids=["burgers", "negative-speed", "replaced-flux"])
    def test_no_step_under_a_non_monotone_upwind_descriptor(self, make_desc):
        grid = build_grid(0.0, 1.0, 20)
        steps = []
        with pytest.raises(ValueError, match="upwind-linear requires"):
            run(CellField(grid, np.full(20, 0.5)), make_desc(), zero_source(),
                BoundarySpec.dirichlet_outflow(0.5), TimeAxis(0.1),
                observers=[steps.append])
        assert steps == []

    def test_lands_exactly_on_final_and_checkpoint_times(self):
        report = shock_run(checkpoint_times=(0.0, 0.1537, 0.4))
        assert report.times[-1] == pytest.approx(0.4, abs=1e-12)
        assert set(report.checkpoints) == {0.0, 0.1537, 0.4}
        assert_allclose(report.checkpoints[0.4], report.final_field.values)
        # the checkpoint landed on an actual accepted time
        assert min(abs(t - 0.1537) for t in report.times) <= 1e-12

    def test_series_alignment(self):
        report = shock_run()
        n = report.n_steps
        assert len(report.times) == n + 1
        assert len(report.linf) == n + 1
        assert len(report.tv) == n + 1
        assert len(report.dts) == n
        assert len(report.ghost_left) == n
        assert len(report.ghost_right) == n

    def test_shock_run_is_total_variation_stable(self):
        report = shock_run()
        assert report.tv[0] == pytest.approx(1.0)
        assert max(report.tv) <= report.tv[0] + 1e-12

    def test_monotone_profile_stays_monotone(self):
        states = []
        report = shock_run(observers=[collect_states(states)])
        for snap in [report.initial.values] + states:
            assert np.all(np.diff(snap) <= 1e-14)

    def test_snapshots_opt_in(self):
        # The report keeps no per-step states; an observer collects them.
        assert not hasattr(shock_run(), "snapshots")
        states = []
        report = shock_run(observers=[collect_states(states)])
        assert len(states) == report.n_steps
        assert states[-1] is report.final_field.values

    def test_decay_run_tracks_exact_exponential(self):
        # Uniform data, uniform inflow: transport is the identity and the
        # run reduces to backward-Euler decay with first-order accuracy.
        grid = build_grid(0.0, 1.0, 8)
        initial = CellField(grid, np.full(8, 2.8))
        axis = TimeAxis(t_final=1.0, dt_max=1e-3, cfl_number=0.9)

        def inflow(t):
            return 2.8 * np.exp(-0.03 * t)

        report = run(initial, upwind_linear(linear_flux(1.0)),
                     proportional_decay(0.03),
                     BoundarySpec.dirichlet_pair(inflow, 0.0), axis)
        assert report.final_field.values[-1] == pytest.approx(
            2.8 * np.exp(-0.03), abs=5e-4)

    def test_stiff_sink_keeps_dt_under_the_contraction_limit(self):
        # dt_max = 0.1 alone would give 20 dt = 2; the source stage needs
        # 20 dt < 1. Transport is the identity, so every cell is its initial
        # value times the backward-Euler product of 1 / (1 + 20 dt).
        rate = 20.0
        grid = build_grid(0.0, 1.0, 6)
        values = np.linspace(0.5, 3.0, 6)
        axis = TimeAxis(t_final=1.0, dt_max=0.1, cfl_number=0.9)
        report = run(CellField(grid, values), godunov(zero_flux()),
                     proportional_decay(rate),
                     BoundarySpec.dirichlet_outflow(0.0), axis)
        assert report.times[-1] == pytest.approx(1.0, abs=1e-12)
        assert all(rate * dt < 1.0 for dt in report.dts)
        factor = np.prod([1.0 / (1.0 + rate * dt) for dt in report.dts])
        # The source solve meets an absolute tolerance of 1e-12 per step.
        assert_allclose(report.final_field.values, values * factor, rtol=0.0,
                        atol=report.n_steps * 1e-12)

    def test_influx_boundary_reads_the_speed_of_a_linear_flux(self):
        # Uniform data at density rate / c: the ghost equals the cells, so
        # the upwind update leaves the field unchanged.
        grid = build_grid(0.0, 1.0, 8)
        axis = TimeAxis(t_final=0.5, dt_max=0.1, cfl_number=0.9)
        report = run(CellField(grid, np.full(8, 2.8)),
                     upwind_linear(linear_flux(0.72)), zero_source(),
                     BoundarySpec.influx_outflow(2.016), axis)
        assert_allclose(report.ghost_left, 2.8, rtol=1e-15)
        assert_allclose(report.final_field.values, 2.8, rtol=1e-14)

    @pytest.mark.parametrize("t_final", [np.inf, np.nan])
    def test_march_refuses_a_non_finite_horizon(self, t_final):
        # Both returned a report with no step and no error; pick_dt stops a
        # march that starts stepping toward a horizon it cannot reach.
        proposals = []

        def pick_dt(u, t, edge, report):
            proposals.append(t)
            if len(proposals) > 10:
                raise AssertionError("march kept stepping")
            return 0.1

        with pytest.raises(ValueError, match="t_final"):
            march(make_field([1.0, 1.0]), t_final, pick_dt, zero_source(),
                  BoundarySpec.dirichlet_pair(1.0, 1.0),
                  lambda bar: upwind_linear(linear_flux(1.0)))
        assert proposals == []

    def test_rejects_t_final_before_start(self):
        grid = build_grid(0.0, 1.0, 4)
        initial = CellField(grid, np.ones(4), time=2.0)
        axis = TimeAxis(t_final=1.0)
        with pytest.raises(ValueError):
            run(initial, upwind_linear(linear_flux(1.0)), zero_source(),
                BoundarySpec.dirichlet_pair(1.0, 1.0), axis)

    @pytest.mark.parametrize("cfl_number", [1.0, 0.9])
    def test_unit_courant_keeps_empty_cells_nonnegative(self, cfl_number):
        # At a Courant number of exactly 1, upwind rounding turned empty
        # cells to -4.4e-16; dt keeps a 1e-9 relative margin under the limit,
        # and a cfl_number below 1 is taken as given.
        grid = build_grid(0.0, 1.0, 10)
        initial = CellField(grid, np.where(grid.cell_centers < 0.5, 1.0, 0.0))
        axis = TimeAxis(t_final=1.0, dt_max=1.0, cfl_number=cfl_number)
        states = []
        report = run(initial, upwind_linear(linear_flux(0.7)),
                     zero_source(), BoundarySpec.dirichlet_pair(0.0, 0.0),
                     axis, observers=[collect_states(states)])
        assert min(float(snap.min())
                   for snap in [report.initial.values] + states) >= 0.0
        expected = min(cfl_number, 1.0 - 1e-9) * grid.dx / 0.7
        assert report.dts[0] == expected

    def test_observers_see_every_step(self):
        seen = []
        report = shock_run(observers=(lambda rec: seen.append(rec.dt),))
        assert len(seen) == report.n_steps
        assert_allclose(seen, report.dts)


# =============================================================
# Step records
# =============================================================

RECORD_FIELDS = ("field_before", "field_bar", "field_after")


def line_run(observers=()):
    scenario = preset_scenario("testcase2")
    return run_factory(scenario.model, scenario.initial_density,
                       TimeAxis(t_final=0.5), observers=observers,
                       checkpoint_times=(0.0, 0.25, 0.5),
                       grid=build_grid(0.0, 1.0, 50))


def report_series(report):
    return (report.times, report.dts, report.linf, report.tv,
            report.tv_interior, report.ghost_left, report.ghost_right,
            report.channels,
            {t: v.tolist() for t, v in report.checkpoints.items()},
            report.final_field.values.tolist())


class TestStepRecord:
    @pytest.mark.parametrize("make_run", [line_run, shock_run],
                             ids=["line", "burgers-shock"])
    def test_reading_every_field_leaves_the_run_unchanged(self, make_run):
        # The fields are built on first read; building them must not touch
        # the arrays the run goes on with.
        def read_all(rec):
            for name in RECORD_FIELDS:
                field = getattr(rec, name)
                linf_norm(field), total_variation(field), field.values.sum()
            rec.t_after, rec.u_before, rec.u_bar, rec.u_after

        plain = make_run()
        read = make_run(observers=[read_all])
        assert report_series(read) == report_series(plain)

    def test_fields_are_read_only_and_built_once(self):
        records = []
        report = line_run(observers=[records.append])
        assert len(records) == report.n_steps > 2
        for rec in records:
            for name in RECORD_FIELDS:
                field = getattr(rec, name)
                assert getattr(rec, name) is field
                assert not field.values.flags.writeable
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(rec, name, field)
            assert rec.field_before.values is rec.u_before
            assert rec.field_before.time == rec.t_before
            assert rec.field_bar.values is rec.u_bar
            assert rec.field_bar.time == rec.t_before
            assert rec.field_after.values is rec.u_after
            assert rec.field_after.time == rec.t_after
            for array in (rec.u_before, rec.u_bar, rec.u_after):
                assert not array.flags.writeable
        # Consecutive records hold two fields on one array: no copy.
        assert records[0].field_before.values is report.initial.values
        for before, after in zip(records, records[1:]):
            assert before.field_after.values is after.field_before.values
        assert report.final_field is records[-1].field_after

    def test_a_run_builds_no_field_per_step(self, monkeypatch):
        # Without a reader, the states stay arrays: the final field is the
        # one field the report builds, and only when it is read.
        adopted = []
        adopt = CellField.adopt.__func__
        monkeypatch.setattr(CellField, "adopt", classmethod(
            lambda cls, *args: adopted.append(1) or adopt(cls, *args)))
        report = line_run()
        assert report.n_steps > 2 and adopted == []
        assert report.final_field is report.final_field
        assert len(adopted) == 1
