"""Tests for the manufacturing line model and its run driver."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splitfv import (
    CellField,
    FactoryModel,
    JammedLineError,
    TimeAxis,
    YieldLoss,
    as_source,
    build_grid,
    constant_yield_steady_state,
    eval_flux,
    linear_flux,
    outflux,
    preset_scenario,
    run_factory,
    steady_density,
    step_influx,
    transport_descriptor,
    upwind_linear,
    velocity,
    verify_source_properties,
    wip,
)


def unit_line(n_cells: int):
    return build_grid(0.0, 1.0, n_cells)


def basic_model(influx_rate: float = 2.016, rate: float = 0.0) -> FactoryModel:
    loss = YieldLoss.none() if rate == 0.0 else YieldLoss.constant(rate)
    return FactoryModel(v0=1.0, max_load=10.0,
                        influx=lambda t: influx_rate, yield_loss=loss)


# =============================================================
# Yield-loss profiles
# =============================================================

class TestYieldLoss:
    def test_none_is_zero_everywhere(self):
        loss = YieldLoss.none()
        x = np.linspace(0.0, 1.0, 7)
        assert np.all(loss.rate_at(x) == 0.0)
        assert loss.max_rate() == 0.0
        assert loss.rate_tv() == 0.0

    def test_constant_rate(self):
        loss = YieldLoss.constant(0.03)
        assert_allclose(loss.rate_at(np.array([0.0, 0.3, 1.0])), 0.03)
        assert loss.max_rate() == 0.03
        assert loss.rate_tv() == 0.0

    def test_piecewise_linear_interpolates(self):
        loss = YieldLoss.piecewise_linear(((0.0, 0.01), (0.5, 0.05), (1.0, 0.02)))
        assert_allclose(loss.rate_at(0.25), 0.03, rtol=1e-14)
        assert_allclose(loss.rate_at(0.75), 0.035, rtol=1e-14)
        # Outside the breakpoint span the end values are held constant.
        assert_allclose(loss.rate_at(np.array([-1.0, 2.0])), [0.01, 0.02])
        assert loss.max_rate() == 0.05
        assert_allclose(loss.rate_tv(), 0.07, rtol=1e-14)

    @pytest.mark.parametrize("bad", [
        lambda: YieldLoss("negative-exponential"),
        lambda: YieldLoss.constant(-0.1),
        lambda: YieldLoss.constant(np.nan),
        lambda: YieldLoss.piecewise_linear(((0.0, 0.1),)),
        lambda: YieldLoss.piecewise_linear(((0.5, 0.1), (0.5, 0.2))),
        lambda: YieldLoss.piecewise_linear(((0.0, 0.1), (1.0, -0.2))),
        lambda: YieldLoss.piecewise_linear(((0.0, np.inf), (1.0, 0.2))),
    ])
    def test_rejects_bad_profiles(self, bad):
        with pytest.raises(ValueError):
            bad()

    def test_as_source_is_a_proportional_sink(self):
        loss = YieldLoss.piecewise_linear(((0.0, 0.01), (0.5, 0.05), (1.0, 0.02)))
        src = as_source(loss, u_max=3.0)
        x = np.array([0.0, 0.5])
        u = np.array([2.0, 3.0])
        assert_allclose(src.func(x, 0.0, u), [-0.02, -0.15], rtol=1e-14)
        assert src.lipschitz_u == 0.05
        assert src.sup_at_zero == 0.0
        assert_allclose(src.tv_bound(0.0), 0.07 * 3.0, rtol=1e-14)
        with pytest.raises(ValueError):
            as_source(loss, u_max=-1.0)

    def test_as_source_passes_property_verification(self):
        loss = YieldLoss.piecewise_linear(((0.0, 0.01), (0.5, 0.05), (1.0, 0.02)))
        src = as_source(loss, u_max=3.5)
        report = verify_source_properties(
            src,
            x_probes=np.linspace(0.0, 1.0, 21),
            t_probes=np.array([0.0, 1.0]),
            u_probes=np.linspace(-3.5, 3.5, 15),
        )
        assert report.lipschitz_ok and report.tv_ok and report.growth_ok


# =============================================================
# State functions and steady states
# =============================================================

class TestStateFunctions:
    def test_wip_integrates_density(self):
        grid = unit_line(40)
        field = CellField(grid, 2.0 + np.sin(2.0 * np.pi * grid.cell_centers))
        # Midpoint sums integrate the sine exactly over the full period.
        assert_allclose(wip(field), 2.0, rtol=1e-13)

    def test_wip_rejects_other_domains(self):
        grid = build_grid(0.0, 2.0, 10)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            wip(CellField(grid, np.ones(10)))

    def test_velocity_is_linear_in_load_and_unclamped(self):
        model = basic_model()
        assert velocity(0.0, model) == 1.0
        assert_allclose(velocity(2.8, model), 0.72, rtol=1e-15)
        assert velocity(15.0, model) == pytest.approx(-0.5)

    def test_outflux_reads_last_cell(self):
        grid = unit_line(4)
        field = CellField(grid, np.array([1.0, 2.0, 3.0, 4.0]))
        assert outflux(field, 0.5) == pytest.approx(2.0)

    def test_steady_density_known_roots(self):
        model = basic_model()
        # 10 - sqrt(100 - 80.64) = 10 - 4.4 and 10 - sqrt(100 - 85.56) = 10 - 3.8.
        assert_allclose(steady_density(model, 2.016), 2.8, rtol=1e-13)
        assert_allclose(steady_density(model, 2.139), 3.1, rtol=1e-13)

    def test_steady_density_round_trips_through_the_velocity(self):
        model = basic_model()
        rng = np.random.default_rng(7)
        for rate in rng.uniform(0.1, 2.4, size=20):
            rho = steady_density(model, rate)
            assert_allclose(rho * velocity(rho, model), rate, rtol=1e-12)

    def test_steady_density_capacity_limit(self):
        model = basic_model()
        with pytest.raises(ValueError, match="capacity"):
            steady_density(model, 2.6)

    def test_step_influx_switches_at_the_jump(self):
        sched = step_influx(2.016, 2.139, jump_time=0.25)
        assert sched(0.0) == 2.016
        assert sched(0.2499) == 2.016
        assert sched(0.25) == 2.139
        assert sched(50.0) == 2.139


class TestConstantYieldSteadyState:
    def test_zero_rate_reduces_to_uniform_balance(self):
        state = constant_yield_steady_state(2.016, 0.0)
        assert_allclose(state.velocity, 0.72, rtol=1e-11)
        assert_allclose(state.wip, 2.8, rtol=1e-11)
        assert_allclose(state.outflux, 2.016, rtol=1e-11)
        assert_allclose(state.density(np.array([0.0, 1.0])), 2.8, rtol=1e-11)

    def test_documented_operating_point(self):
        state = constant_yield_steady_state(2.139, 0.03)
        assert_allclose(state.velocity, 0.7015171288988579, rtol=1e-9)
        assert_allclose(state.wip, 2.984828711011421, rtol=1e-9)
        assert_allclose(state.outflux, 2.049455138669657, rtol=1e-9)

    def test_state_is_self_consistent(self):
        state = constant_yield_steady_state(2.139, 0.03)
        v, w = state.velocity, state.wip
        # Speed law, load integral and exit rate close on themselves.
        assert_allclose(v, 1.0 * (1.0 - w / 10.0), rtol=1e-12)
        assert_allclose(w, 2.139 * (1.0 - math.exp(-0.03 / v)) / 0.03, rtol=1e-12)
        assert_allclose(state.outflux, v * state.density(1.0), rtol=1e-12)
        assert_allclose(state.density(0.0), 2.139 / v, rtol=1e-12)

    def test_rejects_bad_inputs_and_overload(self):
        with pytest.raises(ValueError):
            constant_yield_steady_state(0.0, 0.03)
        with pytest.raises(ValueError):
            constant_yield_steady_state(2.0, -0.01)
        with pytest.raises(ValueError, match="capacity"):
            constant_yield_steady_state(2.0, 0.03, v0=1.0, max_load=1.0)


# =============================================================
# Transport descriptor for the frozen speed
# =============================================================

class TestTransportDescriptor:
    def test_upwind_and_godunov_agree_for_linear_flux(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(0.0, 4.0, size=40)
        b = rng.uniform(0.0, 4.0, size=40)
        up = transport_descriptor(0.7, "upwind-linear")
        go = transport_descriptor(0.7, "godunov")
        assert_allclose(eval_flux(go, a, b), eval_flux(up, a, b), rtol=1e-14)

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="flux_kind"):
            transport_descriptor(0.7, "lax-friedrichs")

    @pytest.mark.parametrize("kind", ["upwind-linear", "godunov"])
    def test_descriptor_carries_the_kind_and_speed(self, kind):
        desc = transport_descriptor(0.7, kind)
        assert desc.kind == kind
        assert desc.physical.eval(2.0) == 0.7 * 2.0
        assert desc.physical.critical == ()
        assert desc.physical.linear

    def test_negative_upwind_speed_is_refused_as_before(self):
        # The same refusal as upwind_linear's, without its declaration check.
        with pytest.raises(ValueError) as expected:
            upwind_linear(linear_flux(-0.5))
        with pytest.raises(ValueError) as got:
            transport_descriptor(-0.5, "upwind-linear")
        assert str(got.value) == str(expected.value)
        assert str(got.value) == "upwind-linear requires speed >= 0, got -0.5"

    def test_zero_speed_is_accepted(self):
        desc = transport_descriptor(0.0, "upwind-linear")
        assert eval_flux(desc, 3.0, 1.0) == 0.0


# =============================================================
# Run driver
# =============================================================

class TestRunFactory:
    def test_uniform_initial_needs_a_grid(self):
        model = basic_model()
        with pytest.raises(ValueError, match="grid"):
            run_factory(model, 2.8, time_axis=TimeAxis(0.1))

    def test_channels_align_with_times(self):
        model = basic_model(2.016, rate=0.03)
        report = run_factory(model, 2.8, time_axis=TimeAxis(0.5, dt_max=0.05),
                             grid=unit_line(25))
        n = len(report.times)
        assert n == report.n_steps + 1
        for name in ("wip", "velocity", "influx", "outflux"):
            assert len(report.channels[name]) == n
        assert_allclose(report.channels["wip"][0], 2.8, rtol=1e-13)
        assert_allclose(report.channels["velocity"][0], 0.72, rtol=1e-13)
        assert report.channels["influx"][-1] == 2.016

    def test_per_step_mass_balance(self):
        scenario = preset_scenario("testcase2")
        src = as_source(scenario.model.yield_loss)
        records = []
        grid = unit_line(50)
        report = run_factory(scenario.model, scenario.initial_density,
                             time_axis=TimeAxis(0.8, dt_max=0.05),
                             grid=grid, observers=[records.append])
        assert len(records) == report.n_steps
        x = grid.cell_centers
        for rec in records:
            before = rec.field_before.values
            bar = rec.field_bar.values
            after = rec.field_after.values
            # Source stage: the implicit update balances the sink integral.
            gained = grid.dx * np.sum(bar - before)
            sunk = rec.dt * grid.dx * np.sum(src.func(x, rec.t_before, bar))
            assert_allclose(gained, sunk, atol=1e-10)
            # Transport stage: interior change equals the boundary flux gap.
            moved = grid.dx * np.sum(after - bar)
            assert_allclose(moved, -rec.dt * (rec.flux_right - rec.flux_left),
                            atol=1e-12)

    def test_left_flux_carries_the_influx_rate(self):
        model = basic_model(2.139, rate=0.03)
        records = []
        run_factory(model, 3.1, time_axis=TimeAxis(0.4, dt_max=0.02),
                    grid=unit_line(30), observers=[records.append])
        for rec in records:
            assert_allclose(rec.flux_left, 2.139, rtol=1e-12)

    def test_flux_kinds_give_identical_runs(self):
        model = basic_model(2.016, rate=0.03)
        kwargs = dict(time_axis=TimeAxis(0.3, dt_max=0.02),
                      grid=unit_line(20))
        rep_up = run_factory(model, 2.8, flux_kind="upwind-linear", **kwargs)
        rep_go = run_factory(model, 2.8, flux_kind="godunov", **kwargs)
        assert_allclose(rep_go.final_field.values, rep_up.final_field.values,
                        rtol=1e-13, atol=1e-14)

    def test_step_records_hold_read_only_arrays(self):
        scenario = preset_scenario("testcase2")
        records = []
        run_factory(scenario.model, scenario.initial_density, time_axis=TimeAxis(0.2, dt_max=0.05), grid=unit_line(20),
                    observers=[records.append])
        assert records
        for rec in records:
            for field in (rec.field_before, rec.field_bar, rec.field_after):
                assert not field.values.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    field.values[0] = 0.0

    # Final (WIP, outflux, sum of the final cell values) of 200-cell runs to
    # t = 20, recorded before run_factory shared one step path with run.
    RECORDED = {
        ("testcase1", "upwind-linear"):
            (2.984867691689747, 2.0496978650659186, 596.9735383379494),
        ("testcase1", "godunov"):
            (2.984867691689747, 2.0496978650659186, 596.9735383379494),
        ("testcase2", "upwind-linear"):
            (2.982043252944899, 2.0423066884717507, 596.4086505889798),
        ("testcase2", "godunov"):
            (2.982043252944899, 2.0423066884717507, 596.4086505889798),
    }

    @pytest.mark.parametrize("preset,flux_kind", sorted(RECORDED))
    def test_matches_recorded_outputs(self, preset, flux_kind):
        scenario = preset_scenario(preset)
        report = run_factory(scenario.model, scenario.initial_density,
                             time_axis=TimeAxis(20.0),
                             flux_kind=flux_kind, grid=unit_line(200))
        got = (report.channels["wip"][-1], report.channels["outflux"][-1],
               float(report.final_field.values.sum()))
        assert_allclose(got, self.RECORDED[(preset, flux_kind)], rtol=1e-12)

    def test_unknown_flux_kind_is_rejected(self):
        model = basic_model()
        with pytest.raises(ValueError, match="flux_kind"):
            run_factory(model, 2.8, time_axis=TimeAxis(0.1),
                        grid=unit_line(10), flux_kind="lax-friedrichs")

    def test_overloaded_line_jams(self):
        # Influx far above the capacity v0 * max_load / 4 = 0.25 must pile
        # load up to the limit and stop the run instead of dividing by a
        # vanishing speed.
        model = FactoryModel(v0=1.0, max_load=1.0,
                             influx=lambda t: 0.5,
                             yield_loss=YieldLoss.none())
        with pytest.raises(JammedLineError, match="jammed"):
            run_factory(model, 0.5, time_axis=TimeAxis(50.0, dt_max=0.1),
                        grid=unit_line(25))

    def test_relaxes_to_the_steady_operating_point(self):
        # Hold the post-jump influx and integrate long enough to settle.
        scenario = preset_scenario("testcase1")
        target = constant_yield_steady_state(2.139, 0.03)
        report = run_factory(scenario.model, scenario.initial_density,
                             time_axis=TimeAxis(30.0),
                             grid=unit_line(60))
        assert_allclose(report.channels["wip"][-1], target.wip, atol=5e-3)
        assert_allclose(report.channels["velocity"][-1], target.velocity,
                        atol=5e-3)
        assert_allclose(report.channels["outflux"][-1], target.outflux,
                        atol=5e-3)


# =============================================================
# Preset scenarios
# =============================================================

class TestPresets:
    def test_testcase1_configuration(self):
        scenario = preset_scenario("testcase1")
        model = scenario.model
        assert model.v0 == 1.0
        assert model.max_load == 10.0
        assert model.influx(-1.0) == 2.016
        assert model.influx(0.0) == 2.139
        assert model.yield_loss.kind == "constant-rate"
        assert model.yield_loss.rate == 0.03
        assert_allclose(scenario.initial_density, 2.8, rtol=1e-13)

    def test_testcase2_flags_the_stand_in_profile(self):
        scenario = preset_scenario("testcase2")
        assert scenario.model.yield_loss.kind == "piecewise-linear"
        assert scenario.notes
        assert any("stand-in" in note for note in scenario.notes)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_scenario("testcase9")
