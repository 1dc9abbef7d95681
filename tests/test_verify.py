"""Tests for the exact-solution problems and the refinement study."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splitfv import (
    advection_decay_problem,
    build_grid,
    burgers_rarefaction_problem,
    burgers_shock_problem,
    exact_advection_decay,
    l1_distance,
    project_initial,
    rankine_hugoniot_shock,
    refinement_study,
    shock_position,
    solve_on_grid,
)


# =============================================================
# Closed-form solutions
# =============================================================

class TestExactAdvectionDecay:
    def test_constant_data_reduces_to_pure_decay(self):
        x = np.linspace(0.0, 1.0, 5)
        out = exact_advection_decay(x, 1.0, speed=0.72, rate=0.03,
                                    u0=lambda x: np.full_like(x, 2.8))
        assert_allclose(out, 2.717247493935823, rtol=1e-15)

    def test_translates_and_scales_the_profile(self):
        def u0(x):
            return 2.0 + np.sin(2.0 * np.pi * np.asarray(x))

        x = np.array([0.1, 0.4, 0.9])
        t = 0.25
        out = exact_advection_decay(x, t, speed=0.72, rate=0.03, u0=u0)
        assert_allclose(out, u0(x - 0.72 * t) * np.exp(-0.03 * t), rtol=1e-14)

    def test_zero_time_returns_initial_data(self):
        x = np.linspace(-1.0, 1.0, 9)
        out = exact_advection_decay(x, 0.0, speed=1.0, rate=0.5,
                                    u0=lambda x: x ** 2)
        assert_allclose(out, x ** 2, rtol=1e-15)


class TestRankineHugoniotShock:
    def test_shock_travels_at_the_mean_speed(self):
        profile = rankine_hugoniot_shock(1.0, 0.0, x0=0.0, t=0.5)
        # The jump sits at 0.5 * (1 + 0) * 0.5 = 0.25.
        assert_allclose(profile(np.array([0.2499, 0.2501])), [1.0, 0.0])

    def test_initial_step(self):
        profile = rankine_hugoniot_shock(1.0, 0.0, x0=0.25, t=0.0)
        assert_allclose(profile(np.array([0.0, 0.3])), [1.0, 0.0])

    def test_fan_interpolates_between_the_states(self):
        profile = rankine_hugoniot_shock(0.0, 1.0, x0=0.25, t=0.5)
        assert_allclose(profile(0.25 + 0.2 * 0.5), 0.2, rtol=1e-14)
        # Outside the fan the constant states hold.
        assert_allclose(profile(np.array([0.0, 1.0])), [0.0, 1.0])

    def test_equal_states_stay_constant(self):
        profile = rankine_hugoniot_shock(0.7, 0.7, x0=0.0, t=1.0)
        assert_allclose(profile(np.linspace(-1.0, 1.0, 7)), 0.7)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="t must be"):
            rankine_hugoniot_shock(1.0, 0.0, x0=0.0, t=-0.1)


# =============================================================
# Problem definitions
# =============================================================

class TestProblemDefinitions:
    def test_fluxdesc_dispatch(self):
        for kind in ("upwind-linear", "lax-friedrichs", "godunov",
                     "engquist-osher"):
            problem = advection_decay_problem(flux_kind=kind)
            assert problem.fluxdesc().kind == kind

    def test_unknown_flux_kind(self):
        problem = advection_decay_problem(flux_kind="roe")
        with pytest.raises(ValueError, match="unknown flux kind"):
            problem.fluxdesc()

    def test_shock_problem_needs_a_compressive_jump(self):
        with pytest.raises(ValueError, match="u_left > u_right"):
            burgers_shock_problem(0.2, 0.8)

    def test_rarefaction_problem_needs_an_expansive_jump(self):
        with pytest.raises(ValueError, match="u_left < u_right"):
            burgers_rarefaction_problem(1.0, 0.0)

    def test_initial_matches_exact_at_time_zero(self):
        problem = burgers_shock_problem()
        x = np.linspace(problem.x_min, problem.x_max, 33)
        assert_allclose(problem.initial(x), problem.exact(x, 0.0))


# =============================================================
# Single-grid solves
# =============================================================

class TestSolveOnGrid:
    def test_advection_decay_tracks_the_exact_solution(self):
        problem = advection_decay_problem()
        final, report, entropy_max = solve_on_grid(problem, 128)
        exact = project_initial(lambda x: problem.exact(x, problem.t_final),
                                final.grid)
        assert l1_distance(final, exact) < 5e-3
        assert report.n_steps > 0
        assert entropy_max is not None and entropy_max <= 1e-12

    def test_entropy_check_can_be_skipped(self):
        problem = advection_decay_problem(t_final=0.1)
        _, _, entropy_max = solve_on_grid(problem, 32, entropy_check=False)
        assert entropy_max is None

    def test_shock_lands_within_two_cells(self):
        problem = burgers_shock_problem()
        final, _, entropy_max = solve_on_grid(problem, 100)
        assert abs(shock_position(final) - 0.25) <= 2.0 * final.grid.dx
        assert entropy_max <= 1e-12

    def test_rarefaction_opens_into_a_fan(self):
        problem = burgers_rarefaction_problem()
        final, _, _ = solve_on_grid(problem, 100)
        fan = project_initial(
            lambda x: problem.exact(x, problem.t_final), final.grid,
        )
        # The non-entropic alternative keeps the jump and moves it at the
        # mean speed; its L1 distance from the fan is t (du)^2 / 4 = 0.125.
        frozen_jump = project_initial(
            lambda x: np.where(x < 0.25 + 0.5 * problem.t_final, 0.0, 1.0),
            final.grid,
        )
        assert l1_distance(final, fan) < 0.02
        assert l1_distance(final, frozen_jump) > 0.08

    def test_monotone_data_stays_inside_its_range(self):
        problem = burgers_shock_problem()
        final, _, _ = solve_on_grid(problem, 64)
        assert np.all(final.values >= -1e-12)
        assert np.all(final.values <= 1.0 + 1e-12)


# =============================================================
# Refinement studies
# =============================================================

class TestRefinementStudy:
    def test_advection_converges_at_first_order(self):
        result = refinement_study(advection_decay_problem(), base_cells=50,
                                  n_levels=3)
        assert result.problem_name == "advection-decay"
        assert len(result.levels) == 3
        assert len(result.orders) == 2
        assert all(order >= 0.8 for order in result.orders)
        assert result.finest_error == result.levels[-1].l1_error
        for level in result.levels:
            assert level.runtime_seconds >= 0.0
            assert level.entropy_max <= 1e-12

    def test_engquist_osher_passes_the_exact_entropy_check(self):
        result = refinement_study(
            advection_decay_problem(flux_kind="engquist-osher"),
            base_cells=25, n_levels=3, entropy_check=True,
        )
        assert [lv.n_cells for lv in result.levels] == [25, 50, 100]
        for level in result.levels:
            assert level.entropy_max is not None
            assert level.entropy_max <= 1e-12

    def test_rarefaction_error_shrinks_under_refinement(self):
        result = refinement_study(burgers_rarefaction_problem(),
                                  base_cells=50, n_levels=2)
        assert result.orders[0] >= 0.5

    def test_grid_doubling(self):
        result = refinement_study(advection_decay_problem(t_final=0.1),
                                  base_cells=10, n_levels=3,
                                  entropy_check=False)
        assert [lv.n_cells for lv in result.levels] == [10, 20, 40]
        assert all(lv.entropy_max is None for lv in result.levels)

    def test_needs_two_levels(self):
        with pytest.raises(ValueError, match="levels"):
            refinement_study(advection_decay_problem(), n_levels=1)


class TestShockPosition:
    def test_reads_the_largest_jump_edge(self):
        grid = build_grid(0.0, 1.0, 10)
        values = np.where(grid.cell_centers < 0.3, 1.0, 0.0)
        from splitfv import CellField

        assert shock_position(CellField(grid, values)) == pytest.approx(0.3)
