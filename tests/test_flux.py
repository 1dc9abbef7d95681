"""Tests for physical fluxes, numerical fluxes and the CFL helper."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from splitfv import (
    CellField,
    FLUX_KINDS,
    FactoryModel,
    NumericalFluxDescriptor,
    PhysicalFlux,
    TimeAxis,
    YieldLoss,
    build_grid,
    burgers_flux,
    check_monotone,
    engquist_osher,
    eval_flux,
    flux_lipschitz,
    godunov,
    lax_friedrichs,
    linear_flux,
    max_dt,
    run_factory,
    step_influx,
    upwind_linear,
    zero_flux,
)
from splitfv.flux import _godunov_eval, critical_points


def cubic_flux() -> PhysicalFlux:
    """Nonconvex flux u^3/3 - u with interior critical points at -1 and 1."""
    return PhysicalFlux(
        func=lambda u: u ** 3 / 3.0 - u,
        deriv=lambda u: u ** 2 - 1.0,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(42)


# =============================================================
# Physical fluxes
# =============================================================

class TestPhysicalFlux:
    def test_linear(self):
        phys = linear_flux(0.72)
        assert phys.eval(2.0) == pytest.approx(1.44)
        assert phys.slope(5.0) == pytest.approx(0.72)
        assert phys.bound(-3.0, 2.0) == pytest.approx(0.72)

    def test_burgers(self):
        phys = burgers_flux()
        assert phys.eval(2.0) == pytest.approx(2.0)
        assert phys.slope(-1.5) == pytest.approx(-1.5)
        assert phys.bound(-1.0, 2.0) == pytest.approx(2.0)

    def test_zero(self):
        phys = zero_flux()
        assert phys.eval(3.0) == 0.0
        assert phys.bound(-5.0, 5.0) == 0.0

    def test_finite_difference_slope_fallback(self):
        phys = PhysicalFlux(func=lambda u: np.sin(u))
        assert phys.slope(0.3) == pytest.approx(np.cos(0.3), abs=1e-6)

    @pytest.mark.parametrize("make_phys", [
        lambda: linear_flux(0.0), lambda: linear_flux(0.72),
        lambda: linear_flux(-0.5), zero_flux,
    ], ids=["linear-0", "linear-0.72", "linear--0.5", "zero"])
    def test_linear_fluxes_declare_linear(self, make_phys):
        assert make_phys().linear is True

    @pytest.mark.parametrize("make_phys", [burgers_flux, cubic_flux],
                             ids=["burgers", "cubic"])
    def test_nonlinear_fluxes_do_not(self, make_phys):
        assert make_phys().linear is False

    def test_bound_without_declared_lipschitz_samples_derivative(self):
        phys = cubic_flux()
        # sup |u^2 - 1| over [-2, 2] is 3 (at the endpoints).
        assert phys.bound(-2.0, 2.0) == pytest.approx(3.0, rel=1e-6)


# =============================================================
# Descriptor construction
# =============================================================

class TestDescriptors:
    def test_kinds_registry(self):
        assert FLUX_KINDS == (
            "upwind-linear", "lax-friedrichs", "godunov", "engquist-osher"
        )

    def test_upwind_linear_rejects_nonlinear_flux(self):
        with pytest.raises(ValueError):
            upwind_linear(burgers_flux())

    def test_upwind_linear_rejects_negative_speed(self):
        with pytest.raises(ValueError):
            upwind_linear(linear_flux(-0.5))

    def test_upwind_linear_reads_the_declaration(self):
        # A linear flux that does not declare itself is refused, without
        # probing its values; declaring it is enough.
        undeclared = PhysicalFlux(func=lambda u: 0.72 * u)
        with pytest.raises(ValueError, match="declared linear"):
            upwind_linear(undeclared)
        desc = upwind_linear(dataclasses.replace(undeclared, linear=True))
        assert eval_flux(desc, 2.0, 5.0) == pytest.approx(1.44)

    def test_upwind_linear_accepts_zero_speed(self):
        assert upwind_linear(zero_flux()).kind == "upwind-linear"
        assert upwind_linear(linear_flux(0.0)).kind == "upwind-linear"

    def test_lax_friedrichs_rejects_negative_viscosity(self):
        with pytest.raises(ValueError):
            lax_friedrichs(burgers_flux(), -0.1)

    def test_descriptor_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            NumericalFluxDescriptor(kind="superbee", physical=burgers_flux())


# =============================================================
# Numerical flux values
# =============================================================

class TestGodunov:
    @pytest.mark.parametrize("a,b,expected", [
        (1.0, 0.0, 0.5),    # compressive: max of u^2/2 over [0, 1]
        (0.0, 1.0, 0.0),    # rarefaction: min over [0, 1]
        (-1.0, 1.0, 0.0),   # transonic rarefaction through the sonic point
        (1.0, 2.0, 0.5),    # supersonic rarefaction: min at the left state
        (-2.0, -1.0, 0.5),  # negative branch: min of u^2/2 on [-2, -1]
        (2.0, -2.0, 2.0),   # strong shock: max over [-2, 2]
    ])
    def test_burgers_values(self, a, b, expected):
        desc = godunov(burgers_flux())
        assert eval_flux(desc, a, b) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("lo,hi", [(-1.0, 1.0), (-0.5, 2.0), (-1.0, 2.0)])
    def test_burgers_critical_point_is_exactly_zero(self, lo, hi):
        # Bisection alone ends ~1e-26 off zero, on a side set by the range.
        assert critical_points(burgers_flux(), lo, hi) == [0.0]

    def test_matches_brute_force_on_nonconvex_flux(self, rng):
        desc = godunov(cubic_flux())
        phys = desc.physical
        grid = np.linspace(-2.0, 2.0, 20001)
        for a, b in rng.uniform(-2.0, 2.0, size=(40, 2)):
            got = eval_flux(desc, a, b)
            lo, hi = min(a, b), max(a, b)
            mask = (grid >= lo) & (grid <= hi)
            candidates = np.concatenate([grid[mask], [a, b]])
            values = phys.eval(candidates)
            expected = values.min() if a <= b else values.max()
            assert got == pytest.approx(expected, abs=1e-7)


class TestEngquistOsher:
    @pytest.mark.parametrize("a,b,expected", [
        (1.0, -1.0, 1.0),   # both characteristic families contribute
        (-1.0, 1.0, 0.0),   # transonic rarefaction
        (1.0, 2.0, 0.5),
        (2.0, -2.0, 4.0),   # differs from godunov inside the shock fan
    ])
    def test_burgers_closed_form(self, a, b, expected):
        desc = engquist_osher(burgers_flux())
        assert eval_flux(desc, a, b) == pytest.approx(expected, abs=1e-10)

    def test_burgers_random_pairs_match_closed_form(self, rng):
        # EO for Burgers: max(a, 0)^2/2 + min(b, 0)^2/2.
        desc = engquist_osher(burgers_flux())
        a = rng.uniform(-2.0, 2.0, 30)
        b = rng.uniform(-2.0, 2.0, 30)
        expected = np.maximum(a, 0.0) ** 2 / 2.0 + np.minimum(b, 0.0) ** 2 / 2.0
        assert_allclose(eval_flux(desc, a, b), expected, atol=1e-10)

    def test_nonconvex_flux_against_quadrature_oracle(self, rng):
        desc = engquist_osher(cubic_flux())
        deriv = lambda u: u ** 2 - 1.0
        f0 = desc.physical.eval(0.0)
        for a, b in rng.uniform(-2.0, 2.0, size=(15, 2)):
            ua = np.linspace(0.0, a, 40001)
            ub = np.linspace(0.0, b, 40001)
            pos = np.trapezoid(np.maximum(deriv(ua), 0.0), ua)
            neg = np.trapezoid(np.minimum(deriv(ub), 0.0), ub)
            expected = f0 + pos + neg
            assert eval_flux(desc, a, b) == pytest.approx(expected, abs=5e-7)


def quadrature_engquist_osher(phys: PhysicalFlux, a: float, b: float) -> float:
    """Engquist-Osher by adaptive quadrature of the parts of f', split at
    the critical points; a reference for the closed form."""
    quad = pytest.importorskip("scipy.integrate").quad
    f0 = phys.eval(0.0)

    def oriented(limit: float, part) -> float:
        if limit == 0.0:
            return 0.0
        lo, hi = min(0.0, limit), max(0.0, limit)
        pts = [c for c in critical_points(phys, lo, hi) if lo < c < hi] or None
        val, _ = quad(
            part, 0.0, limit, points=pts, limit=200, epsabs=1e-14, epsrel=1e-12,
            full_output=0,
        )
        return val

    pos = oriented(a, lambda s: max(phys.slope(s), 0.0))
    neg = oriented(b, lambda s: min(phys.slope(s), 0.0))
    return f0 + pos + neg


class TestEngquistOsherClosedForm:
    @pytest.mark.parametrize("make_phys", [
        lambda: linear_flux(0.72),
        burgers_flux,
        cubic_flux,
    ])
    def test_matches_quadrature_on_the_axiom_lattice(self, make_phys):
        phys = make_phys()
        s = np.linspace(-1.5, 1.5, 50)
        A, B = np.meshgrid(s, s, indexing="ij")
        got = eval_flux(engquist_osher(phys), A, B)
        expected = np.array([
            quadrature_engquist_osher(phys, a, b)
            for a, b in zip(A.ravel(), B.ravel())
        ]).reshape(A.shape)
        assert_allclose(got, expected, rtol=0.0, atol=1e-12)

    def test_one_critical_point_search_per_call(self, monkeypatch, rng):
        calls = []

        def counted(phys, lo, hi):
            calls.append((lo, hi))
            return critical_points(phys, lo, hi)

        monkeypatch.setattr("splitfv.flux.critical_points", counted)
        a = rng.uniform(0.5, 2.0, 40)
        b = rng.uniform(-2.0, -0.5, 40)
        eval_flux(engquist_osher(cubic_flux()), a, b)
        assert len(calls) == 1
        # The search spans both states and the origin.
        assert calls[0] == (float(b.min()), float(a.max()))


DECLARED_FLUXES = {
    "linear+": lambda: linear_flux(0.7),
    "linear-": lambda: linear_flux(-0.7),
    "burgers": burgers_flux,
}


FLAT_FLUXES = [lambda: linear_flux(0.0), zero_flux]


def scanned(phys: PhysicalFlux) -> PhysicalFlux:
    """The same flux with its critical points left to the search, and not
    declared linear, so that Godunov takes its extremum pass."""
    return dataclasses.replace(phys, critical=None, linear=False)


class TestDeclaredCriticalPoints:
    @pytest.mark.parametrize("name", sorted(DECLARED_FLUXES))
    @pytest.mark.parametrize("lo,hi", [
        (-1.0, 1.0),    # 0 inside
        (0.0, 2.0),     # 0 at lo
        (-2.0, 0.0),    # 0 at hi
        (0.5, 2.0),     # 0 outside, above
        (-2.0, -0.5),   # 0 outside, below
        (-1.0, 62.0),   # 0 on a node of the 64-point scan
        (-3.0, 60.0),   # 0 on another node
        (1.0, 1.0),     # empty bracket
        (0.0, 0.0),
        (2.0, -2.0),    # reversed bracket
    ])
    def test_declared_points_equal_the_scan(self, name, lo, hi):
        phys = DECLARED_FLUXES[name]()
        assert phys.critical is not None
        assert critical_points(phys, lo, hi) == critical_points(scanned(phys), lo, hi)

    @pytest.mark.parametrize("name", sorted(DECLARED_FLUXES))
    @pytest.mark.parametrize("make_desc", [godunov, engquist_osher])
    def test_fluxes_are_bitwise_equal_on_the_axiom_lattice(self, name, make_desc):
        phys = DECLARED_FLUXES[name]()
        s = np.linspace(-1.5, 1.5, 50)
        A, B = np.meshgrid(s, s, indexing="ij")
        got = eval_flux(make_desc(phys), A, B)
        expected = eval_flux(make_desc(scanned(phys)), A, B)
        assert got.tobytes() == expected.tobytes()

    def test_declared_flux_makes_no_slope_call(self, monkeypatch):
        calls = []
        slope = PhysicalFlux.slope

        def counted(self, u):
            calls.append(u)
            return slope(self, u)

        monkeypatch.setattr(PhysicalFlux, "slope", counted)
        for make_phys in DECLARED_FLUXES.values():
            critical_points(make_phys(), -1.0, 1.0)
        assert calls == []
        critical_points(cubic_flux(), -2.0, 2.0)
        assert calls

    @pytest.mark.parametrize("make_phys", FLAT_FLUXES)
    def test_flat_fluxes_declare_no_critical_points(self, make_phys):
        phys = make_phys()
        assert phys.critical == ()
        assert critical_points(phys, -1.0, 1.0) == []

    @pytest.mark.parametrize("make_phys", FLAT_FLUXES)
    @pytest.mark.parametrize("make_desc", [godunov, engquist_osher])
    def test_flat_fluxes_equal_the_scan_on_the_axiom_lattice(self, make_phys,
                                                             make_desc):
        # The scan finds 62 points where f' vanishes; f is constant there,
        # so they change nothing but the sign of a zero under Godunov.
        phys = make_phys()
        s = np.linspace(-1.5, 1.5, 50)
        A, B = np.meshgrid(s, s, indexing="ij")
        got = eval_flux(make_desc(phys), A, B)
        expected = eval_flux(make_desc(scanned(phys)), A, B)
        assert np.array_equal(got, expected)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(DECLARED_FLUXES)),
       st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
def test_declared_critical_points_match_the_scan_on_random_brackets(name, lo, hi):
    phys = DECLARED_FLUXES[name]()
    assert critical_points(phys, lo, hi) == critical_points(scanned(phys), lo, hi)


def line_interface_states():
    """Interface states (a, b) of every step of a line that starts empty and
    gets its influx from t = 0.1: zeros ahead of the fill front, both sides
    of it, and exact zeros on both sides before it."""
    model = FactoryModel(v0=1.0, max_load=10.0, influx=step_influx(0.0, 2.0, 0.1),
                         yield_loss=YieldLoss.constant(0.03))
    ext = []
    run_factory(model, 0.0, TimeAxis(0.5, dt_max=0.05),
                grid=build_grid(0.0, 1.0, 40),
                observers=[lambda rec: ext.append(np.concatenate(
                    ([rec.ghost_left], rec.field_bar.values,
                     [rec.ghost_right])))])
    ext = np.array(ext)
    return ext[:, :-1], ext[:, 1:]


class TestGodunovOnALinearFlux:
    @pytest.mark.parametrize("speed", [0.0, 1e-12, 0.72, 1.0])
    def test_upwind_route_equals_the_extremum_pass(self, speed):
        # With f(1) >= 0 eval_flux takes f(a) for Godunov; the extremum pass
        # gives the same floats (== does not see the sign of a zero).
        phys = linear_flux(speed)
        s = np.linspace(-1.5, 1.5, 50)
        lattice = np.meshgrid(s, s, indexing="ij")
        line = line_interface_states()
        assert (line[0] == 0.0).any() and (line[0] > 0.0).any()
        for a, b in (lattice, line):
            got = eval_flux(godunov(phys), a, b)
            assert np.array_equal(got, _godunov_eval(phys, a, b))
            assert np.array_equal(got, phys.eval(a))

    @pytest.mark.parametrize("phys,calls", [
        (linear_flux(0.72), 0),
        (linear_flux(0.0), 0),
        (linear_flux(-0.72), 1),
        (dataclasses.replace(linear_flux(0.72), linear=False), 1),
    ], ids=["forward", "speed-0", "backward", "undeclared"])
    def test_critical_point_calls(self, phys, calls, monkeypatch, rng):
        # Only the upwind route skips the search; a negative speed or a flux
        # not declared linear keeps one search per call.
        found = []

        def counted(phys, lo, hi):
            found.append((lo, hi))
            return critical_points(phys, lo, hi)

        monkeypatch.setattr("splitfv.flux.critical_points", counted)
        eval_flux(godunov(phys), rng.uniform(0.0, 3.0, 20),
                  rng.uniform(0.0, 3.0, 20))
        assert len(found) == calls


class TestLaxFriedrichs:
    def test_formula(self):
        desc = lax_friedrichs(burgers_flux(), viscosity=2.0)
        a, b = 1.0, -0.5
        expected = 0.5 * (0.5 + 0.125) - 1.0 * (b - a)
        assert eval_flux(desc, a, b) == pytest.approx(expected)

    def test_upwind_agrees_with_physical_on_left_state(self, rng):
        desc = upwind_linear(linear_flux(0.72))
        a = rng.uniform(-3.0, 3.0, 20)
        b = rng.uniform(-3.0, 3.0, 20)
        assert_allclose(eval_flux(desc, a, b), 0.72 * a, atol=1e-14)


class TestEvalFlux:
    @pytest.mark.parametrize("make_desc", [
        lambda: upwind_linear(linear_flux(1.0)),
        lambda: lax_friedrichs(burgers_flux(), 2.0),
        lambda: godunov(burgers_flux()),
        lambda: engquist_osher(burgers_flux()),
    ])
    def test_scalar_and_array_agree(self, make_desc, rng):
        desc = make_desc()
        a = rng.uniform(-1.5, 1.5, 7)
        b = rng.uniform(-1.5, 1.5, 7)
        arr = eval_flux(desc, a, b)
        scalars = [eval_flux(desc, float(ai), float(bi)) for ai, bi in zip(a, b)]
        assert_allclose(arr, scalars, atol=1e-14)

    def test_rejects_non_finite_states(self):
        desc = godunov(burgers_flux())
        with pytest.raises(ValueError):
            eval_flux(desc, np.nan, 1.0)
        with pytest.raises(ValueError):
            eval_flux(desc, np.array([1.0, np.inf]), np.array([0.0, 0.0]))


# =============================================================
# Flux axioms
# =============================================================

class TestAxioms:
    @pytest.mark.parametrize("make_desc", [
        lambda: upwind_linear(linear_flux(0.72)),
        lambda: lax_friedrichs(burgers_flux(), 2.0),
        lambda: godunov(burgers_flux()),
        lambda: godunov(cubic_flux()),
        lambda: engquist_osher(burgers_flux()),
        lambda: engquist_osher(cubic_flux()),
    ])
    def test_consistency_on_the_diagonal(self, make_desc, rng):
        desc = make_desc()
        u = rng.uniform(-1.8, 1.8, 50)
        assert_allclose(eval_flux(desc, u, u), desc.physical.eval(u), atol=1e-10)

    @pytest.mark.parametrize("make_desc", [
        lambda: upwind_linear(linear_flux(0.72)),
        lambda: lax_friedrichs(burgers_flux(), 2.0),
        lambda: godunov(burgers_flux()),
        lambda: godunov(cubic_flux()),
        lambda: engquist_osher(burgers_flux()),
    ])
    def test_monotonicity_lattice(self, make_desc):
        report = check_monotone(make_desc(), (-1.5, 1.5))
        assert report.passed, (report.worst_drop_in_a, report.worst_rise_in_b)

    def test_central_flux_is_not_monotone(self):
        # Negative control: zero-viscosity lax-friedrichs is the central
        # average, which rises in its second argument.
        report = check_monotone(lax_friedrichs(burgers_flux(), 0.0), (0.5, 1.5))
        assert not report.passed
        assert report.worst_rise_in_b > 1e-3


# =============================================================
# Lipschitz constants and the CFL step
# =============================================================

class TestLipschitzAndMaxDt:
    def test_linear_lipschitz(self):
        assert flux_lipschitz(upwind_linear(linear_flux(0.72)), 0.0, 5.0) \
            == pytest.approx(0.72)

    def test_burgers_lipschitz_uses_range(self):
        desc = godunov(burgers_flux())
        assert flux_lipschitz(desc, -1.0, 2.0) == pytest.approx(2.0)
        assert flux_lipschitz(desc, -3.0, 2.0) == pytest.approx(3.0)

    def test_lax_friedrichs_includes_viscosity(self):
        desc = lax_friedrichs(linear_flux(1.0), viscosity=3.0)
        assert flux_lipschitz(desc, 0.0, 1.0) == pytest.approx(3.0)

    def test_max_dt_on_documented_example(self):
        # Burgers data with values in [0, 2] on dx = 0.01 has sup|f'| = 2,
        # so the unit-CFL step is 0.005.
        grid = build_grid(0.0, 1.0, 100)
        values = np.linspace(0.0, 2.0, 100)
        field = CellField(grid, values)
        desc = godunov(burgers_flux())
        assert max_dt(desc, field, cfl_number=1.0) == pytest.approx(0.005)
        assert max_dt(desc, field, cfl_number=0.9) == pytest.approx(0.0045)

    def test_max_dt_respects_cap(self):
        grid = build_grid(0.0, 1.0, 10)
        field = CellField(grid, np.full(10, 0.001))
        desc = godunov(burgers_flux())
        assert max_dt(desc, field, 0.9, dt_cap=0.25) == pytest.approx(0.25)

    def test_max_dt_degenerate_flux_returns_cap(self):
        grid = build_grid(0.0, 1.0, 10)
        field = CellField(grid, np.zeros(10))
        desc = godunov(zero_flux())
        assert max_dt(desc, field, 0.9, dt_cap=0.125) == pytest.approx(0.125)

    def test_max_dt_rejects_bad_cfl(self):
        grid = build_grid(0.0, 1.0, 10)
        field = CellField(grid, np.ones(10))
        with pytest.raises(ValueError):
            max_dt(godunov(burgers_flux()), field, cfl_number=2.0)
