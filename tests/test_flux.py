"""Tests for physical fluxes, numerical fluxes and the CFL helper."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from splitfv import (
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
        # |u^2 - 1| is largest at an end of [lo, hi], or 1 at u = 0.
        lipschitz_on=lambda lo, hi: max(abs(lo * lo - 1.0), abs(hi * hi - 1.0),
                                        1.0 if lo <= 0.0 <= hi else 0.0),
        critical=(-1.0, 1.0),
    )


# Each flux under test with its f' and the exact zeros of f'. The package
# declares critical points and bounds but no derivative, so the oracles
# below take f' and its zeros from this table.
FLUXES = {
    "linear+": (lambda: linear_flux(0.7), lambda u: 0.7 + 0.0 * u, ()),
    "linear-": (lambda: linear_flux(-0.7), lambda u: -0.7 + 0.0 * u, ()),
    "burgers": (burgers_flux, lambda u: u, (0.0,)),
    "cubic": (cubic_flux, lambda u: u * u - 1.0, (-1.0, 1.0)),
}
# Fluxes of zero slope: constant, so they declare no critical points.
FLAT_FLUXES = {"linear-0": lambda: linear_flux(0.0), "zero": zero_flux}


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
        assert phys.lipschitz_on(-3.0, 2.0) == pytest.approx(0.72)

    def test_burgers(self):
        phys = burgers_flux()
        assert phys.eval(2.0) == pytest.approx(2.0)
        assert phys.lipschitz_on(-1.0, 2.0) == pytest.approx(2.0)

    def test_zero(self):
        phys = zero_flux()
        assert phys.eval(3.0) == 0.0
        assert phys.lipschitz_on(-5.0, 5.0) == 0.0

    def test_bound_and_critical_points_are_required(self):
        with pytest.raises(TypeError, match="lipschitz_on"):
            PhysicalFlux(func=lambda u: u, critical=())
        with pytest.raises(TypeError, match="critical"):
            PhysicalFlux(func=lambda u: u, lipschitz_on=lambda lo, hi: 1.0)
        with pytest.raises(TypeError):
            PhysicalFlux(func=lambda u: u)

    @pytest.mark.parametrize("critical", [
        (1.0, -1.0), (0.0, 0.0), (float("nan"),), (-float("inf"), 1.0),
        [-1.0, 1.0], None, (0,),
    ], ids=["decreasing", "repeated", "nan", "infinite", "list", "none", "int"])
    def test_malformed_critical_points_are_refused(self, critical):
        # Engquist-Osher sums the changes of f along [lo, c_1, ..., hi] in
        # the order declared, so a flux declaring them out of order is
        # refused rather than given a wrong flux.
        with pytest.raises(ValueError, match="strictly increasing"):
            dataclasses.replace(cubic_flux(), critical=critical)

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

    @pytest.mark.parametrize("c", [0.0, 0.72, -0.5, 1.0 / 3.0])
    def test_linear_flux_speed_is_f_of_one(self, c):
        phys = linear_flux(c)
        assert phys.speed == phys.eval(1.0)
        assert type(phys.speed) is float

    def test_speed_is_none_unless_declared_linear(self):
        assert burgers_flux().speed is None
        assert zero_flux().speed == 0.0
        assert dataclasses.replace(linear_flux(0.72), linear=False).speed is None

    def test_cubic_declares_its_bound(self):
        phys = cubic_flux()
        # sup |u^2 - 1| over [-2, 2] is 3 (at the endpoints); over
        # [-0.5, 0.5] it is 1 (at 0).
        assert phys.lipschitz_on(-2.0, 2.0) == 3.0
        assert phys.lipschitz_on(-0.5, 0.5) == 1.0

    @pytest.mark.parametrize("name", sorted(FLUXES) + sorted(FLAT_FLUXES))
    @pytest.mark.parametrize("lo,hi", [
        (-2.0, 2.0), (-0.5, 0.5), (0.5, 2.0), (-3.0, -1.5), (1.0, 1.0),
    ])
    def test_declared_bound_reaches_the_slope_on_a_dense_lattice(self, name, lo, hi):
        if name in FLUXES:
            make_phys, deriv, _ = FLUXES[name]
        else:
            make_phys, deriv = FLAT_FLUXES[name], lambda u: 0.0 * u
        s = np.linspace(lo, hi, 10001)
        assert make_phys().lipschitz_on(lo, hi) >= np.abs(deriv(s)).max()


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
        undeclared = PhysicalFlux(func=lambda u: 0.72 * u,
                                  lipschitz_on=lambda lo, hi: 0.72, critical=())
        with pytest.raises(ValueError, match="declared linear"):
            upwind_linear(undeclared)
        desc = upwind_linear(dataclasses.replace(undeclared, linear=True))
        assert eval_flux(desc, 2.0, 5.0) == pytest.approx(1.44)

    def test_upwind_linear_accepts_zero_speed(self):
        assert upwind_linear(zero_flux()).kind == "upwind-linear"
        assert upwind_linear(linear_flux(0.0)).kind == "upwind-linear"

    def test_upwind_linear_is_refused_however_the_descriptor_is_built(self):
        # The descriptor checks its own kind, so building it directly or
        # swapping the flux of a checked one goes through the same refusals.
        with pytest.raises(ValueError) as nonlinear:
            NumericalFluxDescriptor("upwind-linear", burgers_flux())
        assert str(nonlinear.value) == (
            "upwind-linear requires a flux declared linear "
            "(PhysicalFlux(..., linear=True), f(u) = c*u)")
        with pytest.raises(ValueError) as negative:
            NumericalFluxDescriptor("upwind-linear", linear_flux(-0.5))
        assert str(negative.value) == "upwind-linear requires speed >= 0, got -0.5"
        with pytest.raises(ValueError) as swapped:
            dataclasses.replace(upwind_linear(linear_flux(1.0)),
                                physical=linear_flux(-1.0))
        assert str(swapped.value) == "upwind-linear requires speed >= 0, got -1.0"

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


def quadrature_engquist_osher(name: str, a: float, b: float) -> float:
    """Engquist-Osher for the flux `name` of FLUXES by adaptive quadrature
    of the parts of its f', split at the zeros of f'; a reference for the
    closed form."""
    quad = pytest.importorskip("scipy.integrate").quad
    make_phys, deriv, zeros = FLUXES[name]
    f0 = make_phys().eval(0.0)

    def oriented(limit: float, part) -> float:
        if limit == 0.0:
            return 0.0
        lo, hi = min(0.0, limit), max(0.0, limit)
        pts = [c for c in zeros if lo < c < hi] or None
        val, _ = quad(
            part, 0.0, limit, points=pts, limit=200, epsabs=1e-14, epsrel=1e-12,
            full_output=0,
        )
        return val

    pos = oriented(a, lambda s: max(deriv(s), 0.0))
    neg = oriented(b, lambda s: min(deriv(s), 0.0))
    return f0 + pos + neg


class TestEngquistOsherClosedForm:
    @pytest.mark.parametrize("name", ["linear+", "burgers", "cubic"])
    def test_matches_quadrature_on_the_axiom_lattice(self, name):
        phys = FLUXES[name][0]()
        s = np.linspace(-1.5, 1.5, 50)
        A, B = np.meshgrid(s, s, indexing="ij")
        got = eval_flux(engquist_osher(phys), A, B)
        expected = np.array([
            quadrature_engquist_osher(name, a, b)
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


BRACKETS = [
    (-1.0, 1.0),    # 0 inside; -1 and 1 at the ends
    (-2.0, 2.0),    # -1, 0 and 1 inside
    (-0.5, 0.5),    # 0 inside, -1 and 1 outside
    (0.0, 2.0),     # 0 at lo
    (-2.0, 0.0),    # 0 at hi
    (0.5, 2.0),     # 0 outside, above
    (-2.0, -0.5),   # 0 outside, below
    (-1.0, 62.0),   # wide brackets
    (-3.0, 60.0),
    (1.0, 1.0),     # empty bracket
    (0.0, 0.0),
    (2.0, -2.0),    # reversed bracket
]


def extremum_pass(phys: PhysicalFlux) -> PhysicalFlux:
    """The same flux not declared linear, so that Godunov takes its
    extremum pass over the declared critical points."""
    return dataclasses.replace(phys, linear=False)


class TestDeclaredCriticalPoints:
    @pytest.mark.parametrize("name", sorted(FLUXES))
    @pytest.mark.parametrize("lo,hi", BRACKETS)
    def test_declared_points_equal_the_exact_zeros(self, name, lo, hi):
        make_phys, deriv, zeros = FLUXES[name]
        assert not deriv(np.array(zeros)).any()
        assert critical_points(make_phys(), lo, hi) == [z for z in zeros if lo < z < hi]

    @pytest.mark.parametrize("name", sorted(FLUXES))
    @pytest.mark.parametrize("make_desc", [godunov, engquist_osher])
    def test_fluxes_are_bitwise_equal_on_the_axiom_lattice(self, name, make_desc):
        phys = FLUXES[name][0]()
        s = np.linspace(-1.5, 1.5, 50)
        A, B = np.meshgrid(s, s, indexing="ij")
        got = eval_flux(make_desc(phys), A, B)
        expected = eval_flux(make_desc(extremum_pass(phys)), A, B)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", sorted(FLAT_FLUXES))
    @pytest.mark.parametrize("lo,hi", BRACKETS)
    def test_flat_fluxes_declare_no_critical_points(self, name, lo, hi):
        # f' vanishes everywhere, but f is constant: no point is needed.
        phys = FLAT_FLUXES[name]()
        assert phys.critical == ()
        assert critical_points(phys, lo, hi) == []

    @pytest.mark.parametrize("name", sorted(FLAT_FLUXES))
    @pytest.mark.parametrize("make_desc", [godunov, engquist_osher])
    def test_flat_fluxes_equal_the_extremum_pass_on_the_axiom_lattice(
            self, name, make_desc):
        # f is constant, so the pass changes nothing but the sign of a zero
        # under Godunov.
        phys = FLAT_FLUXES[name]()
        s = np.linspace(-1.5, 1.5, 50)
        A, B = np.meshgrid(s, s, indexing="ij")
        got = eval_flux(make_desc(phys), A, B)
        expected = eval_flux(make_desc(extremum_pass(phys)), A, B)
        assert np.array_equal(got, expected)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(FLUXES)),
       st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
def test_declared_critical_points_match_the_exact_zeros_on_random_brackets(
        name, lo, hi):
    make_phys, _, zeros = FLUXES[name]
    assert critical_points(make_phys(), lo, hi) == [z for z in zeros if lo < z < hi]


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
        with pytest.raises(ValueError):
            eval_flux(desc, np.array([1.0, 0.0]), np.array([0.0, np.nan]))

    @pytest.mark.parametrize("make_desc", [
        lambda: upwind_linear(linear_flux(0.72)),
        lambda: godunov(linear_flux(0.72)),
    ], ids=["upwind-linear", "godunov"])
    def test_upwind_route_checks_only_the_state_it_reads(self, make_desc):
        # F(a, b) is f(a): a non-finite b never reaches the flux, and a
        # non-finite a is still refused.
        desc = make_desc()
        a = np.array([1.0, 2.0])
        assert_array_equal(eval_flux(desc, a, np.array([0.0, np.inf])),
                           0.72 * a)
        with pytest.raises(ValueError, match="non-finite"):
            eval_flux(desc, np.array([1.0, np.nan]), a)


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
        values = np.linspace(0.0, 2.0, 100)
        desc = godunov(burgers_flux())
        assert max_dt(desc, values, 0.01, cfl_number=1.0) == pytest.approx(0.005)
        assert max_dt(desc, values, 0.01, cfl_number=0.9) == pytest.approx(0.0045)

    def test_max_dt_respects_cap(self):
        desc = godunov(burgers_flux())
        assert max_dt(desc, np.full(10, 0.001), 0.1, 0.9,
                      dt_cap=0.25) == pytest.approx(0.25)

    def test_max_dt_degenerate_flux_returns_cap(self):
        desc = godunov(zero_flux())
        assert max_dt(desc, np.zeros(10), 0.1, 0.9,
                      dt_cap=0.125) == pytest.approx(0.125)

    def test_max_dt_widens_the_range_to_the_ghosts(self):
        # A ghost outside the field's values raises sup|f'| for the step.
        values = np.linspace(0.0, 1.0, 100)
        desc = godunov(burgers_flux())
        assert max_dt(desc, values, 0.01, 1.0,
                      ghosts=(0.5, 2.0)) == pytest.approx(0.005)
        assert max_dt(desc, values, 0.01, 1.0,
                      ghosts=(-4.0, 0.0)) == pytest.approx(0.0025)
        assert max_dt(desc, values, 0.01, 1.0, ghosts=(0.2, 0.9)) \
            == max_dt(desc, values, 0.01, 1.0)

    def test_max_dt_rejects_bad_cfl(self):
        with pytest.raises(ValueError):
            max_dt(godunov(burgers_flux()), np.ones(10), 0.1, cfl_number=2.0)
