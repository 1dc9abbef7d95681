"""Tests for the implicit source stage and source property verification."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splitfv import source as source_module
from splitfv import (
    SourceDescriptor,
    SourceSolveError,
    YieldLoss,
    as_source,
    implicit_source_step,
    proportional_decay,
    verify_source_properties,
    zero_source,
)


def counted(src: SourceDescriptor) -> tuple[SourceDescriptor, list[int]]:
    """Wrap a descriptor so every evaluation of g is counted."""
    calls = [0]

    def func(x, t, u):
        calls[0] += 1
        return src.func(x, t, u)

    wrapped = SourceDescriptor(
        func=func,
        lipschitz_u=src.lipschitz_u,
        sup_at_zero=src.sup_at_zero,
        tv_bound=src.tv_bound,
    )
    return wrapped, calls


class TestDescriptor:
    def test_growth_constant_defaults_to_declared_data(self):
        src = SourceDescriptor(
            func=lambda x, t, u: 0.2 - 0.5 * u,
            lipschitz_u=0.5,
            sup_at_zero=0.2,
            tv_bound=lambda t: 0.0,
        )
        assert src.growth_const == pytest.approx(0.5)

    def test_growth_constant_is_derived_not_declared(self):
        with pytest.raises(TypeError):
            SourceDescriptor(func=lambda x, t, u: u, lipschitz_u=1.0,
                             sup_at_zero=0.0, tv_bound=lambda t: 0.0,
                             growth_const=2.0)

    def test_rejects_negative_constants(self):
        with pytest.raises(ValueError):
            SourceDescriptor(func=lambda x, t, u: u, lipschitz_u=-1.0,
                             sup_at_zero=0.0, tv_bound=lambda t: 0.0)
        with pytest.raises(ValueError):
            proportional_decay(-0.1)


class TestImplicitStep:
    def test_zero_source_is_identity_in_one_evaluation(self):
        src, calls = counted(zero_source())
        u = np.array([1.0, -2.0, 0.5])
        w = implicit_source_step(u, np.zeros(3), 0.0, 0.1, src)
        assert_allclose(w, u, atol=0.0)
        assert calls[0] == 1

    def test_proportional_decay_closed_form(self):
        # Backward Euler for g = -r u gives w = u / (1 + r dt).
        src = proportional_decay(0.03)
        u = np.array([2.8, 3.1, 0.0, -1.2])
        w = implicit_source_step(u, np.zeros(4), 0.0, 0.25, src)
        assert_allclose(w, u / (1.0 + 0.03 * 0.25), rtol=1e-12)

    def test_scalar_input_returns_scalar(self):
        w = implicit_source_step(2.0, 0.0, 0.0, 0.5, proportional_decay(0.1))
        assert isinstance(w, float)
        assert w == pytest.approx(2.0 / 1.05, rel=1e-12)

    def test_residual_meets_tolerance_for_nonlinear_source(self):
        src = SourceDescriptor(
            func=lambda x, t, u: -np.sin(u),
            lipschitz_u=1.0,
            sup_at_zero=0.0,
            tv_bound=lambda t: 0.0,
        )
        u = np.linspace(-2.0, 2.0, 11)
        dt = 0.5
        w = implicit_source_step(u, np.zeros(11), 0.0, dt, src)
        residual = np.abs(w - u - dt * src.eval(np.zeros(11), 0.0, w))
        assert residual.max() <= 1e-12

    def test_space_and_time_dependence_reaches_each_cell(self):
        src = SourceDescriptor(
            func=lambda x, t, u: -(x + t) * u,
            lipschitz_u=2.0,
            sup_at_zero=0.0,
            tv_bound=lambda t: 0.0,
        )
        x = np.array([0.0, 0.5, 1.0])
        u = np.full(3, 4.0)
        t, dt = 0.5, 0.1
        w = implicit_source_step(u, x, t, dt, src)
        assert_allclose(w, 4.0 / (1.0 + (x + t) * dt), rtol=1e-12)

    def test_rejects_non_contractive_dt(self):
        with pytest.raises(ValueError):
            implicit_source_step(1.0, 0.0, 0.0, 2.0, proportional_decay(0.5))

    @pytest.mark.parametrize("dt", [0.0, -0.1, np.nan])
    def test_rejects_bad_dt(self, dt):
        with pytest.raises(ValueError):
            implicit_source_step(1.0, 0.0, 0.0, dt, zero_source())


class TestBracketedRescue:
    def test_understated_lipschitz_still_solves(self):
        # The declared constant lets dt pass the contraction gate, but the
        # true slope makes the fixed point diverge; the bracketed fallback
        # must still find the backward-Euler root w = u / (1 + 5 dt).
        src = SourceDescriptor(
            func=lambda x, t, u: -5.0 * u,
            lipschitz_u=0.9,
            sup_at_zero=0.0,
            tv_bound=lambda t: 0.0,
        )
        w = implicit_source_step(1.0, 0.0, 0.0, 1.0, src)
        assert w == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_divergence_to_overflow_is_rescued(self):
        # The plain iteration overflows to inf within the iteration budget;
        # the fallback still has to deliver the root.
        src = SourceDescriptor(
            func=lambda x, t, u: -1e4 * u,
            lipschitz_u=0.5,
            sup_at_zero=0.0,
            tv_bound=lambda t: 0.0,
        )
        w = implicit_source_step(np.array([2.0]), np.zeros(1), 0.0, 1.0, src)
        assert_allclose(w, [2.0 / 10001.0], rtol=1e-9)

    def test_rootless_update_raises(self):
        # w = u + dt w^2 has no real root for 4 dt u > 1, so no declared
        # constant can make the solve succeed.
        src = SourceDescriptor(
            func=lambda x, t, u: u ** 2,
            lipschitz_u=0.1,
            sup_at_zero=0.0,
            tv_bound=lambda t: 0.0,
        )
        with pytest.raises(SourceSolveError):
            implicit_source_step(1.0, 0.0, 0.0, 1.0, src)

    def test_mixed_array_rescues_only_hard_cells(self):
        src = SourceDescriptor(
            func=lambda x, t, u: np.where(x > 0.5, -6.0 * u, -0.1 * u),
            lipschitz_u=0.2,
            sup_at_zero=0.0,
            tv_bound=lambda t: 0.0,
        )
        x = np.array([0.0, 1.0])
        w = implicit_source_step(np.array([1.0, 1.0]), x, 0.0, 1.0, src)
        assert_allclose(w, [1.0 / 1.1, 1.0 / 7.0], rtol=1e-10)

    def test_near_the_contraction_limit_matches_brentq(self, monkeypatch):
        # With lipschitz_u * dt = 0.999 the fixed point crawls, so every
        # cell falls to the bisection rescue.
        brentq = pytest.importorskip("scipy.optimize").brentq
        rate, dt = 2.0, 0.999 / 2.0
        src = SourceDescriptor(
            func=lambda x, t, u: -rate * np.tanh(u),
            lipschitz_u=rate,
            sup_at_zero=0.0,
            tv_bound=lambda t: 0.0,
        )
        rescued = []
        rescue = source_module._bracketed_rescue

        def counted(*args):
            rescued.append(args[1])
            return rescue(*args)

        monkeypatch.setattr(source_module, "_bracketed_rescue", counted)
        u = np.array([0.05, 0.3, -0.4, 1.0])
        w = implicit_source_step(u, np.zeros(4), 0.0, dt, src)
        assert rescued == list(u)
        expected = [
            brentq(lambda v: v - u0 + dt * rate * np.tanh(v), u0 - 2.0, u0 + 2.0,
                   xtol=1e-14, rtol=4 * np.finfo(float).eps)
            for u0 in u
        ]
        assert_allclose(w, expected, rtol=0.0, atol=1e-14)


LINEAR_SINKS = {
    "zero": zero_source,
    "decay": lambda: proportional_decay(0.03),
    "line-none": lambda: as_source(YieldLoss.none()),
    "line-constant": lambda: as_source(YieldLoss.constant(0.03)),
    "line-piecewise": lambda: as_source(YieldLoss.piecewise_linear(
        ((0.0, 0.01), (0.5, 0.05), (1.0, 0.02)))),
}


def counted_eval(src: SourceDescriptor) -> tuple[SourceDescriptor, list[int]]:
    """The same descriptor, linear declaration included, with g counted."""
    calls = [0]

    def func(x, t, u):
        calls[0] += 1
        return src.func(x, t, u)

    return dataclasses.replace(src, func=func), calls


class TestLinearSink:
    @pytest.mark.parametrize("name", sorted(LINEAR_SINKS))
    def test_shipped_sinks_declare_linearity(self, name):
        assert LINEAR_SINKS[name]().linear

    @pytest.mark.parametrize("name", sorted(LINEAR_SINKS))
    @pytest.mark.parametrize("fraction", [1e-3, 0.1, 0.5, 0.7])
    def test_matches_the_undeclared_solve_bitwise(self, name, fraction):
        src = LINEAR_SINKS[name]()
        # A fraction of the contraction cap 1 / lipschitz_u; sinks without
        # a cap take dt = 100 * fraction.
        cap = 1.0 / src.lipschitz_u if src.lipschitz_u > 0.0 else 100.0
        dt = fraction * cap
        rng = np.random.default_rng(7)
        x = np.sort(rng.uniform(0.0, 1.0, 64))
        u = rng.uniform(0.0, 5.0, 64)
        got = implicit_source_step(u, x, 0.3, dt, src)
        expected = implicit_source_step(
            u, x, 0.3, dt, dataclasses.replace(src, linear=False))
        assert got.tobytes() == expected.tobytes()
        scalar = implicit_source_step(2.5, 0.4, 0.3, dt, src)
        assert scalar == implicit_source_step(
            2.5, 0.4, 0.3, dt, dataclasses.replace(src, linear=False))

    @pytest.mark.parametrize("name", sorted(LINEAR_SINKS))
    def test_one_evaluation_per_solve(self, name):
        src, calls = counted_eval(LINEAR_SINKS[name]())
        x = np.linspace(0.0, 1.0, 32)
        implicit_source_step(np.full(32, 2.0), x, 0.0, 0.5, src)
        assert calls[0] == 1
        implicit_source_step(np.full(32, 3.0), x, 0.5, 0.5, src)
        assert calls[0] == 2

    def test_contraction_limit_takes_the_closed_form(self, monkeypatch):
        # At lipschitz_u * dt = 1 - 1e-9 the fixed point oscillates without
        # converging; a linear sink needs no bisection for that.
        rescued = []
        rescue = source_module._bracketed_rescue

        def counted(*args):
            rescued.append(args[1])
            return rescue(*args)

        monkeypatch.setattr(source_module, "_bracketed_rescue", counted)
        rate = 5.0
        dt = (1.0 - 1e-9) / rate
        src = as_source(YieldLoss.constant(rate))
        u = np.linspace(0.0, 2.0, 10)
        x = np.linspace(0.05, 0.95, 10)
        w = implicit_source_step(u, x, 0.0, dt, src)
        assert rescued == []
        assert_allclose(w, u / (1.0 + rate * dt), rtol=1e-15)
        assert np.abs(w - u + dt * rate * w).max() <= 1e-12
        undeclared = implicit_source_step(
            u, x, 0.0, dt, dataclasses.replace(src, linear=False))
        assert len(rescued) == 9  # every cell but the empty one
        assert_allclose(w, undeclared, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("q,iterates", [
        (1.0 - 1e-9, False), (0.8, False), (0.7, True), (3e-4, True),
    ])
    def test_iterates_only_where_the_budget_can_settle(self, q, iterates,
                                                       monkeypatch):
        # The iteration shrinks the error by up to q = lipschitz_u * dt a
        # pass, so 100 passes settle it only when q^100 <= 1e-12, below
        # q = 0.7586. Above that a linear sink takes the closed form with
        # no pass; at the source-stage dt limit all 100 used to run first.
        solves = []
        iterate = source_module._fixed_point

        def counted(*args):
            w, converged = iterate(*args)
            solves.append(converged)
            return w, converged

        monkeypatch.setattr(source_module, "_fixed_point", counted)
        rate = 20.0
        dt = q / rate
        u = np.linspace(0.0, 2.0, 200)
        x = np.linspace(0.0, 1.0, 200)
        w = implicit_source_step(u, x, 0.0, dt, proportional_decay(rate))
        # Where it iterates, the passes settle every cell within 100.
        assert solves == ([True] if iterates else [])
        assert np.abs(w - u + dt * rate * w).max() <= 1e-12


def reference_solve(u, x, t, dt, src):
    """implicit_source_step's solve written with a new array per operation
    and a copy of u, as it was before the buffered iteration; the
    validation is left out."""
    u0 = np.array(u, dtype=float, ndmin=1)
    xx = np.asarray(x, dtype=float)
    if xx.shape != u0.shape:
        xx = np.broadcast_to(xx, u0.shape)
    if src.linear:
        slope = np.asarray(src.eval(xx, t, 1.0), dtype=float)

        def g(w):
            return slope * w
    else:
        def g(w):
            return np.asarray(src.eval(xx, t, w), dtype=float)

    w, converged = u0.copy(), False
    if not (src.linear and (src.lipschitz_u * dt) ** 100 > 1e-12):
        with np.errstate(all="ignore"):
            for _ in range(100):
                w_next = u0 + dt * g(w)
                change = np.abs(w_next - w).max()
                if change <= 1e-12:
                    converged = True
                    break
                if not math.isfinite(change) and not np.isfinite(w_next).all():
                    w = w_next
                    break
                w = w_next
    if not converged:
        def unsolved(w):
            with np.errstate(all="ignore"):
                resid = np.abs(u0 + dt * g(w) - w)
            return ~np.isfinite(resid) | (resid > 1e-12)

        bad = unsolved(w)
        if src.linear:
            with np.errstate(all="ignore"):
                w[bad] = (u0 / (1.0 - dt * slope))[bad]
            bad = unsolved(w)
        for i in np.flatnonzero(bad):
            w[i] = source_module._bracketed_rescue(
                src, float(u0[i]), float(xx[i]), t, dt)
    return float(w[0]) if np.ndim(u) == 0 else w


def tanh_sink() -> SourceDescriptor:
    """A nonlinear sink g = -(1 + x) tanh(u), Lipschitz 2 in u on [0, 1]."""
    return SourceDescriptor(
        func=lambda x, t, u: -(1.0 + x) * np.tanh(u),
        lipschitz_u=2.0,
        sup_at_zero=0.0,
        tv_bound=lambda t: 0.0,
    )


class TestBufferedSolve:
    """The buffered fixed point and the uncopied input give the same floats
    as the solve written with a new array per operation."""

    SINKS = {**LINEAR_SINKS, "tanh": tanh_sink}

    # Fractions of the contraction cap 1 / lipschitz_u: a linear sink
    # iterates below q = 0.7586 and takes the closed form above it.
    @pytest.mark.parametrize("name", sorted(SINKS))
    @pytest.mark.parametrize("q", [1e-4, 0.1, 0.5, 0.7, 0.8, 0.95, 1.0 - 1e-9])
    def test_equals_the_unbuffered_solve(self, name, q):
        src = self.SINKS[name]()
        cap = 1.0 / src.lipschitz_u if src.lipschitz_u > 0.0 else 100.0
        dt = q * cap
        rng = np.random.default_rng(11)
        x = np.sort(rng.uniform(0.0, 1.0, 200))
        x.setflags(write=False)
        u = rng.uniform(-1.0, 5.0, 200)
        u[::7] = 0.0
        u.setflags(write=False)  # the solve must not write to its input
        kept = u.copy()
        w = implicit_source_step(u, x, 0.3, dt, src)
        assert w.tobytes() == reference_solve(u, x, 0.3, dt, src).tobytes()
        assert not np.shares_memory(w, u)
        assert w.flags.writeable
        assert u.tobytes() == kept.tobytes()
        scalar = implicit_source_step(2.5, 0.4, 0.3, dt, src)
        assert scalar == reference_solve(2.5, 0.4, 0.3, dt, src)

    def test_result_never_aliases_the_input_when_nothing_moves(self):
        # Zero source: the first iterate already converges, so the answer
        # has the input's values but must not be the input's memory.
        u = np.array([1.0, -2.0, 0.5])
        w = implicit_source_step(u, np.zeros(3), 0.0, 0.1, zero_source())
        assert w.tobytes() == u.tobytes()
        assert not np.shares_memory(w, u)


class TestPropertyVerification:
    def probes(self):
        return dict(
            x_probes=np.linspace(0.0, 1.0, 13),
            t_probes=np.linspace(0.0, 2.0, 4),
            u_probes=np.linspace(-3.0, 3.0, 17),
        )

    def test_honest_declaration_passes(self):
        src = SourceDescriptor(
            func=lambda x, t, u: -(0.01 + 0.04 * x) * u,
            lipschitz_u=0.05,
            sup_at_zero=0.0,
            tv_bound=lambda t: 0.04 * 3.0,
        )
        report = verify_source_properties(src, **self.probes())
        assert report.passed
        assert report.lipschitz_observed <= 0.05 + 1e-12

    def test_understated_lipschitz_is_caught(self):
        src = SourceDescriptor(
            func=lambda x, t, u: -0.5 * u,
            lipschitz_u=0.2,
            sup_at_zero=0.0,
            tv_bound=lambda t: 0.0,
        )
        report = verify_source_properties(src, **self.probes())
        assert not report.lipschitz_ok
        assert not report.passed
        assert report.lipschitz_observed == pytest.approx(0.5, rel=1e-10)

    def test_understated_variation_bound_is_caught(self):
        src = SourceDescriptor(
            func=lambda x, t, u: -x * u,
            lipschitz_u=1.0,
            sup_at_zero=0.0,
            tv_bound=lambda t: 0.1,
        )
        report = verify_source_properties(src, **self.probes())
        assert not report.tv_ok

    def test_understated_growth_constant_is_caught(self):
        # The derived growth constant max(0.1, 0.5) = 0.5 is too small for
        # |g(x, t, 0)| = 2, because the declared sup_at_zero understates it.
        src = SourceDescriptor(
            func=lambda x, t, u: 2.0 + 0.1 * u,
            lipschitz_u=0.1,
            sup_at_zero=0.5,
            tv_bound=lambda t: 0.0,
        )
        assert src.growth_const == 0.5
        report = verify_source_properties(src, **self.probes())
        assert not report.growth_ok

    def test_rejects_degenerate_probe_sets(self):
        with pytest.raises(ValueError):
            verify_source_properties(
                zero_source(),
                x_probes=[0.0], t_probes=[0.0], u_probes=[0.0, 1.0],
            )
