"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Each criterion prints a single line (bypassing capture) so a full run shows
the verdicts inline, then asserts, so a failure also fails the suite.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

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
    as_source,
    build_grid,
    burgers_flux,
    burgers_shock_problem,
    check_linf_bound,
    check_monotone,
    check_tv_bound,
    constant_yield_steady_state,
    eval_flux,
    engquist_osher,
    godunov,
    implicit_source_step,
    lax_friedrichs,
    linear_flux,
    preset_scenario,
    proportional_decay,
    refinement_study,
    run,
    run_factory,
    shock_position,
    solve_on_grid,
    upwind_linear,
)
from splitfv.cli import main as cli_main


def report_line(capsys, number: int | str, name: str, ok: bool,
                detail: str) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"ACCEPTANCE {number} {name}: {detail}"


GRID = build_grid(0.0, 1.0, 200)


class InvarianceTracker:
    """Largest per-step change of the field, in the sup norm."""

    def __init__(self):
        self.worst = 0.0

    def __call__(self, rec):
        jump = float(np.max(np.abs(
            rec.field_after.values - rec.field_before.values
        )))
        self.worst = max(self.worst, jump)


# =============================================================
# Shared runs (criteria 1-5 and 9 reuse these)
# =============================================================

@pytest.fixture(scope="module")
def hold_run():
    """Constant influx 2.016, no yield loss, started on the exact balance."""
    model = FactoryModel(v0=1.0, max_load=10.0, influx=lambda t: 2.016,
                         yield_loss=YieldLoss.none())
    axis = TimeAxis(2.0, dt_max=0.1)
    started = time.perf_counter()
    run_factory(model, 2.8, 2.0, axis, grid=GRID)
    bare_seconds = time.perf_counter() - started
    entropy = EntropyObserver()
    invariance = InvarianceTracker()
    report = run_factory(model, 2.8, 2.0, axis, grid=GRID,
                         observers=(entropy, invariance))
    return dict(report=report, entropy=entropy, invariance=invariance,
                bare_seconds=bare_seconds, growth_const=0.0,
                dt_cap=axis.dt_max)


@pytest.fixture(scope="module")
def jump_run():
    """Influx jump 2.016 -> 2.139 at t = 0, no yield loss, to t = 50."""
    model = FactoryModel(
        v0=1.0, max_load=10.0,
        influx=lambda t: 2.139 if t >= 0.0 else 2.016,
        yield_loss=YieldLoss.none(),
    )
    axis = TimeAxis(50.0, dt_max=0.1)
    started = time.perf_counter()
    run_factory(model, 2.8, 50.0, axis, grid=GRID)
    bare_seconds = time.perf_counter() - started
    entropy = EntropyObserver()
    report = run_factory(model, 2.8, 50.0, axis, grid=GRID,
                         observers=(entropy,))
    return dict(report=report, entropy=entropy, bare_seconds=bare_seconds,
                growth_const=0.0, dt_cap=axis.dt_max)


@pytest.fixture(scope="module")
def yield_run():
    """Constant influx 2.139 with the uniform 3% removal rate, to t = 50."""
    model = FactoryModel(v0=1.0, max_load=10.0, influx=lambda t: 2.139,
                         yield_loss=YieldLoss.constant(0.03))
    axis = TimeAxis(50.0, dt_max=0.1)
    entropy = EntropyObserver()
    report = run_factory(model, 2.8, 50.0, axis, grid=GRID,
                         observers=(entropy,))
    return dict(report=report, entropy=entropy, growth_const=0.03,
                dt_cap=axis.dt_max)


def riemann_with_decay(fluxdesc, t_final: float):
    grid = build_grid(-0.5, 0.5, 200)
    values = np.where(grid.cell_centers < 0.0, 1.0, 0.0)
    axis = TimeAxis(t_final, dt_max=0.05)
    entropy = EntropyObserver()
    report = run(
        CellField(grid, values), t_final, fluxdesc,
        proportional_decay(0.1), BoundarySpec.dirichlet_pair(1.0, 0.0),
        axis, observers=(entropy,),
    )
    return dict(report=report, entropy=entropy, growth_const=0.1,
                dt_cap=axis.dt_max)


@pytest.fixture(scope="module")
def burgers_decay_run():
    """Burgers Riemann shock with the sink g = -0.1 u under Godunov."""
    return riemann_with_decay(godunov(burgers_flux()), 0.5)


@pytest.fixture(scope="module")
def preset_pair():
    """Both presets run far past the transient for the settling comparison."""
    out = {}
    for name in ("testcase1", "testcase2"):
        scenario = preset_scenario(name)
        out[name] = run_factory(scenario.model, scenario.initial_density,
                                100.0, TimeAxis(100.0, dt_max=0.1), grid=GRID)
    return out


def settling_time(report) -> float:
    """First time the outflux reaches 99% of its final value (interpolated)."""
    t = np.asarray(report.times)
    w = np.asarray(report.channels["outflux"])
    target = 0.99 * w[-1]
    below = np.flatnonzero(w < target)
    i = below[-1]
    return float(t[i] + (target - w[i]) * (t[i + 1] - t[i]) / (w[i + 1] - w[i]))


# =============================================================
# Criteria
# =============================================================

def test_criterion_1_steady_state_exactness(hold_run, capsys):
    report = hold_run["report"]
    inv = hold_run["invariance"].worst
    outflux_err = float(np.max(np.abs(
        np.asarray(report.channels["outflux"]) - 2.016
    )))
    secs = hold_run["bare_seconds"]
    ok = inv <= 1e-10 and outflux_err <= 1e-10 and secs < 1.0
    report_line(
        capsys, 1, "steady-state-exactness", ok,
        f"per-step drift {inv:.2e} (<= 1e-10), outflux error "
        f"{outflux_err:.2e} (<= 1e-10), runtime {secs:.2f}s (< 1s)",
    )


def test_criterion_2_influx_jump_relaxation(jump_run, capsys):
    report = jump_run["report"]
    density_err = float(np.max(np.abs(report.final_field.values - 3.1)))
    t = np.asarray(report.times)
    w = np.asarray(report.channels["outflux"])
    outflux_err = abs(float(w[-1]) - 2.139)
    dip = float(np.min(w[(t > 0.0) & (t <= 2.0)]))
    secs = jump_run["bare_seconds"]
    ok = (density_err <= 1e-2 and outflux_err <= 1e-2
          and dip < 2.016 and secs < 5.0)
    report_line(
        capsys, 2, "influx-jump-relaxation", ok,
        f"density error {density_err:.2e} (<= 1e-2), outflux error "
        f"{outflux_err:.2e} (<= 1e-2), transient dip {dip:.4f} (< 2.016), "
        f"runtime {secs:.2f}s (< 5s)",
    )


def test_criterion_3_constant_yield_steady_state(yield_run, capsys):
    report = yield_run["report"]
    oracle = constant_yield_steady_state(2.139, 0.03)
    outflux_err = abs(report.channels["outflux"][-1] - oracle.outflux)
    profile_err = float(np.max(np.abs(
        report.final_field.values - oracle.density(GRID.cell_centers)
    )))
    ok = outflux_err <= 1e-2 and profile_err <= 1e-2
    report_line(
        capsys, 3, "constant-yield-steady-state", ok,
        f"outflux {report.channels['outflux'][-1]:.6f} vs oracle "
        f"{oracle.outflux:.6f} (error {outflux_err:.2e} <= 1e-2), profile "
        f"sup error {profile_err:.2e} (<= 1e-2)",
    )


def test_criterion_4_discrete_entropy_inequality(
        hold_run, jump_run, yield_run, burgers_decay_run, capsys):
    worst_margin = -np.inf
    worst_name = ""
    all_ok = True
    for name, data in (("steady-hold", hold_run), ("influx-jump", jump_run),
                       ("constant-yield", yield_run),
                       ("burgers-decay", burgers_decay_run)):
        entropy = data["entropy"]
        all_ok = all_ok and entropy.passed
        res = entropy.worst
        margin = res.max_residual - res.tolerance
        if margin > worst_margin:
            worst_margin = margin
            worst_name = name
    control = riemann_with_decay(lax_friedrichs(burgers_flux(), 0.0), 0.05)
    control_worst = max(r.max_residual for r in control["entropy"].results)
    caught = not control["entropy"].passed and control_worst > 0.0
    ok = all_ok and caught
    report_line(
        capsys, 4, "discrete-entropy-inequality", ok,
        f"worst residual margin {worst_margin:.2e} ({worst_name}; negative "
        f"means within tolerance), zero-viscosity control residual "
        f"{control_worst:.2e} correctly flagged={caught}",
    )


def test_criterion_5_stability_bounds(
        hold_run, jump_run, yield_run, burgers_decay_run, capsys):
    pieces = []
    ok = True
    for name, data in (("steady-hold", hold_run), ("influx-jump", jump_run),
                       ("constant-yield", yield_run),
                       ("burgers-decay", burgers_decay_run)):
        cfg = BoundCheckConfig(growth_const=data["growth_const"],
                               dt_cap=data["dt_cap"])
        linf = check_linf_bound(data["report"], cfg)
        tv = check_tv_bound(data["report"], cfg)
        ok = ok and linf.passed and tv.passed
        pieces.append(
            f"{name}: linf margin {linf.worst_margin:+.2e}, "
            f"tv margin {tv.worst_margin:+.2e}"
        )
    report_line(capsys, 5, "stability-bounds", ok, "; ".join(pieces))


def test_criterion_6_implicit_source_solver(capsys):
    rng = np.random.default_rng(20260819)
    profile = YieldLoss.piecewise_linear(((0.0, 0.1), (0.5, 0.5), (1.0, 0.2)))

    def nonlinear(x, t, u):
        return 0.8 * np.sin(u) + 0.2 * x * np.cos(t)

    kinds = [
        ("linear-decay", None, None),
        ("space-profile", as_source(profile), profile),
        ("nonlinear", SourceDescriptor(func=nonlinear, lipschitz_u=0.8,
                                       sup_at_zero=0.2,
                                       tv_bound=lambda t: 0.2), None),
    ]
    worst_resid = 0.0
    worst_iters = 0
    worst_linear = 0.0
    count = 0
    for kind, base_src, loss in kinds:
        for _ in range(334 if kind == "linear-decay" else 333):
            u = float(rng.uniform(-3.0, 3.0))
            x = float(rng.uniform(0.0, 1.0))
            t = float(rng.uniform(0.0, 5.0))
            if kind == "linear-decay":
                rate = float(rng.uniform(0.1, 2.0))
                base_src = proportional_decay(rate)
            lip = base_src.lipschitz_u
            dt = float(rng.uniform(0.01, 0.5 / lip))
            calls = {"n": 0}
            inner = base_src.func

            def counted(x_, t_, u_, inner=inner):
                calls["n"] += 1
                return inner(x_, t_, u_)

            src = SourceDescriptor(func=counted, lipschitz_u=lip,
                                   sup_at_zero=base_src.sup_at_zero,
                                   tv_bound=base_src.tv_bound)
            w = implicit_source_step(u, x, t, dt, src)
            count += 1
            resid = abs(w - u - dt * float(inner(x, t, w)))
            worst_resid = max(worst_resid, resid)
            worst_iters = max(worst_iters, calls["n"])
            if kind == "linear-decay":
                worst_linear = max(worst_linear, abs(w - u / (1.0 + rate * dt)))
            elif kind == "space-profile":
                c = float(loss.rate_at(x))
                worst_linear = max(worst_linear, abs(w - u / (1.0 + c * dt)))
    ok = (count == 1000 and worst_iters <= 60 and worst_resid <= 1e-12
          and worst_linear <= 1e-12)
    report_line(
        capsys, 6, "implicit-source-solver", ok,
        f"{count} solves, max iterations {worst_iters} (<= 60), max residual "
        f"{worst_resid:.2e} (<= 1e-12), max closed-form error "
        f"{worst_linear:.2e} (<= 1e-12)",
    )


def test_criterion_7_flux_axioms(capsys):
    rng = np.random.default_rng(7)
    cases = [
        ("upwind/linear", upwind_linear(linear_flux(0.72))),
        ("godunov/linear", godunov(linear_flux(0.72))),
        ("engquist-osher/linear", engquist_osher(linear_flux(0.72))),
        ("godunov/burgers", godunov(burgers_flux())),
        ("engquist-osher/burgers", engquist_osher(burgers_flux())),
    ]
    worst_consistency = 0.0
    worst_mono = 0.0
    ok = True
    for _, desc in cases:
        s = rng.uniform(-2.5, 2.5, size=200)
        err = float(np.max(np.abs(
            eval_flux(desc, s, s) - desc.physical.eval(s)
        )))
        worst_consistency = max(worst_consistency, err)
        mono = check_monotone(desc, (-2.0, 2.0))
        worst_mono = max(worst_mono,
                         max(-mono.worst_drop_in_a, mono.worst_rise_in_b))
        ok = ok and err <= 1e-12 and mono.passed
    report_line(
        capsys, 7, "flux-axioms", ok,
        f"5 flux/physics pairs: max |F(s,s)-f(s)| {worst_consistency:.2e} "
        f"(<= 1e-12), worst wrong-way lattice difference {worst_mono:.2e} "
        f"(>= -1e-14 required)",
    )


def test_criterion_8_convergence(capsys):
    started = time.perf_counter()
    study = refinement_study(advection_decay_problem(), base_cells=50,
                             n_levels=4, entropy_check=False)
    fine_orders = study.orders[-2:]
    shock_ok = True
    shock_detail = []
    problem = burgers_shock_problem()
    for n in (50, 100, 200, 400):
        final, _, _ = solve_on_grid(problem, n, entropy_check=False)
        err = abs(shock_position(final) - 0.25)
        shock_ok = shock_ok and err <= 2.0 * final.grid.dx
        shock_detail.append(f"n={n}: {err / final.grid.dx:.2f}dx")
    secs = time.perf_counter() - started
    ok = all(o >= 0.8 for o in fine_orders) and shock_ok and secs < 30.0
    report_line(
        capsys, 8, "convergence", ok,
        f"advection orders on finest pairs {fine_orders[0]:.3f}/"
        f"{fine_orders[1]:.3f} (>= 0.8), shock position error "
        f"{', '.join(shock_detail)} (<= 2dx), runtime {secs:.1f}s (< 30s)",
    )


def test_criterion_9_piecewise_profile_behaviour(preset_pair, capsys):
    t99_const = settling_time(preset_pair["testcase1"])
    t99_pwl = settling_time(preset_pair["testcase2"])
    slower = t99_pwl > t99_const
    log_const = np.log(preset_pair["testcase1"].final_field.values)
    log_pwl = np.log(preset_pair["testcase2"].final_field.values)
    dx2 = GRID.dx ** 2
    # Interior second divided differences; the outermost cells carry the
    # splitting's boundary-closure offset for both profiles alike.
    curve_const = float(np.max(np.abs(np.diff(log_const, n=2)[1:-1])) / dx2)
    curve_pwl = float(np.max(np.abs(np.diff(log_pwl, n=2)[1:-1])) / dx2)
    curved = curve_pwl > 1e-4
    contrast = curve_const < 1e-6
    ok = slower and curved and contrast
    report_line(
        capsys, 9, "piecewise-profile-behaviour", ok,
        f"99% settling time {t99_pwl:.4f} vs constant-rate {t99_const:.4f} "
        f"(slower by {t99_pwl - t99_const:+.4f}), log-density curvature "
        f"{curve_pwl:.3e} (> 1e-4) vs constant-rate {curve_const:.3e}",
    )


def test_cli_gate_refuses_bad_cfl_and_verifies_presets(tmp_path, capsys):
    """Companion gate: the CLI front end refuses an unstable config and the
    verify mode signs off on both presets."""
    bad = tmp_path / "bad.cfg"
    bad.write_text("preset = testcase1\ncfl_number = 2.0\n")
    bad_code = cli_main([str(bad)])
    good = tmp_path / "good.cfg"
    good.write_text(
        "mode = verify\npreset = testcase2\nt_final = 1.0\nn_cells = 50\n"
        f"output_dir = {tmp_path / 'out'}\n"
    )
    good_code = cli_main([str(good)])
    capsys.readouterr()
    ok = bad_code == 2 and good_code == 0
    report_line(
        capsys, "X", "cli-gate", ok,
        f"unstable config exit {bad_code} (want 2), verify exit {good_code} "
        f"(want 0)",
    )
