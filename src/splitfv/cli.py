"""Command-line front end.

Usage: splitfv CONFIG

CONFIG is a flat text file of `key = value` lines (# starts a comment).
The `mode` key selects what to do:

  * simulate: run the manufacturing-line model, write a time-series CSV
    and density snapshots, and print the lowest jam margin 1 - WIP / max_load.
  * verify: run the same model while checking flux axioms, source
    properties, per-step entropy residuals and the paper's sup-norm and
    total-variation envelopes, which grow at rate 0 because the line's
    sink only removes load; write a report CSV and exit nonzero if any
    check fails.
  * converge: run a refinement study on a problem with an exact solution;
    write the error table and exit nonzero if the observed orders fall
    short.

All CSV numbers are written with repr-faithful precision (%.17g) and LF
line endings, so repeated runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .diagnostics import (
    BoundCheckConfig,
    EntropyObserver,
    check_linf_bound,
    check_tv_bound,
)
from .factory import (
    FACTORY_FLUX_KINDS,
    FactoryModel,
    YieldLoss,
    as_source,
    preset_scenario,
    run_factory,
    steady_density,
    transport_descriptor,
    step_influx,
)
from .flux import check_monotone, eval_flux
from .mesh import TimeAxis, build_grid
from .source import verify_source_properties
from .splitting import CFLViolationError, JammedLineError, RunReport
from .verify import (
    advection_decay_problem,
    burgers_rarefaction_problem,
    burgers_shock_problem,
    refinement_study,
)


class ConfigError(Exception):
    """A config file problem the user has to fix."""


MODEL_KEYS = frozenset({
    "source_kind", "source_rate", "profile_breakpoints",
    "v0", "max_load", "influx_before", "influx_after", "jump_time",
})
CONVERGE_KEYS = frozenset({"problem", "levels", "base_cells"})
KNOWN_KEYS = frozenset({
    "mode", "preset", "flux",
    "n_cells", "t_final", "cfl_number", "dt_max",
    "snapshot_times", "output_dir", "seed",
}) | MODEL_KEYS | CONVERGE_KEYS


# =============================================================
# Config parsing
# =============================================================

def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines; raises ConfigError with line numbers."""
    cfg: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key not in KNOWN_KEYS:
            known = ", ".join(sorted(KNOWN_KEYS))
            raise ConfigError(f"line {lineno}: unknown key {key!r} (known keys: {known})")
        if key in cfg:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for key {key!r}")
        cfg[key] = value
    return cfg


def load_config(path: str | Path) -> dict[str, str]:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text())


def _finite(key: str, value: float) -> float:
    if not np.isfinite(value):
        raise ConfigError(f"key {key!r}: expected a finite number, got {value!r}")
    return value


def _get_float(cfg: dict[str, str], key: str, default: float) -> float:
    if key not in cfg:
        return default
    try:
        value = float(cfg[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {cfg[key]!r}") from None
    return _finite(key, value)


def _get_int(cfg: dict[str, str], key: str, default: int) -> int:
    if key not in cfg:
        return default
    try:
        return int(cfg[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {cfg[key]!r}") from None


def _get_choice(cfg: dict[str, str], key: str, choices: Sequence[str],
                default: str) -> str:
    value = cfg.get(key, default)
    if value not in choices:
        raise ConfigError(
            f"key {key!r}: expected one of {', '.join(choices)}, got {value!r}"
        )
    return value


def _get_float_list(cfg: dict[str, str], key: str,
                    default: list[float]) -> list[float]:
    if key not in cfg:
        return default
    items = [piece.strip() for piece in cfg[key].split(",") if piece.strip()]
    if not items:
        raise ConfigError(f"key {key!r}: expected comma-separated numbers")
    try:
        values = [float(piece) for piece in items]
    except ValueError:
        raise ConfigError(
            f"key {key!r}: expected comma-separated numbers, got {cfg[key]!r}"
        ) from None
    return [_finite(key, value) for value in values]


def _get_breakpoints(cfg: dict[str, str], key: str) -> tuple[tuple[float, float], ...]:
    pieces = [piece.strip() for piece in cfg[key].split(",") if piece.strip()]
    points = []
    for piece in pieces:
        if ":" not in piece:
            raise ConfigError(
                f"key {key!r}: breakpoints are 'position:rate' pairs, got {piece!r}"
            )
        xs, _, rs = piece.partition(":")
        try:
            x, rate = float(xs), float(rs)
        except ValueError:
            raise ConfigError(
                f"key {key!r}: breakpoints are 'position:rate' pairs, got {piece!r}"
            ) from None
        points.append((_finite(key, x), _finite(key, rate)))
    return tuple(points)


# =============================================================
# Resolved setup
# =============================================================

@dataclass
class SimulationSetup:
    """Everything a simulate or verify run needs, resolved from the config."""

    model: FactoryModel
    initial_density: float
    flux_kind: str
    n_cells: int
    time_axis: TimeAxis
    snapshot_times: list[float]
    output_dir: Path
    seed: int
    notes: tuple[str, ...]


def _reject_keys(cfg: dict[str, str], keys: frozenset[str], why: str) -> None:
    present = sorted(keys & cfg.keys())
    if present:
        raise ConfigError(f"{why}: remove {', '.join(present)}")


def build_setup(cfg: dict[str, str]) -> SimulationSetup:
    _reject_keys(cfg, CONVERGE_KEYS, "simulate/verify configs take no refinement keys")
    notes: tuple[str, ...] = ()
    if "preset" in cfg:
        _reject_keys(
            cfg, MODEL_KEYS,
            "a preset fixes the model; model keys conflict with it",
        )
        name = _get_choice(cfg, "preset", ("testcase1", "testcase2"), "testcase1")
        scenario = preset_scenario(name)
        model = scenario.model
        initial_density = scenario.initial_density
        notes = scenario.notes
    else:
        source_kind = _get_choice(
            cfg, "source_kind",
            ("none", "constant-rate", "piecewise-linear"), "none",
        )
        if source_kind == "constant-rate":
            if "profile_breakpoints" in cfg:
                raise ConfigError(
                    "key 'profile_breakpoints' only applies to "
                    "source_kind = piecewise-linear"
                )
            yield_loss = YieldLoss.constant(_get_float(cfg, "source_rate", 0.0))
        elif source_kind == "piecewise-linear":
            if "source_rate" in cfg:
                raise ConfigError(
                    "key 'source_rate' only applies to source_kind = constant-rate"
                )
            if "profile_breakpoints" not in cfg:
                raise ConfigError(
                    "source_kind = piecewise-linear needs 'profile_breakpoints'"
                )
            yield_loss = YieldLoss.piecewise_linear(
                _get_breakpoints(cfg, "profile_breakpoints")
            )
        else:
            for key in ("source_rate", "profile_breakpoints"):
                if key in cfg:
                    raise ConfigError(
                        f"key {key!r} needs a matching source_kind, "
                        f"got source_kind = none"
                    )
            yield_loss = YieldLoss.none()
        influx_before = _get_float(cfg, "influx_before", 2.016)
        influx_after = _get_float(cfg, "influx_after", 2.139)
        jump_time = _get_float(cfg, "jump_time", 0.0)
        for key, rate in (("influx_before", influx_before),
                          ("influx_after", influx_after)):
            if rate < 0.0:
                raise ConfigError(f"key {key!r}: influx must be >= 0, got {rate:g}")
        try:
            model = FactoryModel(
                v0=_get_float(cfg, "v0", 1.0),
                max_load=_get_float(cfg, "max_load", 10.0),
                influx=step_influx(influx_before, influx_after, jump_time),
                yield_loss=yield_loss,
            )
            initial_density = steady_density(model, influx_before)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    flux_kind = _get_choice(cfg, "flux", FACTORY_FLUX_KINDS, "upwind-linear")
    n_cells = _get_int(cfg, "n_cells", 200)
    t_final = _get_float(cfg, "t_final", 5.0)
    try:
        axis = TimeAxis(
            t_final=t_final,
            dt_max=_get_float(cfg, "dt_max", 0.1),
            cfl_number=_get_float(cfg, "cfl_number", 0.9),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if n_cells < 2:
        raise ConfigError(f"n_cells must be >= 2, got {n_cells}")
    seed = _get_int(cfg, "seed", 0)
    if seed < 0:
        raise ConfigError(f"key 'seed': expected a non-negative integer, got {seed}")
    snapshot_times = _get_float_list(cfg, "snapshot_times", [t_final])
    names: dict[str, float] = {}
    for t in snapshot_times:
        if not 0.0 <= t <= t_final:
            raise ConfigError(
                f"snapshot time {t:g} is outside the run window [0, {t_final:g}]"
            )
        other = names.setdefault(_snapshot_name(t), t)
        if other != t:
            raise ConfigError(
                f"key 'snapshot_times': {other!r} and {t!r} would both be "
                f"written to {_snapshot_name(t)}"
            )
    return SimulationSetup(
        model=model,
        initial_density=initial_density,
        flux_kind=flux_kind,
        n_cells=n_cells,
        time_axis=axis,
        snapshot_times=snapshot_times,
        output_dir=Path(cfg.get("output_dir", "out")),
        seed=seed,
        notes=notes,
    )


# =============================================================
# CSV output
# =============================================================

def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    return f"{float(value):.17g}"


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    """Write rows of numbers, or of strings, which pass through as they are.

    Every row is formatted with one template taken from the first row's
    cells, as _fmt would format them: "%s" for a string, "%.17g" otherwise.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        template = None
        for row in rows:
            if template is None:
                template = ",".join(
                    "%s" if isinstance(cell, str) else "%.17g" for cell in row
                ) + "\n"
            fh.write(template % tuple(row))


def _write_timeseries(path: Path, report: RunReport) -> int:
    header = ("t", "wip", "velocity", "influx", "outflux", "tv", "linf")
    rows = zip(
        report.times,
        report.channels["wip"],
        report.channels["velocity"],
        report.channels["influx"],
        report.channels["outflux"],
        report.tv,
        report.linf,
    )
    count = len(report.times)
    _write_csv(path, header, rows)
    return count


def _snapshot_name(t: float) -> str:
    return f"snapshot_{t:.12g}.csv"


def _write_snapshots(setup: SimulationSetup, report: RunReport) -> list[Path]:
    x = report.grid.cell_centers
    written = []
    for target in sorted(set(setup.snapshot_times)):
        values = report.checkpoints.get(float(target))
        if values is None:
            raise RuntimeError(f"run did not land on snapshot time {target:g}")
        path = setup.output_dir / _snapshot_name(target)
        _write_csv(path, ("x", "u"), zip(x, values))
        written.append(path)
    return written


# =============================================================
# Modes
# =============================================================

def _run_setup(setup: SimulationSetup, observers=()) -> RunReport:
    grid = build_grid(0.0, 1.0, setup.n_cells)
    return run_factory(
        setup.model, setup.initial_density, setup.time_axis,
        flux_kind=setup.flux_kind,
        observers=observers,
        checkpoint_times=setup.snapshot_times,
        grid=grid,
    )


def _print_notes(setup: SimulationSetup) -> None:
    for note in setup.notes:
        print(f"note: {note}")


def mode_simulate(setup: SimulationSetup) -> int:
    _print_notes(setup)
    setup.output_dir.mkdir(parents=True, exist_ok=True)
    report = _run_setup(setup)
    ts_path = setup.output_dir / "timeseries.csv"
    n_rows = _write_timeseries(ts_path, report)
    print(f"wrote {ts_path} ({n_rows} rows)")
    for path in _write_snapshots(setup, report):
        print(f"wrote {path}")
    last = {name: series[-1] for name, series in report.channels.items()}
    print(
        f"final state: t={report.times[-1]:.6g} wip={last['wip']:.6g} "
        f"velocity={last['velocity']:.6g} outflux={last['outflux']:.6g}"
    )
    jam_margin = 1.0 - max(report.channels["wip"]) / setup.model.max_load
    print(f"steps: {report.n_steps}, lowest jam margin: {jam_margin:.6g}")
    return 0


def mode_verify(setup: SimulationSetup) -> int:
    _print_notes(setup)
    setup.output_dir.mkdir(parents=True, exist_ok=True)
    rows: list[tuple[str, str, str, str, str]] = []

    def add(check: str, passed: bool, value: float, threshold: float,
            detail: str) -> None:
        rows.append((check, "PASS" if passed else "FAIL",
                     _fmt(value), _fmt(threshold), detail))

    for note in setup.notes:
        rows.append(("note", "INFO", "", "", note))

    entropy = EntropyObserver()
    report = _run_setup(setup, observers=(entropy,))
    u_hi = max(report.linf)

    # Numerical flux axioms at the run's starting speed and value range (the
    # unit range on an empty line).
    rng = np.random.default_rng(setup.seed)
    v0_run = report.channels["velocity"][0]
    desc = transport_descriptor(v0_run, setup.flux_kind)
    u_scale = u_hi if u_hi > 0.0 else 1.0
    lo, hi = -0.1 * u_scale, 1.2 * u_scale
    samples = rng.uniform(lo, hi, size=200)
    consistency_err = float(np.max(np.abs(
        eval_flux(desc, samples, samples) - desc.physical.eval(samples)
    )))
    consistency_tol = 1e-12 * max(1.0, u_hi * abs(v0_run))
    add("flux-consistency", consistency_err <= consistency_tol,
        consistency_err, consistency_tol,
        f"max |F(u,u) - f(u)| over 200 samples in [{lo:.3g}, {hi:.3g}]")
    mono = check_monotone(desc, (lo, hi))
    add("flux-monotonicity", mono.passed,
        max(-mono.worst_drop_in_a, mono.worst_rise_in_b), 1e-14,
        "worst wrong-way finite difference on a 50x50 lattice")

    # Source descriptor facts vs observed behaviour; the declared variation
    # bound must cover the largest |u| the probe lattice reaches.
    src = as_source(setup.model.yield_loss, u_max=hi)
    src_report = verify_source_properties(
        src,
        x_probes=np.linspace(0.0, 1.0, 21),
        t_probes=np.linspace(0.0, setup.time_axis.t_final, 5),
        u_probes=np.linspace(lo, hi, 17),
    )
    add("source-lipschitz", src_report.lipschitz_ok,
        src_report.lipschitz_observed, src_report.lipschitz_declared,
        "largest |g(u)-g(w)|/|u-w| against the declared constant")
    add("source-variation", src_report.tv_ok, src_report.tv_margin, 0.0,
        "declared spatial-variation bound minus observed (worst probe time)")
    add("source-growth", src_report.growth_ok, src_report.growth_margin, 0.0,
        "declared growth envelope minus observed |g| (worst probe)")

    # Per-step entropy residuals (exact supremum over the entropy constant).
    worst = entropy.worst
    add("entropy-residual", entropy.passed,
        worst.max_residual, worst.tolerance,
        f"worst cell {worst.cell_index} at t={worst.t_before:.6g}, "
        f"k={worst.k_value:.6g}")

    # Stability envelopes at rate C0 = 0, as the sink only removes load
    # (see as_source); dt_cap then does not enter.
    cfg = BoundCheckConfig(
        growth_const=0.0,
        dt_cap=setup.time_axis.dt_max,
        source_tv_l1=(
            setup.model.yield_loss.rate_tv() * u_hi * setup.time_axis.t_final
        ),
    )
    for result in (check_linf_bound(report, cfg), check_tv_bound(report, cfg)):
        add(f"{result.name}-bound", result.passed, result.worst_margin, 0.0,
            f"extended envelope, worst margin at t={result.worst_time:.6g}")

    path = setup.output_dir / "verify_report.csv"
    _write_csv(path, ("check", "status", "value", "threshold", "detail"), rows)
    failed = [row for row in rows if row[1] == "FAIL"]
    for check, status, value, threshold, detail in rows[len(setup.notes):]:
        print(f"{status} {check}: {detail} (value {value}, threshold {threshold})")
    print(f"wrote {path}")
    if failed:
        print(f"{len(failed)} check(s) failed", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


_PROBLEMS = {
    "advection_decay": advection_decay_problem,
    "burgers_shock": burgers_shock_problem,
    "burgers_rarefaction": burgers_rarefaction_problem,
}


def mode_converge(cfg: dict[str, str]) -> int:
    # Each problem fixes its flux, grid family, horizon and step cap.
    _reject_keys(
        cfg, MODEL_KEYS | {"preset", "snapshot_times", "flux", "dt_max",
                           "n_cells", "t_final"},
        "converge configs take only refinement keys",
    )
    problem_name = _get_choice(cfg, "problem", tuple(sorted(_PROBLEMS)),
                               "advection_decay")
    levels = _get_int(cfg, "levels", 3)
    base_cells = _get_int(cfg, "base_cells", 50)
    cfl = _get_float(cfg, "cfl_number", 0.9)
    if levels < 2:
        raise ConfigError(f"levels must be >= 2, got {levels}")
    if base_cells < 2:
        raise ConfigError(f"base_cells must be >= 2, got {base_cells}")
    if not 0.0 < cfl <= 1.0:
        raise ConfigError(f"cfl_number must be in (0, 1], got {cfl}")
    output_dir = Path(cfg.get("output_dir", "out"))
    output_dir.mkdir(parents=True, exist_ok=True)

    problem = _PROBLEMS[problem_name]()
    result = refinement_study(problem, base_cells=base_cells, n_levels=levels,
                              cfl_number=cfl)
    rows = []
    for i, level in enumerate(result.levels):
        order = "" if i == 0 else _fmt(result.orders[i - 1])
        entropy = "" if level.entropy_max is None else _fmt(level.entropy_max)
        rows.append((str(level.n_cells), _fmt(level.l1_error), entropy, order))
        print(
            f"n={level.n_cells:6d}  l1_error={level.l1_error:.6e}"
            + (f"  order={order}" if order else "")
        )
    path = output_dir / "convergence.csv"
    _write_csv(path, ("n_cells", "l1_error", "entropy_max", "order"), rows)
    print(f"wrote {path}")

    if problem_name == "advection_decay":
        ok = result.orders[-1] >= 0.8
        verdict = f"final observed order {result.orders[-1]:.3f} (need >= 0.8)"
    else:
        ratio = result.levels[-2].l1_error / result.levels[-1].l1_error
        ok = ratio >= 4.0 / 3.0
        verdict = f"final error ratio {ratio:.3f} (need >= {4.0 / 3.0:.3f})"
    print(("PASS " if ok else "FAIL ") + verdict)
    return 0 if ok else 1


# =============================================================
# Entry point
# =============================================================

def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="splitfv",
        description="Split finite-volume solver for scalar balance laws "
                    "with a manufacturing-line model.",
    )
    parser.add_argument("config", help="path to a key = value config file")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        mode = _get_choice(cfg, "mode", ("simulate", "verify", "converge"),
                           "simulate")
        if mode == "converge":
            return mode_converge(cfg)
        setup = build_setup(cfg)
        if mode == "simulate":
            return mode_simulate(setup)
        # The run takes no step when t_final is within 1e-12 of its start
        # at 0, and then verify has no step to check.
        if setup.time_axis.t_final <= 1e-12:
            raise ConfigError(
                f"key 't_final': verify needs a run of at least one step, "
                f"got t_final = {setup.time_axis.t_final:g} (must exceed 1e-12)"
            )
        return mode_verify(setup)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CFLViolationError, JammedLineError, ValueError, RuntimeError) as exc:
        print(f"run refused: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
