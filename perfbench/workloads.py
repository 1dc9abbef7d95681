"""Workload definitions: seeded inputs, how to run one operation, output checks.

A workload is an endless, seed-determined sequence of operations. An
operation is one or more parts run back to back and timed together:

  * ``CliRun``: one ``splitfv.cli.main`` invocation on a generated config file;
  * ``LibraryStudy``: one ``splitfv.verify.refinement_study`` call.

Every part's output is checked after the timer stops. A part that raises,
exits nonzero or fails its check makes the whole operation a failure.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import math
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

DEFAULT_SEED = 0

# testcase2: influx 2.016 -> 2.139 at t = 0, removal profile (0, 0.01),
# (0.5, 0.05), (1, 0.02) on a line with v0 = 1 and max_load = 10.
MAX_LOAD = 10.0
INFLUX_RANGE = (2.0, 2.2)   # against the line capacity v0 * max_load / 4 = 2.5
RATE_RANGE = (0.01, 0.05)
MID_BREAKPOINT_RANGE = (0.25, 0.75)
JUMP_FRACTION = 0.2         # jump time drawn from [0, JUMP_FRACTION * t_final]

# Final (WIP, outflux) of the default-seed runs, recorded with the solver
# as first benchmarked. Later versions must match them to REFERENCE_RTOL.
REFERENCE_RTOL = 1e-12
REFERENCE = {
    "line-simulate": (2.9820432543595996, 2.0423066805939789),
    "line-fine": (2.9489900098436039, 2.0096111801613956),
}


@dataclass(frozen=True)
class LineShape:
    """Per-workload fixed part of a line config; the seed draws the model."""

    mode: str
    flux: str
    n_cells: int
    t_final: float
    snapshot_times: tuple[float, ...] = ()


LINE_SHAPES = {
    "line-simulate": LineShape("simulate", "upwind-linear", 200, 20.0,
                               (0.0, 5.0, 10.0, 20.0)),
    "line-fine": LineShape("simulate", "upwind-linear", 3200, 2.0,
                           (0.0, 1.0, 2.0)),
    "line-verify": LineShape("verify", "godunov", 200, 2.0),
}


@dataclass(frozen=True)
class CliRun:
    """One CLI invocation. ``config`` holds every key but ``output_dir``."""

    config: tuple[tuple[str, str], ...]
    reference: tuple[float, float] | None = None

    @property
    def mode(self) -> str:
        return dict(self.config)["mode"]

    def text(self, output_dir: str) -> str:
        lines = [f"{k} = {v}" for k, v in self.config]
        lines.append(f"output_dir = {output_dir}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class LibraryStudy:
    """One ``refinement_study`` call on a stock problem with a chosen flux."""

    problem: str
    flux_kind: str
    base_cells: int
    levels: int
    entropy_check: bool
    viscosity: float = 0.0


@dataclass(frozen=True)
class Operation:
    parts: tuple


@dataclass
class PartResult:
    """What one part produced."""

    part: object
    exit_code: int
    stdout: str
    output_dir: Path
    study: object = None
    error: str = ""


# =============================================================
# Seeded inputs
# =============================================================

def line_config(shape: LineShape, rng: np.random.Generator | None) -> CliRun:
    """A testcase2-shaped line; ``rng=None`` gives testcase2 itself."""
    keys: list[tuple[str, str]] = [("mode", shape.mode)]
    if rng is None:
        keys.append(("preset", "testcase2"))
    else:
        before, after = rng.uniform(*INFLUX_RANGE, size=2).tolist()
        jump = float(rng.uniform(0.0, JUMP_FRACTION * shape.t_final))
        mid = float(rng.uniform(*MID_BREAKPOINT_RANGE))
        r0, r1, r2 = rng.uniform(*RATE_RANGE, size=3).tolist()
        keys += [
            ("source_kind", "piecewise-linear"),
            ("profile_breakpoints", f"0:{r0!r}, {mid!r}:{r1!r}, 1:{r2!r}"),
            ("influx_before", repr(before)),
            ("influx_after", repr(after)),
            ("jump_time", repr(jump)),
        ]
        if shape.mode == "verify":
            keys.append(("seed", str(int(rng.integers(0, 2**31)))))
    keys += [
        ("flux", shape.flux),
        ("n_cells", str(shape.n_cells)),
        ("t_final", repr(shape.t_final)),
        ("cfl_number", "0.9"),
        ("dt_max", "0.1"),
    ]
    if shape.snapshot_times:
        keys.append(("snapshot_times",
                     ", ".join(repr(t) for t in shape.snapshot_times)))
    return CliRun(tuple(keys))


def converge_run(problem: str) -> CliRun:
    return CliRun((("mode", "converge"), ("problem", problem),
                   ("levels", "3"), ("base_cells", "50"), ("cfl_number", "0.9")))


# One refine operation. Lax-Friedrichs runs with the entropy observer, like
# the CLI studies; Engquist-Osher runs without it because its quadrature
# flux makes the exact entropy check cost about 75x the solve.
REFINE_OPERATION = Operation((
    converge_run("advection_decay"),
    converge_run("burgers_shock"),
    converge_run("burgers_rarefaction"),
    LibraryStudy("burgers_shock", "lax-friedrichs", 50, 3, True, viscosity=1.0),
    LibraryStudy("advection_decay", "engquist-osher", 25, 3, False),
))

WORKLOADS = ("line-simulate", "line-fine", "line-verify", "refine")


def operations(workload: str, seed: int) -> Iterator[Operation]:
    """The seed-determined sequence of operations of a workload."""
    if workload == "refine":
        while True:
            yield REFINE_OPERATION
    if workload not in LINE_SHAPES:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    shape = LINE_SHAPES[workload]
    if seed == DEFAULT_SEED:
        run = dataclasses.replace(line_config(shape, None),
                                  reference=REFERENCE.get(workload))
        while True:
            yield Operation((run,))
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    while True:
        yield Operation((line_config(shape, rng),))


# =============================================================
# Running
# =============================================================

def _problem(study: LibraryStudy):
    from splitfv import verify

    problem = getattr(verify, f"{study.problem}_problem")()
    return dataclasses.replace(problem, flux_kind=study.flux_kind,
                               viscosity=study.viscosity)


def prepare(op: Operation, workdir: Path) -> list[Path]:
    """Empty one output directory per part and write the config files.

    Done before the timer starts; ``execute`` then runs each part.
    """
    outs = []
    for index, part in enumerate(op.parts):
        out = workdir / f"part{index}"
        if out.exists():
            shutil.rmtree(out)
        out.mkdir(parents=True)
        if isinstance(part, CliRun):
            (out / "run.cfg").write_text(part.text(str(out)))
        outs.append(out)
    return outs


def execute(part, out: Path) -> PartResult:
    if isinstance(part, CliRun):
        return _run_cli(part, out / "run.cfg", out)
    return _run_study(part, out)


def _run_cli(part: CliRun, cfg: Path, out: Path) -> PartResult:
    from splitfv import cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main([str(cfg)])
    except Exception as exc:  # an uncaught error is a failed operation
        return PartResult(part, 1, buf.getvalue(), out, error=repr(exc))
    return PartResult(part, code, buf.getvalue(), out)


def _run_study(part: LibraryStudy, out: Path) -> PartResult:
    from splitfv import verify

    try:
        result = verify.refinement_study(
            _problem(part), base_cells=part.base_cells, n_levels=part.levels,
            entropy_check=part.entropy_check,
        )
    except Exception as exc:  # an uncaught error is a failed operation
        return PartResult(part, 1, "", out, error=repr(exc))
    return PartResult(part, 0, "", out, study=result)


# =============================================================
# Output checks
# =============================================================

def _read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _order_ok(problem: str, errors: list[float]) -> tuple[bool, str]:
    """The CLI's converge verdict on a sequence of level errors."""
    if problem == "advection_decay":
        order = math.log2(errors[-2] / errors[-1])
        return order >= 0.8, f"final order {order:.3f} (need >= 0.8)"
    ratio = errors[-2] / errors[-1]
    return ratio >= 4.0 / 3.0, f"final error ratio {ratio:.3f} (need >= 4/3)"


def check_part(res: PartResult) -> list[str]:
    """Problems with one part's output; an empty list means it passed."""
    if res.error:
        return [f"raised {res.error}"]
    if res.exit_code != 0:
        tail = res.stdout.strip().splitlines()[-1:] or ["(no output)"]
        return [f"exit code {res.exit_code}: {tail[0]}"]
    part = res.part
    if isinstance(part, LibraryStudy):
        errors = [lvl.l1_error for lvl in res.study.levels]
        ok, verdict = _order_ok(part.problem, errors)
        return [] if ok else [f"{part.flux_kind} {part.problem}: {verdict}"]
    mode = part.mode
    if mode == "verify":
        return [] if "all checks passed" in res.stdout else ["verify did not pass"]
    if mode == "converge":
        return _check_converge(part, res)
    return _check_simulate(part, res)


def _check_converge(part: CliRun, res: PartResult) -> list[str]:
    if not re.search(r"^PASS ", res.stdout, re.M):
        return ["converge printed no PASS verdict"]
    rows = _read_rows(res.output_dir / "convergence.csv")
    ok, verdict = _order_ok(dict(part.config)["problem"],
                            [float(r["l1_error"]) for r in rows])
    return [] if ok else [f"convergence.csv: {verdict}"]


def _check_simulate(part: CliRun, res: PartResult) -> list[str]:
    problems = []
    steps = simulate_steps(res.stdout)
    if steps is None:
        return ["no step count in the output"]
    rows = _read_rows(res.output_dir / "timeseries.csv")
    if len(rows) != steps + 1:
        problems.append(f"timeseries has {len(rows)} rows, expected {steps + 1}")
    wips = np.array([float(r["wip"]) for r in rows])
    if not np.all(wips < MAX_LOAD):
        problems.append(f"WIP reached {wips.max()} >= max_load {MAX_LOAD}")
    times = dict(part.config)["snapshot_times"].split(",")
    for t in sorted({float(t) for t in times}):
        path = res.output_dir / f"snapshot_{t:.12g}.csv"
        if not path.is_file():
            problems.append(f"missing {path.name}")
            continue
        u = np.array([float(r["u"]) for r in _read_rows(path)])
        if np.any(u < 0.0):
            problems.append(f"{path.name}: negative density {u.min()}")
    if part.reference is not None:
        got = (float(rows[-1]["wip"]), float(rows[-1]["outflux"]))
        for name, g, want in zip(("WIP", "outflux"), got, part.reference):
            if abs(g - want) > REFERENCE_RTOL * abs(want):
                problems.append(f"final {name} {g!r} differs from reference {want!r}")
    return problems


# =============================================================
# Work done: cell-steps
# =============================================================

def simulate_steps(stdout: str) -> int | None:
    """The step count ``simulate`` prints, or None if it printed none."""
    m = re.search(r"^steps: (\d+),", stdout, re.M)
    return None if m is None else int(m.group(1))


def count_cell_steps(res: PartResult, workdir: Path, cache: dict) -> int:
    """Sum over the part's runs of n_cells x steps.

    Only ``simulate`` prints its step count. For other parts the same
    stepping is repeated without diagnostics, outside the timed region:
    ``verify`` as a ``simulate`` of its config, and each refinement level
    as a plain solve. Engquist-Osher levels are stepped with Godunov, which
    has the same CFL bound and so the same step sizes.
    """
    part = res.part
    if isinstance(part, CliRun) and part.mode == "simulate":
        return int(dict(part.config)["n_cells"]) * simulate_steps(res.stdout)
    if part in cache:
        return cache[part]
    if isinstance(part, CliRun) and part.mode == "verify":
        twin = CliRun(tuple(("mode", "simulate") if k == "mode" else (k, v)
                            for k, v in part.config))
        (out,) = prepare(Operation((twin,)), workdir / "steps")
        twin_res = execute(twin, out)
        if twin_res.exit_code != 0:
            raise RuntimeError(f"step count run failed: {twin_res.stdout}")
        total = count_cell_steps(twin_res, workdir, cache)
    else:
        total = _study_cell_steps(part)
    cache[part] = total
    return total


def _study_cell_steps(part) -> int:
    from splitfv import verify

    if isinstance(part, CliRun):
        cfg = dict(part.config)
        problem = getattr(verify, f"{cfg['problem']}_problem")()
        base_cells, levels = int(cfg["base_cells"]), int(cfg["levels"])
    else:
        problem = _problem(part)
        base_cells, levels = part.base_cells, part.levels
    if problem.flux_kind == "engquist-osher":
        problem = dataclasses.replace(problem, flux_kind="godunov")
    total = 0
    for level in range(levels):
        n = base_cells * 2 ** level
        _, report, _ = verify.solve_on_grid(problem, n, entropy_check=False)
        total += n * report.n_steps
    return total
