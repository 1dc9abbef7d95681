"""Exact call counts of three short CLI runs, pinned as upper bounds.

Counts repeat exactly for a fixed input, unlike timings, so they guard the
structural claims about a step (calls removed, records not built) without
timing noise. A change that lowers a count lowers its pin in the same
change; one that raises a count says why.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

import pytest

import splitfv
from splitfv import cli, diagnostics, factory, flux, mesh, source, splitting

# Functions counted at every package binding that holds them.
FUNCTIONS = {
    "split_step": (splitting, "split_step"),
    "eval_flux": (flux, "eval_flux"),
    "critical_points": (flux, "critical_points"),
    "wip": (factory, "wip"),
    "entropy_residual_max": (diagnostics, "entropy_residual_max"),
}
# eval_flux calls made inside entropy checks: the checks' own flux work.
CHECK_FLUX = "eval_flux in entropy_residual_max"
# Methods counted on their class; CellField.__post_init__ runs for every
# validated construction, not for CellField.adopt.
METHODS = {
    "SourceDescriptor.eval": (source.SourceDescriptor, "eval"),
    "CellField": (mesh.CellField, "__post_init__"),
    "CellField.adopt": (mesh.CellField, "adopt"),
    "YieldLoss.rate_at": (factory.YieldLoss, "rate_at"),
}

# testcase2 at 200 cells to t = 0.5: 80 steps. The sink interpolates c(x)
# once per run on the grid's cell centres; `verify` adds one interpolation
# on its property probes. A line run takes its loads from arrays, calling
# `wip` once to check the domain, and builds no CellField per step: the
# states stay arrays unless a reader asks for a field, and neither mode
# reads the final field.
# converge on burgers_shock, 2 levels from 25 cells: 14 + 28 = 42 steps,
# each entropy check under Godunov making two eval_flux calls (the kink rows
# with their midpoints, then the vertices) and two critical_points calls
# (its k rows, and Godunov's extremum pass in the first call). Each level
# builds its final field, for the error against the exact solution.
PINS = {
    ("simulate", "upwind-linear"): {
        "split_step": 80,
        "eval_flux": 80, "critical_points": 0, "wip": 1,
        "SourceDescriptor.eval": 80, "CellField": 1, "CellField.adopt": 0,
        "YieldLoss.rate_at": 1,
    },
    ("verify", "godunov"): {
        "split_step": 80,
        "eval_flux": 82, "critical_points": 80, "wip": 1,
        "SourceDescriptor.eval": 161, "CellField": 1, "CellField.adopt": 0,
        "YieldLoss.rate_at": 2,
    },
    ("converge", "burgers_shock"): {
        "split_step": 42,
        "eval_flux": 126, CHECK_FLUX: 84, "critical_points": 168,
        "CellField.adopt": 2,
    },
}

# Python-level calls into the package on a second, warm run of the same
# config, counted with sys.setprofile. Python 3.12 inlines comprehensions
# (PEP 709), so its counts are equal or lower and the pins bound both.
# Each step reads the boundary schedules once, for both its dt and its
# transport. A line step's flux takes its speed without calling f. An
# entropy check of a line step makes ten: itself, critical_points and its
# comprehension, the sink and its descriptor, _is_upwind, f and its
# descriptor, the source term and the ranking's comprehension.
PYTHON_CALL_PINS = {
    ("simulate", "upwind-linear"): 2801,
    ("verify", "godunov"): 4064,
    ("converge", "burgers_shock"): 3007,
}
PACKAGE_DIR = os.path.dirname(os.path.abspath(splitfv.__file__)) + os.sep


def write_config(tmp_path, mode: str, subject: str):
    """A line run under flux `subject`, or a converge study of problem
    `subject`."""
    config = tmp_path / "run.cfg"
    if mode == "converge":
        keys = f"problem = {subject}\nlevels = 2\nbase_cells = 25\n"
    else:
        keys = (f"preset = testcase2\nflux = {subject}\n"
                "n_cells = 200\nt_final = 0.5\n")
    config.write_text(
        f"mode = {mode}\n{keys}output_dir = {tmp_path / 'out'}\n")
    return config


def install_counters(monkeypatch) -> dict[str, int]:
    counts = {name: 0 for name in (*FUNCTIONS, *METHODS, CHECK_FLUX)}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if name != "entropy_residual_max":
                return fn(*args, **kwargs)
            flux_calls = counts["eval_flux"]
            try:
                return fn(*args, **kwargs)
            finally:
                counts[CHECK_FLUX] += counts["eval_flux"] - flux_calls
        return wrapper

    modules = [m for key, m in sorted(sys.modules.items())
               if m is not None and key.split(".")[0] == "splitfv"]
    for name, (home, attr) in FUNCTIONS.items():
        original = getattr(home, attr)
        wrapper = counted(name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapper)
    for name, (cls, attr) in METHODS.items():
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(counted(name, original.__func__))
        else:
            wrapped = counted(name, original)
        monkeypatch.setattr(cls, attr, wrapped)
    return counts


@pytest.mark.parametrize("mode,subject", sorted(PINS))
def test_short_run_stays_within_its_call_counts(mode, subject, tmp_path,
                                                monkeypatch):
    config = write_config(tmp_path, mode, subject)
    counts = install_counters(monkeypatch)
    assert cli.main([str(config)]) == 0
    monkeypatch.undo()
    pins = dict(PINS[(mode, subject)])
    assert counts["split_step"] == pins.pop("split_step")
    over = {name: (counts[name], pin) for name, pin in pins.items()
            if counts[name] > pin}
    assert not over, f"counts above their pins (count, pin): {over}"


@pytest.mark.parametrize("mode,subject", sorted(PYTHON_CALL_PINS))
def test_warm_run_stays_within_its_python_calls(mode, subject, tmp_path):
    config = write_config(tmp_path, mode, subject)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([str(config)]) == 0  # warm-up: imports, caches
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE_DIR):
            calls += 1

    previous = sys.getprofile()
    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            code = cli.main([str(config)])
        finally:
            sys.setprofile(previous)
    assert code == 0
    pin = PYTHON_CALL_PINS[(mode, subject)]
    assert calls <= pin, f"{calls} Python-level calls, pin {pin}"
