"""Exact call counts of two short CLI runs, pinned as upper bounds.

Counts repeat exactly for a fixed input, unlike timings, so they guard the
structural claims about a step (calls removed, records not built) without
timing noise. A change that lowers a count lowers its pin in the same
change; one that raises a count says why.
"""

from __future__ import annotations

import sys

import pytest

from splitfv import cli, factory, flux, mesh, source, splitting

# Functions counted at every package binding that holds them.
FUNCTIONS = {
    "split_step": (splitting, "split_step"),
    "eval_flux": (flux, "eval_flux"),
    "critical_points": (flux, "critical_points"),
    "wip": (factory, "wip"),
}
# Methods counted on their class; CellField.__post_init__ runs for every
# validated construction, not for CellField.adopt.
METHODS = {
    "SourceDescriptor.eval": (source.SourceDescriptor, "eval"),
    "CellField": (mesh.CellField, "__post_init__"),
}

# testcase2 at 200 cells to t = 0.5: 80 steps.
PINS = {
    ("simulate", "upwind-linear"): {
        "eval_flux": 80, "critical_points": 0, "wip": 162,
        "SourceDescriptor.eval": 80, "CellField": 1,
    },
    ("verify", "godunov"): {
        "eval_flux": 82, "critical_points": 80, "wip": 162,
        "SourceDescriptor.eval": 161, "CellField": 1,
    },
}


def install_counters(monkeypatch) -> dict[str, int]:
    counts = {name: 0 for name in (*FUNCTIONS, *METHODS)}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
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
        monkeypatch.setattr(cls, attr, counted(name, cls.__dict__[attr]))
    return counts


@pytest.mark.parametrize("mode,flux_kind", sorted(PINS))
def test_short_line_run_stays_within_its_call_counts(mode, flux_kind,
                                                     tmp_path, monkeypatch):
    config = tmp_path / "run.cfg"
    config.write_text(
        f"mode = {mode}\npreset = testcase2\nflux = {flux_kind}\n"
        f"n_cells = 200\nt_final = 0.5\noutput_dir = {tmp_path / 'out'}\n"
    )
    counts = install_counters(monkeypatch)
    assert cli.main([str(config)]) == 0
    monkeypatch.undo()
    assert counts["split_step"] == 80
    pins = PINS[(mode, flux_kind)]
    over = {name: (counts[name], pin) for name, pin in pins.items()
            if counts[name] > pin}
    assert not over, f"counts above their pins (count, pin): {over}"
