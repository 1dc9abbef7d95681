"""Bit-for-bit guard: every series of three short runs against recorded digests.

The digests are sha256 prefixes of the float64 bytes of each series,
recorded with the CellField-per-stage step that preceded the array-level
one; those of the entropy checks' cell and k series with the sorted k-row
search that preceded the unsorted one. A change that moves any float of a
run (a reordered sum, a fused product, a dropped rounding) changes a
digest; the tolerances of the other tests would let it pass.
"""

from __future__ import annotations

import hashlib
from unittest import mock

import numpy as np
import pytest

from splitfv import (
    EntropyObserver,
    TimeAxis,
    build_grid,
    burgers_shock_problem,
    preset_scenario,
    run_factory,
    solve_on_grid,
)
import splitfv.verify

SERIES = ("times", "dts", "linf", "tv", "tv_interior", "ghost_left",
          "ghost_right")


def digest(values) -> str:
    data = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    return hashlib.sha256(data.tobytes()).hexdigest()[:16]


def report_digests(report, extra=()) -> dict[str, str]:
    """Digest of every series, channel and checkpoint of a run, and of its
    final field, plus any (name, values) pairs in `extra`."""
    out = {name: digest(getattr(report, name)) for name in SERIES}
    for name, series in report.channels.items():
        out[f"channel {name}"] = digest(series)
    for t, values in report.checkpoints.items():
        out[f"checkpoint {t!r}"] = digest(values)
    out["final"] = digest(report.final_field.values)
    for name, values in extra:
        out[name] = digest(values)
    return out


def line_digests(flux_kind: str) -> dict[str, str]:
    scenario = preset_scenario("testcase2")
    entropy = EntropyObserver()
    report = run_factory(scenario.model, scenario.initial_density,
                         TimeAxis(t_final=2.0), flux_kind=flux_kind,
                         observers=[entropy],
                         checkpoint_times=(0.0, 1.0, 2.0),
                         grid=build_grid(0.0, 1.0, 200))
    residuals = [r.max_residual for r in entropy.results]
    return report_digests(report, [("entropy", residuals),
                                   *winner_series(entropy.results)])


def winner_series(results) -> list[tuple[str, list]]:
    """The cell and k series of a run's entropy checks."""
    return [("entropy cell", [r.cell_index for r in results]),
            ("entropy k", [r.k_value for r in results])]


def shock_digests() -> dict[str, str]:
    kept = []

    class Kept(EntropyObserver):
        def __init__(self):
            super().__init__()
            kept.append(self)

    with mock.patch.object(splitfv.verify, "EntropyObserver", Kept):
        _, report, entropy_max = solve_on_grid(burgers_shock_problem(), 50,
                                               entropy_check=True)
    (entropy,) = kept
    return report_digests(report, [("entropy max", [entropy_max]),
                                   *winner_series(entropy.results)])


RECORDED = {
    "line upwind-linear": {
        "channel influx": "0e65a2738cd4f6c0",
        "channel outflux": "df0c82b3b2daa979",
        "channel velocity": "2bb2a6365113cbab",
        "channel wip": "e4439be4ca38dd0c",
        "checkpoint 0.0": "5b89d51e47351cb8",
        "checkpoint 1.0": "e3a34825f5cfc2e3",
        "checkpoint 2.0": "3e64e5ace2da4c0d",
        "dts": "cc55a0c9648f4ec5",
        "entropy": "69f3753b6beabab5",
        "entropy cell": "f67086ebd4efd5b3",
        "entropy k": "8548d05b5671fd7e",
        "final": "3e64e5ace2da4c0d",
        "ghost_left": "bad0f3dbcf83739d",
        "ghost_right": "f29c25fedc396d4e",
        "linf": "900ae8d55d79a091",
        "times": "2c56f55383b73037",
        "tv": "c46d865d5a71437f",
        "tv_interior": "c342653752c815ac",
    },
    "line godunov": {
        "channel influx": "0e65a2738cd4f6c0",
        "channel outflux": "df0c82b3b2daa979",
        "channel velocity": "2bb2a6365113cbab",
        "channel wip": "e4439be4ca38dd0c",
        "checkpoint 0.0": "5b89d51e47351cb8",
        "checkpoint 1.0": "e3a34825f5cfc2e3",
        "checkpoint 2.0": "3e64e5ace2da4c0d",
        "dts": "cc55a0c9648f4ec5",
        "entropy": "69f3753b6beabab5",
        "entropy cell": "f67086ebd4efd5b3",
        "entropy k": "8548d05b5671fd7e",
        "final": "3e64e5ace2da4c0d",
        "ghost_left": "bad0f3dbcf83739d",
        "ghost_right": "f29c25fedc396d4e",
        "linf": "900ae8d55d79a091",
        "times": "2c56f55383b73037",
        "tv": "c46d865d5a71437f",
        "tv_interior": "c342653752c815ac",
    },
    "burgers shock": {
        "dts": "015751ef80511a4b",
        "entropy cell": "8107a1ae5981b3e8",
        "entropy k": "6da72c657abff45d",
        "entropy max": "2d800a0299aa6fb1",
        "final": "33db5e7781752a84",
        "ghost_left": "d453d79d97d74088",
        "ghost_right": "6eb69e26de2a26ed",
        "linf": "354e0215d988a0f4",
        "times": "500163cd1b5598fa",
        "tv": "8e649d676716eb98",
        "tv_interior": "a9a734aef264eded",
    },
}
RUNS = {
    "line upwind-linear": lambda: line_digests("upwind-linear"),
    "line godunov": lambda: line_digests("godunov"),
    "burgers shock": shock_digests,
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_every_series_matches_its_recorded_digest(name):
    got = RUNS[name]()
    moved = {key: (value, RECORDED[name].get(key))
             for key, value in got.items()
             if value != RECORDED[name].get(key)}
    assert not moved, f"series off their recorded digests (now, recorded): {moved}"
