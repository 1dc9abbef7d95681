"""Tests for the config-driven command line front end."""

from __future__ import annotations

import contextlib
import io
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitfv import EntropyObserver, build_grid, run_factory
from splitfv import source as source_module
from splitfv.cli import (
    ConfigError,
    build_setup,
    load_config,
    main,
    parse_config_text,
)


def write_config(tmp_path, text: str, name: str = "run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


# =============================================================
# Config parsing
# =============================================================

class TestParseConfig:
    def test_parses_keys_and_strips_comments(self):
        cfg = parse_config_text(
            "# a full-line comment\n"
            "\n"
            "preset = testcase1\n"
            "t_final = 2.0   # trailing comment\n"
            "  n_cells = 50\n"
        )
        assert cfg == {"preset": "testcase1", "t_final": "2.0", "n_cells": "50"}

    def test_missing_equals_reports_the_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("preset = testcase1\njust words\n")

    def test_empty_key(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_config_text("= 3\n")

    def test_unknown_key_lists_known_ones(self):
        with pytest.raises(ConfigError, match="unknown key 'colour'"):
            parse_config_text("colour = blue\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="line 2: duplicate key"):
            parse_config_text("t_final = 1\nt_final = 2\n")

    def test_empty_value(self):
        with pytest.raises(ConfigError, match="empty value for key 't_final'"):
            parse_config_text("t_final =   # nothing here\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.cfg")


# =============================================================
# Setup resolution
# =============================================================

class TestBuildSetup:
    def test_defaults(self):
        setup = build_setup({})
        assert setup.flux_kind == "upwind-linear"
        assert setup.n_cells == 200
        assert setup.time_axis.t_final == 5.0
        assert setup.time_axis.dt_max == 0.1
        assert setup.time_axis.cfl_number == 0.9
        assert setup.snapshot_times == [5.0]
        assert str(setup.output_dir) == "out"
        assert setup.seed == 0
        assert setup.model.v0 == 1.0
        assert setup.model.max_load == 10.0
        assert setup.model.influx(-1.0) == 2.016
        assert setup.model.influx(0.0) == 2.139
        assert setup.initial_density == pytest.approx(2.8, rel=1e-13)

    def test_preset_conflicts_with_model_keys(self):
        with pytest.raises(ConfigError, match="preset fixes the model"):
            build_setup({"preset": "testcase1", "v0": "2.0"})

    def test_refinement_keys_are_rejected(self):
        with pytest.raises(ConfigError, match="no refinement keys"):
            build_setup({"levels": "3"})

    def test_preset_notes_surface_for_testcase2(self):
        setup = build_setup({"preset": "testcase2"})
        assert any("stand-in" in note for note in setup.notes)

    @pytest.mark.parametrize("cfg,match", [
        ({"source_kind": "constant-rate", "source_rate": "0.03",
          "profile_breakpoints": "0:0.1,1:0.2"}, "piecewise-linear"),
        ({"source_kind": "piecewise-linear", "source_rate": "0.03",
          "profile_breakpoints": "0:0.1,1:0.2"}, "constant-rate"),
        ({"source_kind": "piecewise-linear"}, "needs 'profile_breakpoints'"),
        ({"source_rate": "0.03"}, "matching source_kind"),
    ])
    def test_source_key_consistency(self, cfg, match):
        with pytest.raises(ConfigError, match=match):
            build_setup(cfg)

    def test_piecewise_profile_round_trips(self):
        setup = build_setup({
            "source_kind": "piecewise-linear",
            "profile_breakpoints": "0:0.01, 0.5:0.05, 1:0.02",
        })
        loss = setup.model.yield_loss
        assert loss.kind == "piecewise-linear"
        assert loss.breakpoints == ((0.0, 0.01), (0.5, 0.05), (1.0, 0.02))

    def test_malformed_breakpoint(self):
        with pytest.raises(ConfigError, match="position:rate"):
            build_setup({"source_kind": "piecewise-linear",
                         "profile_breakpoints": "0:0.01, 0.5"})

    def test_snapshot_outside_the_window(self):
        with pytest.raises(ConfigError, match="outside the run window"):
            build_setup({"t_final": "1.0", "snapshot_times": "0.5, 1.5"})

    def test_cfl_above_one_is_refused(self):
        with pytest.raises(ConfigError, match="cfl_number"):
            build_setup({"cfl_number": "2.0"})

    def test_too_few_cells(self):
        with pytest.raises(ConfigError, match="n_cells"):
            build_setup({"n_cells": "1"})

    def test_overloaded_influx_is_a_config_error(self):
        with pytest.raises(ConfigError, match="capacity"):
            build_setup({"influx_before": "2.6"})

    @pytest.mark.parametrize("key", ["influx_before", "influx_after"])
    def test_negative_influx_is_refused(self, key):
        with pytest.raises(ConfigError, match=key):
            build_setup({key: "-1"})

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", [
        "jump_time", "influx_before", "influx_after", "v0", "max_load",
        "t_final", "dt_max", "cfl_number",
    ])
    def test_non_finite_number_is_refused(self, key, value):
        with pytest.raises(ConfigError, match=f"{key}.*finite"):
            build_setup({key: value})

    @pytest.mark.parametrize("value", ["0.5, nan", "inf", "0, -inf"])
    def test_non_finite_snapshot_time_is_refused(self, value):
        with pytest.raises(ConfigError, match="snapshot_times.*finite"):
            build_setup({"t_final": "1.0", "snapshot_times": value})

    @pytest.mark.parametrize("value", [
        "0:0.01, 0.5:nan, 1:0.02", "0:0.01, inf:0.02", "-inf:0.01, 1:0.02",
    ])
    def test_non_finite_breakpoint_is_refused(self, value):
        with pytest.raises(ConfigError, match="profile_breakpoints.*finite"):
            build_setup({"source_kind": "piecewise-linear",
                         "profile_breakpoints": value})

    def test_snapshot_times_sharing_a_file_name_are_refused(self):
        with pytest.raises(ConfigError, match="snapshot_times.*snapshot_0.5.csv"):
            build_setup({"t_final": "1.0",
                         "snapshot_times": "0.5, 0.5000000000001"})

    @pytest.mark.parametrize("value", ["-1", "-2147483648"])
    def test_negative_seed_is_refused(self, value):
        with pytest.raises(ConfigError, match="'seed'.*non-negative"):
            build_setup({"seed": value})

    def test_duplicate_snapshot_times_are_kept_once(self):
        setup = build_setup({"t_final": "1.0", "snapshot_times": "0.5, 0.5"})
        assert setup.snapshot_times == [0.5, 0.5]


# =============================================================
# End-to-end modes
# =============================================================

SIM_CFG = """
mode = simulate
preset = testcase1
t_final = 2.0
n_cells = 100
dt_max = 0.05
snapshot_times = 0.0, 1.0, 2.0
output_dir = {out}
"""

VERIFY_CFG = """
mode = verify
preset = {preset}
t_final = 1.0
n_cells = 50
dt_max = 0.05
output_dir = {out}
"""

CONVERGE_CFG = """
mode = converge
problem = advection_decay
levels = 2
base_cells = 40
output_dir = {out}
"""


class TestMainModes:
    def test_simulate_writes_timeseries_and_snapshots(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SIM_CFG.format(out=out))
        assert main([str(cfg)]) == 0
        stdout = capsys.readouterr().out
        assert "final state" in stdout
        series = np.genfromtxt(out / "timeseries.csv", delimiter=",", names=True)
        margin = 1.0 - series["wip"].max() / 10.0
        assert f"steps: {len(series) - 1}, lowest jam margin: {margin:.6g}\n" \
            in stdout
        ts = (out / "timeseries.csv").read_text().splitlines()
        assert ts[0] == "t,wip,velocity,influx,outflux,tv,linf"
        assert len(ts) > 10
        first = ts[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(2.8, rel=1e-12)
        for t in ("0", "1", "2"):
            snap = out / f"snapshot_{t}.csv"
            assert snap.is_file()
            lines = snap.read_text().splitlines()
            assert lines[0] == "x,u"
            assert len(lines) == 101

    def test_simulate_output_is_deterministic(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg_a = write_config(tmp_path, SIM_CFG.format(out=out_a), "a.cfg")
        cfg_b = write_config(tmp_path, SIM_CFG.format(out=out_b), "b.cfg")
        assert main([str(cfg_a)]) == 0
        assert main([str(cfg_b)]) == 0
        assert (out_a / "timeseries.csv").read_bytes() == \
            (out_b / "timeseries.csv").read_bytes()
        assert (out_a / "snapshot_2.csv").read_bytes() == \
            (out_b / "snapshot_2.csv").read_bytes()

    @pytest.mark.parametrize("preset", ["testcase1", "testcase2"])
    def test_verify_passes_on_presets(self, tmp_path, capsys, preset):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, VERIFY_CFG.format(preset=preset, out=out))
        assert main([str(cfg)]) == 0
        stdout = capsys.readouterr().out
        assert "all checks passed" in stdout
        report = (out / "verify_report.csv").read_text().splitlines()
        assert report[0] == "check,status,value,threshold,detail"
        body = "\n".join(report[1:])
        assert "FAIL" not in body
        for check in ("flux-consistency", "flux-monotonicity",
                      "entropy-residual", "linf-bound", "tv-bound"):
            assert check in body
        if preset == "testcase2":
            assert "stand-in" in body

    JUMP = "n_cells = 100\nt_final = 2\n"
    # At the sink's contraction limit dt sits just under 1 / source_rate.
    SINK_LIMIT = ("v0 = 0.125\nmax_load = 1.0\nn_cells = 10\nt_final = 1.0\n"
                  "cfl_number = 1.0\ndt_max = 1.0\n"
                  "source_kind = constant-rate\nsource_rate = 2.0\n")

    @pytest.mark.parametrize("model", [
        JUMP + "influx_before = 2.0\ninflux_after = 2.3\n",
        JUMP + "influx_before = 2.4\ninflux_after = 2.0\n",
        JUMP + "influx_before = 0.5\ninflux_after = 2.0\njump_time = 0.5\n"
        "source_kind = constant-rate\nsource_rate = 0.03\n",
        JUMP + "influx_before = 0\ninflux_after = 0\n",
        # Zero envelopes: exactly 0 at every time, not inf * 0 = nan.
        SINK_LIMIT + "influx_before = 0\ninflux_after = 0\n",
        SINK_LIMIT + "influx_before = 0.01\ninflux_after = 0.01\n",
    ], ids=["rise-15%", "drop-17%", "rise-4x-under-sink", "empty-line",
            "sink-limit-empty-line", "sink-limit"])
    def test_verify_passes_valid_runs(self, tmp_path, capsys, model):
        # The paper's scenario is an influx jump: the new state leaves the
        # old value range, which no check may count against the run. The
        # empty line has no value range at all.
        out = tmp_path / "out"
        cfg = write_config(tmp_path,
                           f"mode = verify\n{model}output_dir = {out}\n")
        assert main([str(cfg)]) == 0, capsys.readouterr().err
        stdout = capsys.readouterr().out
        assert "all checks passed" in stdout
        assert "PASS linf-bound" in stdout and "PASS tv-bound" in stdout

    @pytest.mark.parametrize("text", [
        "preset = testcase1\ncfl_number = 1.0\nt_final = 2\nn_cells = 50\n",
        "source_kind = constant-rate\nsource_rate = 5\nn_cells = 10\n"
        "dt_max = 1.0\ncfl_number = 0.9\n",
    ])
    def test_sink_speed_up_stays_within_the_cfl_limit(self, tmp_path, capsys,
                                                      text):
        # The sink lowers the load within a step and so speeds up transport;
        # dt must be sized for that speed, not the pre-step one.
        out = tmp_path / "out"
        cfg = write_config(tmp_path, text + f"output_dir = {out}\n")
        assert main([str(cfg)]) == 0, capsys.readouterr().err
        assert (out / "timeseries.csv").is_file()

    def test_dt_stays_below_the_sink_contraction_limit(self, tmp_path, capsys,
                                                       monkeypatch):
        # The CFL step at this speed is longer than 1 / source_rate, the
        # limit of the implicit sink solve; dt must stay under both. There
        # the fixed point does not converge, and the linear sink's closed
        # form must stand in for the per-cell bisection.
        rescued = []
        monkeypatch.setattr(source_module, "_bracketed_rescue",
                            lambda *args: rescued.append(args))
        out = tmp_path / "out"
        cfg = write_config(tmp_path, (
            "v0 = 0.5\n"
            "source_kind = constant-rate\n"
            "source_rate = 5\n"
            "influx_before = 0.5\n"
            "influx_after = 0.6\n"
            "max_load = 10\n"
            "n_cells = 10\n"
            "dt_max = 1.0\n"
            "snapshot_times = 1, 2, 3, 4, 5\n"
            f"output_dir = {out}\n"
        ))
        assert main([str(cfg)]) == 0, capsys.readouterr().err
        assert rescued == []
        series = np.genfromtxt(out / "timeseries.csv", delimiter=",", names=True)
        assert series["wip"].max() < 10.0
        snapshots = sorted(out.glob("snapshot_*.csv"))
        assert len(snapshots) == 5
        for path in snapshots:
            snap = np.genfromtxt(path, delimiter=",", names=True)
            assert snap["u"].min() >= 0.0

    def test_converge_advection(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, CONVERGE_CFG.format(out=out))
        assert main([str(cfg)]) == 0
        stdout = capsys.readouterr().out
        assert "PASS final observed order" in stdout
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "n_cells,l1_error,entropy_max,order"
        assert len(lines) == 3

    def test_converge_rejects_model_keys(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "mode = converge\npreset = testcase1\n")
        assert main([str(cfg)]) == 2
        assert "only refinement keys" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-0.5", "1.5"])
    def test_converge_refuses_cfl_outside_the_unit_interval(self, tmp_path,
                                                           capsys, value):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, CONVERGE_CFG.format(out=out)
                           + f"cfl_number = {value}\n")
        assert main([str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "cfl_number" in err
        assert not out.exists()

    @pytest.mark.parametrize("line,key", [
        ("n_cells = 400", "n_cells"),
        ("t_final = 3", "t_final"),
    ])
    def test_converge_refuses_keys_it_ignores(self, tmp_path, capsys, line,
                                              key):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, CONVERGE_CFG.format(out=out) + line + "\n")
        assert main([str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "only refinement keys" in err
        assert key in err
        assert not out.exists()


class TestMainErrors:
    def test_bad_cfl_exits_with_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "preset = testcase1\ncfl_number = 2.0\n")
        assert main([str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "cfl_number" in err

    def test_unknown_preset(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "preset = testcase7\n")
        assert main([str(cfg)]) == 2
        assert "preset" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.cfg")]) == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("line,key", [
        ("jump_time = nan", "jump_time"),
        ("influx_before = nan", "influx_before"),
        ("influx_before = -1", "influx_before"),
        ("influx_after = -0.5", "influx_after"),
        ("snapshot_times = 0.5, 0.5000000000001", "snapshot_times"),
    ])
    def test_bad_model_value_exits_with_config_error(self, tmp_path, capsys,
                                                     line, key):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, f"t_final = 1.0\n{line}\noutput_dir = {out}\n")
        assert main([str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert key in err
        assert not out.exists()

    @pytest.mark.parametrize("lines", [
        "max_load = 1e200\n",
        "v0 = 1e300\nmax_load = 1e300\ninflux_before = 1e300\n"
        "influx_after = 1e300\n",
    ])
    def test_overflowing_steady_density_names_max_load(self, tmp_path, capsys,
                                                       lines):
        # The steady density used to overflow to -inf or NaN here, and the
        # run then exited 1 on the non-finite initial field, naming no key.
        out = tmp_path / "out"
        cfg = write_config(tmp_path, f"t_final = 1.0\n{lines}output_dir = {out}\n")
        assert main([str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "max_load" in err
        assert not out.exists()

    def test_negative_seed_is_refused_before_the_run(self, tmp_path, capsys):
        # The seed reaches numpy only after the run; a negative one used to
        # get that far and then exit 1 without naming the key.
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "mode = verify\npreset = testcase1\n"
                                     f"seed = -1\noutput_dir = {out}\n")
        assert main([str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "'seed'" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "1e-13", "1e-12"])
    def test_verify_refuses_a_run_without_steps(self, tmp_path, capsys, value):
        # No step is taken up to t_final = 1e-12; verify used to run and then
        # exit 1 with "no steps observed".
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "mode = verify\npreset = testcase1\n"
                                     f"t_final = {value}\noutput_dir = {out}\n")
        assert main([str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "t_final" in err
        assert not out.exists()

    def test_simulate_accepts_a_zero_horizon(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "preset = testcase1\nt_final = 0\n"
                                     f"n_cells = 20\noutput_dir = {out}\n")
        assert main([str(cfg)]) == 0
        assert len((out / "timeseries.csv").read_text().splitlines()) == 2

    def test_duplicate_snapshot_time_writes_one_file(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, (
            "t_final = 1.0\n"
            "n_cells = 20\n"
            "snapshot_times = 0.5, 1.0, 0.5\n"
            f"output_dir = {out}\n"
        ))
        assert main([str(cfg)]) == 0
        assert sorted(p.name for p in out.glob("snapshot_*.csv")) == [
            "snapshot_0.5.csv", "snapshot_1.csv",
        ]

    def test_jammed_run_exits_nonzero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, (
            "v0 = 1.0\n"
            "max_load = 1.0\n"
            "influx_before = 0.05\n"
            "influx_after = 0.5\n"
            "t_final = 50.0\n"
            "n_cells = 25\n"
            f"output_dir = {tmp_path / 'out'}\n"
        ))
        assert main([str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "run refused" in err
        assert "line jammed at t=" in err


class TestEntryPoint:
    def test_installed_script_runs(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SIM_CFG.format(out=out))
        proc = subprocess.run(
            [sys.executable, "-m", "splitfv.cli", str(cfg)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "timeseries.csv").is_file()

    def test_import_does_not_load_scipy(self):
        code = (
            "import sys, splitfv.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


# =============================================================
# Random line configs
# =============================================================

@st.composite
def line_configs(draw):
    """Config text for a line with v0 in [0.1, 5], max_load in [0.5, 50] and
    influxes below its capacity v0 max_load / 4, often within 5% of it."""
    v0 = draw(st.floats(0.1, 5.0))
    max_load = draw(st.floats(0.5, 50.0))
    fractions = st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                          st.floats(0.95, 1.0, exclude_max=True))
    capacity = v0 * max_load / 4.0
    keys = {
        "flux": draw(st.sampled_from(["upwind-linear", "godunov"])),
        "v0": repr(v0),
        "max_load": repr(max_load),
        "n_cells": str(draw(st.integers(10, 100))),
        "t_final": repr(draw(st.floats(0.1, 1.0))),
        "cfl_number": repr(draw(st.one_of(st.just(1.0),
                                          st.floats(0.1, 1.0)))),
        "dt_max": repr(draw(st.floats(0.01, 1.0))),
        "influx_before": repr(draw(fractions) * capacity),
        "influx_after": repr(draw(fractions) * capacity),
    }
    rates = st.floats(0.0, 5.0)
    kind = draw(st.sampled_from(["none", "constant-rate", "piecewise-linear"]))
    keys["source_kind"] = kind
    if kind == "constant-rate":
        keys["source_rate"] = repr(draw(rates))
    elif kind == "piecewise-linear":
        xs = sorted(draw(st.sets(st.floats(0.0, 1.0), min_size=2, max_size=4)))
        keys["profile_breakpoints"] = ", ".join(
            f"{x!r}:{draw(rates)!r}" for x in xs)
    return "".join(f"{key} = {value}\n" for key, value in keys.items())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(line_configs())
def test_random_line_config_is_refused_or_runs_cleanly(text):
    try:
        setup = build_setup(parse_config_text(text))
    except ConfigError:
        return
    states = []
    entropy = EntropyObserver()
    report = run_factory(
        setup.model, setup.initial_density, setup.time_axis,
        flux_kind=setup.flux_kind,
        observers=[lambda rec: states.append(rec.field_after.values), entropy],
        grid=build_grid(0.0, 1.0, setup.n_cells),
    )
    states.insert(0, report.initial.values)
    assert min(float(snap.min()) for snap in states) >= 0.0
    assert max(report.channels["wip"]) < setup.model.max_load
    assert entropy.passed, entropy.worst
    # A run that stays valid passes every verify check.
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(f"mode = verify\n{text}output_dir = {tmp}\n")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([str(cfg)])
    assert code == 0, stdout.getvalue() + stderr.getvalue()
    assert "all checks passed" in stdout.getvalue()
