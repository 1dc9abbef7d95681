"""Tests of the benchmark itself: span arithmetic, normalisation, inputs, smoke runs.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _table(spans, counts=None) -> tracer.SpanTable:
    """Spans as (name, start, end, parent index, size), parents listed first."""
    names = sorted({s[0] for s in spans})
    col = list(zip(*spans))
    return tracer.SpanTable(
        names=names,
        name=np.array([names.index(n) for n in col[0]], dtype=np.int32),
        start=np.array(col[1], dtype=float),
        end=np.array(col[2], dtype=float),
        parent=np.array(col[3], dtype=np.int64),
        op=np.zeros(len(spans), dtype=np.int32),
        size=np.array(col[4], dtype=float),
        counts=counts or {},
    )


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] and c [5, 9]; a holds b [2, 3].
    parent = np.array([-1, 0, 1, 0])
    duration = np.array([10.0, 3.0, 1.0, 4.0])
    np.testing.assert_allclose(tracer.self_times(parent, duration),
                               [3.0, 2.0, 1.0, 4.0])


def test_has_ancestor_follows_the_whole_chain():
    parent = np.array([-1, 0, 1, 2, 0, -1])
    marked = np.array([False, True, False, False, False, False])
    assert tracer.has_ancestor(parent, marked).tolist() == [
        False, False, True, True, False, False]


def test_per_interface_and_per_cell_step_normalisation():
    # One operation of two steps on 100 cells; each step evaluates the
    # Godunov flux on 101 interfaces and builds one field.
    spans = [
        ("bench.operation", 0.0, 1.0, -1, 0),
        ("splitting.march", 0.0, 1.0, 0, 0),
        ("splitting.record_step", 0.1, 0.2, 1, 100),
        ("flux.eval_flux.godunov", 0.2, 0.2 + 101e-6, 1, 101),
        ("mesh.CellField", 0.3, 0.3 + 50e-6, 1, 0),
        ("splitting.record_step", 0.5, 0.6, 1, 100),
        ("flux.eval_flux.godunov", 0.6, 0.6 + 303e-6, 1, 101),
        ("mesh.CellField", 0.7, 0.7 + 150e-6, 1, 0),
    ]
    m = tracer.layer_metrics(_table(spans))
    assert m["flux.eval_flux.godunov.ns_per_interface"] == pytest.approx(2000.0)
    assert m["flux.eval_flux.upwind-linear.ns_per_interface"] == 0.0
    assert m["flux.eval_flux.calls_per_step"] == 1.0
    assert m["mesh.CellField.per_step"] == 1.0
    assert m["mesh.self_us_per_step"] == pytest.approx(100.0)
    assert m["mesh.ns_per_cell_step"] == pytest.approx(1000.0)
    assert m["splitting.step_us.p50"] == pytest.approx(4e5)
    assert m["splitting.step_us.count"] == 1.0
    assert m["splitting.march.self_us_per_step"] == pytest.approx(
        (1.0 - 0.2 - 404e-6 - 200e-6) / 2 * 1e6)
    assert set(m) | {"setup.import_s", "setup.scipy_import_s", "setup.first_s",
                     "trace.overhead_s"} == {name for name, _, _ in tracer.PER_LAYER}


def test_scipy_import_time_counts_each_subtree_once():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     scipy._lib",
        "import time:        20 |         30 |   scipy",
        "import time:         5 |          5 |   numpy.core",
        "import time:       100 |        135 | scipy.integrate",
        "import time:         7 |          7 |   scipy.special",
        "import time:        50 |         57 | splitfv.flux",
    ])
    assert bench.scipy_import_seconds(log) == pytest.approx(142e-6)


def _config(op) -> dict[str, str]:
    return dict(op.parts[0].config)


def test_default_seed_is_the_preset_and_other_seeds_draw_in_range():
    for workload in workloads.LINE_SHAPES:
        ops = workloads.operations(workload, workloads.DEFAULT_SEED)
        assert _config(next(ops))["preset"] == "testcase2"
        drawn = workloads.operations(workload, 7)
        again = workloads.operations(workload, 7)
        for _ in range(20):
            cfg = _config(next(drawn))
            assert cfg == _config(next(again))
            assert cfg["cfl_number"] == "0.9" and cfg["dt_max"] == "0.1"
            for key in ("influx_before", "influx_after"):
                assert 2.0 <= float(cfg[key]) <= 2.2
            rates = [float(p.split(":")[1]) for p in cfg["profile_breakpoints"].split(",")]
            assert all(0.01 <= r <= 0.05 for r in rates)
            assert ("seed" in cfg) == (workload == "line-verify")


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_first_operation_passes_its_output_check(workload, seed, tmp_path):
    op = next(workloads.operations(workload, seed))
    outs = workloads.prepare(op, tmp_path)
    results = [workloads.execute(p, o) for p, o in zip(op.parts, outs)]
    assert [workloads.check_part(r) for r in results] == [[]] * len(results)
    assert all(workloads.count_cell_steps(r, tmp_path, {}) > 0 for r in results)


def test_output_check_catches_a_wrong_final_state(tmp_path):
    op = next(workloads.operations("line-simulate", workloads.DEFAULT_SEED))
    (part,) = op.parts
    wrong = type(part)(part.config, reference=(part.reference[0] * (1 + 1e-9),
                                               part.reference[1]))
    (out,) = workloads.prepare(workloads.Operation((wrong,)), tmp_path)
    problems = workloads.check_part(workloads.execute(wrong, out))
    assert len(problems) == 1 and "final WIP" in problems[0]


def test_coverage_guard_names_every_span_that_never_occurred():
    table = _table([("bench.operation", 0.0, 1.0, -1, 0),
                    ("splitting.march", 0.0, 1.0, 0, 0)])
    missing = tracer.check_coverage(table, "refine")
    assert "splitting.march" not in missing
    assert set(missing) == tracer.EXPECTED_SPANS["refine"] - {"splitting.march"}


def test_install_wraps_every_binding_and_uninstall_restores_them():
    from splitfv import cli, factory, mesh

    original = factory.run_factory
    post_init = mesh.CellField.__dict__["__post_init__"]
    inst = tracer.install(tracer.SpanLog())
    try:
        assert cli.run_factory is factory.run_factory is not original
        assert "splitfv.cli.run_factory" in tracer.installed_wrappers()
    finally:
        inst.uninstall()
    assert tracer.installed_wrappers() == []
    assert cli.run_factory is factory.run_factory is original
    assert mesh.CellField.__dict__["__post_init__"] is post_init


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracer.PER_LAYER)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric(trace):
    proc = _run(ROOT, "--workload", "line-simulate", "--seed", "3",
                "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_command_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "refine", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
