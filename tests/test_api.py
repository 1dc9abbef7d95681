"""Guards on the package's public names, signatures and README example."""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import inspect
import io
import re
from pathlib import Path

import pytest

import splitfv
import splitfv.cli
import splitfv.diagnostics

# Names that left splitfv.__all__ but stay importable from their modules.
MODULE_ONLY = {
    "BoundCheckResult": "diagnostics",
    "EntropyCheckResult": "diagnostics",
    "TimeBVReport": "diagnostics",
    "FACTORY_FLUX_KINDS": "factory",
    "FactoryScenario": "factory",
    "SteadyYieldState": "factory",
    "FluxMonotonicityReport": "flux",
    "SourcePropertyReport": "source",
    "JAM_VELOCITY_FLOOR": "splitting",
    "StepRecord": "splitting",
    "RefinementLevel": "verify",
    "RefinementResult": "verify",
    "TestProblem": "verify",
}


def test_every_public_name_resolves():
    for name in splitfv.__all__:
        assert getattr(splitfv, name) is not None, name


def test_public_names_are_unique_and_sorted():
    assert len(set(splitfv.__all__)) == len(splitfv.__all__)
    assert splitfv.__all__ == sorted(splitfv.__all__)


@pytest.mark.parametrize("name", ["EntropyProbe", "default_probe",
                                  "entropy_residual"])
def test_probe_form_of_the_entropy_check_is_gone(name):
    assert not hasattr(splitfv, name)
    assert not hasattr(splitfv.diagnostics, name)


@pytest.mark.parametrize("name", sorted(MODULE_ONLY))
def test_module_only_names_import_from_their_home(name):
    assert name not in splitfv.__all__
    module = importlib.import_module(f"splitfv.{MODULE_ONLY[name]}")
    assert getattr(module, name) is not None


@pytest.mark.parametrize("fn", [splitfv.run, splitfv.run_factory,
                                splitfv.fill_ghosts])
def test_drivers_read_the_time_from_one_place(fn):
    # The horizon lives in TimeAxis, the ghosts' time in the field.
    assert not {"t", "t_final"} & set(inspect.signature(fn).parameters)


def test_each_input_has_one_home():
    fields = {f.name for f in dataclasses.fields(splitfv.cli.SimulationSetup)}
    assert "t_final" not in fields
    assert list(inspect.signature(splitfv.entropy_residual_max).parameters) \
        == ["rec"]


def test_readme_example_prints_the_value_in_its_comment():
    # Every python block of the README runs on its own and prints the value
    # its last comment gives.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) >= 2
    for block in blocks:
        commented = float(re.findall(r"#\s*~([0-9.]+)", block)[-1])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, "README.md", "exec"), {})
        assert abs(float(out.getvalue()) - commented) <= 5e-5
