"""Guards on the package's public names."""

from __future__ import annotations

import importlib

import pytest

import splitfv
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
