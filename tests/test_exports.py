"""Every public name list of the package names something that exists."""

import importlib
import pkgutil

import pytest

import ehaoi

MODULES = ["ehaoi"] + [f"ehaoi.{info.name}" for info in pkgutil.iter_modules(ehaoi.__path__)]
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


def test_the_simulator_and_every_layer_export_names():
    assert {"ehaoi", "ehaoi.aoi", "ehaoi.energy_chain", "ehaoi.fbl", "ehaoi.optimizer",
            "ehaoi.sim"} <= set(EXPORTING)


@pytest.mark.parametrize("module", EXPORTING)
def test_every_all_entry_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, missing
    assert len(set(mod.__all__)) == len(mod.__all__)


@pytest.mark.parametrize("module", EXPORTING)
def test_star_import_binds_every_all_entry(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(importlib.import_module(module).__all__) <= set(namespace)
