"""Every exported name resolves, so no deleted function is left listed."""

import importlib
import inspect

import pytest

import radapt

MODULES = (
    "analysis", "calibration", "cli", "core", "engine", "mapping", "outcomes",
    "posterior", "presets", "randlist", "rules",
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"radapt.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_names_are_module_exports():
    # importing radapt fails on a name its modules no longer define; each
    # name it re-exports is also listed in its module's __all__
    listed = set()
    for name in MODULES:
        listed.update(importlib.import_module(f"radapt.{name}").__all__)
    exported = {
        name for name, value in vars(radapt).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported - listed == set()
