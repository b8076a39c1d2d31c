"""Every name a module exports resolves."""

import importlib
import pkgutil

import pytest

import squeezelab

MODULES = ["squeezelab"] + [f"squeezelab.{info.name}"
                            for info in pkgutil.iter_modules(squeezelab.__path__)
                            if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []
