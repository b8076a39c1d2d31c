"""Every name a module exports resolves, and submodules load on first use."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import squeezelab

SUBMODULES = [info.name for info in pkgutil.iter_modules(squeezelab.__path__)
              if info.name != "__main__"]
MODULES = ["squeezelab"] + [f"squeezelab.{name}" for name in SUBMODULES]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []


def test_package_names_are_the_submodules_own():
    for name in SUBMODULES:
        module = importlib.import_module(f"squeezelab.{name}")
        for attr in set(getattr(module, "__all__", ())) & set(squeezelab.__all__):
            assert getattr(squeezelab, attr) is getattr(module, attr)


def _fresh(code: str, *args: str) -> str:
    src = str(Path(squeezelab.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          check=True).stdout


def test_bare_import_loads_no_submodule():
    out = _fresh("import sys, squeezelab; "
                 "print([m for m in sys.modules if m.startswith('squeezelab.')])")
    assert out.strip() == "[]"


def test_every_name_and_submodule_resolves_in_a_fresh_process():
    code = ("import sys, squeezelab; names = [*squeezelab.__all__, *sys.argv[1:]]; "
            "print([n for n in names if not hasattr(squeezelab, n)], "
            "[n for n in names if n not in dir(squeezelab)])")
    assert _fresh(code, *SUBMODULES).strip() == "[] []"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        squeezelab.nonexistent  # noqa: B018
