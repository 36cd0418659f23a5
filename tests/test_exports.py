"""Each module's ``__all__`` names what the module defines, and the package
re-exports only names its modules export, so ``import *`` cannot break on a
stale entry."""

import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pqdec

MODULES = [m.name for m in pkgutil.iter_modules(pqdec.__path__) if m.name != "__main__"]


def test_every_exported_name_exists():
    for name in MODULES:
        module = importlib.import_module(f"pqdec.{name}")
        missing = [x for x in module.__all__ if not hasattr(module, x)]
        assert missing == [], f"pqdec.{name}.__all__ names missing {missing}"


def test_package_imports_only_exported_names():
    # The lazy table is the package's import list: each name it re-exports
    # comes from a module that exports it.
    assert set(pqdec._EXPORTS) <= set(MODULES)
    assert pqdec.__all__ == [name for names in pqdec._EXPORTS.values() for name in names]
    for module, names in pqdec._EXPORTS.items():
        exported = importlib.import_module(f"pqdec.{module}").__all__
        stray = [name for name in names if name not in exported]
        assert stray == [], f"pqdec re-exports {stray} from pqdec.{module}, not in its __all__"
    assert {*pqdec.__all__, *pqdec._EXPORTS} <= set(dir(pqdec))
    assert not hasattr(pqdec, "no_such_name")
    src = str(Path(pqdec.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import pqdec; from pqdec import *; print(sorted(set(pqdec.__all__) - set(globals())))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True).stdout
    assert out.strip() == "[]"


def test_exported_dataclasses_are_frozen_and_slotted():
    # A kept result carries no per-instance __dict__, and no caller can
    # rebind a field of a checked value.
    classes = [
        getattr(module, x)
        for module in map(importlib.import_module, (f"pqdec.{name}" for name in MODULES))
        for x in module.__all__
        if dataclasses.is_dataclass(getattr(module, x))
    ]
    assert len(classes) == 11
    for cls in classes:
        assert cls.__dataclass_params__.frozen, f"{cls.__name__} is not frozen"
        assert "__slots__" in vars(cls), f"{cls.__name__} has no __slots__"
