"""Each module's ``__all__`` names what the module defines, and the package
re-exports only names its modules export, so ``import *`` cannot break on a
stale entry."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pqdec

MODULES = [m.name for m in pkgutil.iter_modules(pqdec.__path__) if m.name != "__main__"]


def test_every_exported_name_exists():
    for name in MODULES:
        module = importlib.import_module(f"pqdec.{name}")
        missing = [x for x in module.__all__ if not hasattr(module, x)]
        assert missing == [], f"pqdec.{name}.__all__ names missing {missing}"


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(pqdec.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert {node.module for node in imports} <= set(MODULES)
    assert imports
    for node in imports:
        exported = importlib.import_module(f"pqdec.{node.module}").__all__
        stray = [a.name for a in node.names if a.name not in exported]
        assert stray == [], f"pqdec imports {stray} from pqdec.{node.module}, not in its __all__"
