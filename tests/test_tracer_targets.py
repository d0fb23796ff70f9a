"""Every callable the e2e benchmark's tracer wraps exists in ``src/``.

``benchmarks/e2e/layers.py`` names its targets as data — module paths,
function names, class and method names — and looks them up with
``getattr`` only when a traced run starts, so renaming one (say
``apply_chase_step``) passes every other tier-1 test and crashes the
benchmark.  This reads the two tables with ``ast``, without importing the
harness, and resolves each name against the package.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "layers.py"


def _table(name: str) -> tuple:
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == name:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{LAYERS} has no {name} table")


FUNCTIONS = _table("FUNCTIONS")
METHODS = _table("METHODS")


def test_tables_are_not_empty():
    assert FUNCTIONS and METHODS


@pytest.mark.parametrize("layer,module,names", FUNCTIONS, ids=str)
def test_traced_functions_exist(layer, module, names):
    mod = importlib.import_module(module)
    for name in names or ():
        assert callable(getattr(mod, name, None)), f"{layer}: {module}.{name} is gone"


@pytest.mark.parametrize("layer,module,cls,names", METHODS, ids=str)
def test_traced_methods_exist(layer, module, cls, names):
    owner = getattr(importlib.import_module(module), cls, None)
    assert isinstance(owner, type), f"{layer}: {module}.{cls} is gone"
    public = [attr for attr in vars(owner) if not attr.startswith("_")]
    for name in names or ():
        if name.endswith("*"):
            assert any(attr.startswith(name[:-1]) for attr in public), f"{layer}: no {cls}.{name}"
        else:
            assert callable(vars(owner).get(name)), f"{layer}: {cls}.{name} is gone"
