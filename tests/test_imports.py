"""Static import layering: the simulation side of the package stays numpy-free.

The check parses source files instead of importing them, because importing
any ``testtrim`` module first runs ``testtrim/__init__.py``, which loads the
model side too.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "testtrim"
SIMULATION_SIDE = ("netlist", "generator", "faultsim", "diagnosis")
MODEL_SIDE = ("dataset", "models", "evaluation")


def _imports(module: str) -> tuple[set[str], set[str]]:
    """``(package modules, outside top-level modules)`` that ``module``'s
    source imports anywhere in its body."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    inside, outside = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "testtrim":
                    inside.add(rest.split(".")[0])
                else:
                    outside.add(top)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                top, _, rest = (node.module or "").partition(".")
                if top != "testtrim":
                    outside.add(top)
                    continue
                base = rest
            else:
                base = node.module or ""
            if base:
                inside.add(base.split(".")[0])
            else:
                inside.update(alias.name for alias in node.names)
    inside.discard("")
    return inside, outside


def _reached(module: str) -> tuple[set[str], set[str]]:
    """Package modules and outside modules reachable from ``module`` by
    following the package's own imports."""
    seen, outside, todo = set(), set(), [module]
    while todo:
        current = todo.pop()
        if current in seen:
            continue
        seen.add(current)
        inside, out = _imports(current)
        outside |= out
        todo.extend(inside)
    return seen, outside


@pytest.mark.parametrize("module", SIMULATION_SIDE)
def test_simulation_side_reaches_no_numpy_or_model_code(module):
    inside, outside = _reached(module)
    assert "numpy" not in outside, module
    assert not inside & set(MODEL_SIDE), (module, sorted(inside & set(MODEL_SIDE)))


def test_import_scan_sees_the_model_side():
    # the scan itself finds numpy and the model modules where they are
    inside, outside = _reached("evaluation")
    assert "numpy" in outside and {"dataset", "models"} <= inside
