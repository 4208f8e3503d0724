"""Import layering and the public surface of the package.

The simulation side stays numpy-free.  A static scan follows each module's
own imports through the source, so it names the module that breaks the
rule; a fresh interpreter confirms that importing the simulation side
really leaves numpy unloaded.  A second scan keeps the public surface to
what the package itself, the benchmark or the console script uses.
"""

import ast
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "testtrim"
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


def test_simulation_side_import_leaves_numpy_unloaded():
    code = ("import sys, testtrim.netlist, testtrim.generator, testtrim.faultsim, "
            "testtrim.diagnosis; print('numpy' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"


def _public_definitions() -> list[str]:
    """``module.name`` of every public top-level function and class, and
    ``module.Class.name`` of every public method or property of a public
    class, in the package (its ``__init__`` aside)."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            found.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                found += [f"{path.stem}.{node.name}.{item.name}" for item in node.body
                          if isinstance(item, ast.FunctionDef) and item.name[0] != "_"]
    return found


def _used_names() -> set[str]:
    """Names the package (its ``__init__`` aside) and the benchmark use:
    every ``Name``, ``Attribute`` and imported name in their code, plus the
    console-script functions.  Docstrings and comments do not count."""
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    used |= {target.partition(":")[2] for target in scripts.values()}
    return used


def test_every_public_name_has_a_non_test_user():
    used = _used_names()
    unused = [name for name in _public_definitions() if name.rpartition(".")[2] not in used]
    assert unused == [], "public names that only tests use: " + ", ".join(unused)


def test_public_surface_scan_sees_definitions_and_uses():
    # the scan finds methods, properties and the console script, and skips docstrings
    defined = _public_definitions()
    assert {"faultsim.FaultDictionary.response", "netlist.Circuit.signal_count",
            "cli.entry"} <= set(defined)
    used = _used_names()
    assert {"response", "signal_count", "entry", "build_fault_dictionary"} <= used
    assert "Waicukauski" not in used
