"""Import layering and the public surface of the package.

The simulation side stays numpy-free, and the model side, which reads only
the trace record, loads no simulation code.  A static scan follows each
module's own imports through the source (imports under ``if
TYPE_CHECKING:`` do not run, so it skips them), so it names the module that
breaks a rule; fresh interpreters confirm that importing either side really
leaves the other's modules unloaded.  A second scan keeps the public surface to
what the package itself, the benchmark or the console script uses, and a
third keeps each optional parameter to one that some call there sets.  A
fourth keeps gate evaluation in ``netlist``: no other module branches on a
gate kind or reads the gate program's opcode table.  A fifth keeps the fault
dictionary's packed layout in ``faultsim``: no other module reads its batch
diffs or fault slots.  A sixth keeps every ``RunConfig`` field one that some
module besides ``config`` reads, so no setting is a knob that does nothing.
A seventh keeps ``RunConfig`` the one place a setting's default is written:
no parameter or dataclass field elsewhere named for a setting has a default.
"""

import ast
import os
import subprocess
import sys
import tomllib
from dataclasses import fields
from pathlib import Path

import pytest

from testtrim.config import RunConfig, config_to_text
from testtrim.netlist import GATE_KINDS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "testtrim"
SIMULATION_SIDE = ("netlist", "generator", "faultsim", "diagnosis")
MODEL_SIDE = ("dataset", "models", "evaluation")
# the trace record in diagnosis is what the model side reads
TRACE_READERS = MODEL_SIDE + ("diagnosis",)
SIMULATION_ONLY = ("netlist", "generator", "faultsim", "corpus")


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
            or isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _runtime_nodes(tree: ast.AST):
    """Every node of ``tree`` except the bodies of ``if TYPE_CHECKING:``."""
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            todo += node.orelse
        else:
            todo.extend(ast.iter_child_nodes(node))


def _tree_imports(tree: ast.AST) -> tuple[set[str], set[str]]:
    """``(package modules, outside top-level modules)`` that ``tree``
    imports anywhere in its body when it runs."""
    inside, outside = set(), set()
    for node in _runtime_nodes(tree):
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


def _imports(module: str) -> tuple[set[str], set[str]]:
    return _tree_imports(ast.parse((PACKAGE / f"{module}.py").read_text()))


def test_import_scan_skips_type_checking_bodies():
    code = ("from typing import TYPE_CHECKING\n"
            "import typing\n"
            "if TYPE_CHECKING:\n"
            "    from .faultsim import Fault\n"
            "    import numpy\n"
            "if typing.TYPE_CHECKING:\n"
            "    from . import netlist\n"
            "else:\n"
            "    from .config import RunConfig\n"
            "def f():\n"
            "    from .dataset import split_corpus\n")
    assert _tree_imports(ast.parse(code)) == ({"config", "dataset"}, {"typing"})


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


@pytest.mark.parametrize("module", TRACE_READERS)
def test_model_side_reaches_no_simulation_code(module):
    inside, _ = _reached(module)
    assert not inside & set(SIMULATION_ONLY), (module, sorted(inside & set(SIMULATION_ONLY)))


def test_import_scan_sees_the_model_side():
    # the scan itself finds numpy and the model modules where they are
    inside, outside = _reached("evaluation")
    assert "numpy" in outside and {"dataset", "models"} <= inside


def _loaded_after(modules, watched, run: str = "") -> list[str]:
    """Which of ``watched`` a fresh interpreter has loaded after importing
    ``modules`` and then running the statements ``run``."""
    code = (f"import sys; import {', '.join(modules)}\n{run}\n"
            f"print(sorted(m for m in {list(watched)!r} if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return ast.literal_eval(done.stdout.strip())


def test_simulation_side_import_leaves_numpy_unloaded():
    assert _loaded_after([f"testtrim.{m}" for m in SIMULATION_SIDE], ["numpy"]) == []


def test_model_side_import_leaves_simulation_unloaded():
    assert _loaded_after([f"testtrim.{m}" for m in TRACE_READERS],
                         [f"testtrim.{m}" for m in SIMULATION_ONLY]) == []


def test_kernel_fit_leaves_numpy_ma_unloaded():
    # every train and sweep process fits; numpy.ma costs a fresh one ~10 ms
    fit = ("import numpy as np\n"
           "X = np.random.default_rng(0).normal(size=(20, 3))\n"
           "testtrim.models.fit_kernel_logistic(X, (X[:, 0] > 0) * 1.0, 1e-3, 0.5,\n"
           "                                   iterations=2000, landmark_cap=512, seed=0)")
    assert _loaded_after(["testtrim.models"], ["numpy.ma"], fit) == []


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


def _optional_parameters(trees: list[ast.Module]) -> list[tuple[str, int | None, str]]:
    """``(function name, position, parameter)`` of every parameter with a
    default of every public top-level function and public method of a
    public class in ``trees``.  The position counts the arguments a call
    passes (``self`` and ``cls`` aside) and is None for keyword-only ones."""
    found = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions, bound = [node], 0
            elif isinstance(node, ast.ClassDef) and node.name[0] != "_":
                functions = [item for item in node.body if isinstance(item, ast.FunctionDef)]
                bound = 1
            else:
                continue
            for fn in functions:
                if fn.name[0] == "_":
                    continue
                args = fn.args
                positional = args.posonlyargs + args.args
                skip = bound if not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in fn.decorator_list) else 0
                first = len(positional) - len(args.defaults)
                found += [(fn.name, i - skip, positional[i].arg)
                          for i in range(first, len(positional))]
                found += [(fn.name, None, a.arg)
                          for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def _set_parameters(trees: list[ast.Module]) -> dict[str, tuple[int, set[str]]]:
    """Per called name (a ``Name`` or an ``Attribute``'s attribute), the most
    positional arguments any call passes and every keyword any call sets.
    A ``*`` or ``**`` argument counts as setting every position or keyword."""
    every = 1 << 30
    calls: dict[str, tuple[int, set[str]]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            most, keywords = calls.get(name, (0, set()))
            star = any(isinstance(arg, ast.Starred) for arg in node.args)
            most = max(most, every if star else len(node.args))
            keywords = keywords | {kw.arg for kw in node.keywords}
            calls[name] = (most, keywords)
    return calls


def _unset_optional_parameters(defining: list[ast.Module],
                               calling: list[ast.Module]) -> list[str]:
    calls = _set_parameters(calling)
    unset = []
    for name, position, param in _optional_parameters(defining):
        most, keywords = calls.get(name, (0, set()))
        if param in keywords or None in keywords:
            continue
        if position is not None and most > position:
            continue
        unset.append(f"{name}.{param}")
    return unset


def _package_and_benchmark_trees() -> tuple[list[ast.Module], list[ast.Module]]:
    package = [ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"]
    bench = [ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    return package, package + bench


def test_every_optional_parameter_is_set_by_a_non_test_caller():
    defining, calling = _package_and_benchmark_trees()
    unset = _unset_optional_parameters(defining, calling)
    assert unset == [], "optional parameters no package or benchmark call sets: " + \
        ", ".join(unset)


def test_optional_parameter_scan_sees_positions_keywords_and_methods():
    defining = [ast.parse(
        "def f(a, b=1, *, c=2): pass\n"
        "def _hidden(a=1): pass\n"
        "class K:\n"
        "    def m(self, x, y=0): pass\n"
        "    @classmethod\n"
        "    def build(cls, z=0): pass\n"
        "    @staticmethod\n"
        "    def s(w=0): pass\n")]
    assert len(_optional_parameters(defining)) == 5
    assert _unset_optional_parameters(defining, [ast.parse("f(1)")]) == \
        ["f.b", "f.c", "m.y", "build.z", "s.w"]
    # by position (methods not counting self or cls) or by keyword
    calling = [ast.parse("f(1, 2, c=3)\nk.m(1, 2)\nK.build(5)\nK.s(w=1)\n")]
    assert _unset_optional_parameters(defining, calling) == []
    calling = [ast.parse("k.m(1)\nK.build()\n'f(1, 2)'\n")]
    assert _unset_optional_parameters(defining, calling) == \
        ["f.b", "f.c", "m.y", "build.z", "s.w"]


def test_public_surface_scan_sees_definitions_and_uses():
    # the scan finds methods, properties and the console script, and skips docstrings
    defined = _public_definitions()
    assert {"faultsim.FaultDictionary.response", "netlist.Circuit.signal_count",
            "cli.entry"} <= set(defined)
    used = _used_names()
    assert {"response", "signal_count", "entry", "build_fault_dictionary"} <= used
    assert "Waicukauski" not in used


def _gate_kind_logic(tree: ast.Module, kinds) -> list[int]:
    """Line numbers in ``tree`` of every comparison or ``case`` pattern with
    a gate-kind string literal (also inside a tuple, list or set literal)
    and of every use of the opcode table ``_OPCODES``."""
    def is_kind(node) -> bool:
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(map(is_kind, node.elts))
        return isinstance(node, ast.Constant) and node.value in kinds

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            hit = any(map(is_kind, [node.left, *node.comparators]))
        elif isinstance(node, ast.MatchValue):
            hit = is_kind(node.value)
        elif isinstance(node, ast.Name):
            hit = node.id == "_OPCODES"
        elif isinstance(node, ast.Attribute):
            hit = node.attr == "_OPCODES"
        elif isinstance(node, ast.alias):
            hit = node.name.rpartition(".")[2] == "_OPCODES"
        else:
            continue
        if hit:
            lines.append(getattr(node, "lineno", None))
    return lines


def test_gate_evaluation_stays_in_netlist():
    # one gate-evaluation loop: a second, private kernel elsewhere would fork it
    found = [f"{path.name}:{line}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "netlist.py"
             for line in _gate_kind_logic(ast.parse(path.read_text()), GATE_KINDS)]
    assert found == [], "gate-kind logic outside netlist.py: " + ", ".join(found)


def test_gate_kind_scan_sees_comparisons_cases_and_the_opcode_table():
    kinds = ("AND", "NOT", "BUF")
    flagged = ['if kind == "AND": pass',
               'x = "NOT" != kind',
               'y = kind in ("NOT", "BUF")',
               'match kind:\n    case "BUF": pass',
               'op = netlist._OPCODES[kind]',
               'op = _OPCODES.get(kind)',
               'from .netlist import _OPCODES as ops']
    for code in flagged:
        assert _gate_kind_logic(ast.parse(code), kinds), code
    clean = ['"""AND of the pins."""',
             'ok = kind in GATE_KINDS',
             'ok = kind == "ANDY"',
             'table = {"AND": 0}',
             'x = _OPCODE_COUNT']
    for code in clean:
        assert _gate_kind_logic(ast.parse(code), kinds) == [], code
    assert _gate_kind_logic(ast.parse(
        'if a:\n    pass\nelif kind == "AND":\n    pass\n'), kinds) == [3]


# the fault dictionary's packed layout: only faultsim reads it
_LAYOUT_FIELDS = ("batch_diffs", "fault_slots")


def _layout_reads(tree: ast.Module) -> list[int]:
    """Line numbers in ``tree`` of every attribute read of a layout field."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in _LAYOUT_FIELDS]


def test_dictionary_layout_stays_in_faultsim():
    # replay asks FaultDictionary.elimination_indices: a second decoder would fork it
    found = [f"{path.name}:{line}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "faultsim.py"
             for line in _layout_reads(ast.parse(path.read_text()))]
    assert found == [], "dictionary layout read outside faultsim.py: " + ", ".join(found)


def test_layout_scan_sees_attribute_reads_not_docstrings():
    assert _layout_reads(ast.parse("x = fdict.batch_diffs[0]")) == [1]
    assert _layout_reads(ast.parse("y = 1\nslot = self.fault_slots[f]")) == [2]
    assert _layout_reads(ast.parse('"""Reads fdict.batch_diffs and fault_slots."""\n'
                                   "batch_diffs = fault_slots = 0")) == []


def _read_names(tree: ast.Module) -> set[str]:
    """Every name ``tree`` reads as an attribute or passes as a call keyword."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            names.add(node.arg)
    return names


def test_every_config_field_has_a_reader():
    # config.py parses, writes and checks every field; a stage must use it
    read = set().union(*(_read_names(ast.parse(path.read_text()))
                         for path in PACKAGE.glob("*.py")
                         if path.name not in ("__init__.py", "config.py")))
    unread = [f.name for f in fields(RunConfig) if f.name not in read]
    assert unread == [], "RunConfig fields only config.py reads: " + ", ".join(unread)


def test_config_field_scan_sees_attribute_reads_and_keywords():
    assert _read_names(ast.parse("if cfg.model_alpha > 0:\n    pass")) == {"model_alpha"}
    assert _read_names(ast.parse("fit(RunConfig(model_kind=kind), **extra)")) == \
        {"model_kind"}
    assert _read_names(ast.parse('cfg.model_seed = 3\n"""Reads cfg.model_gamma."""\n'
                                 "model_lambda = 1")) == set()


def _setting_names() -> set[str]:
    """The last part of every config key: ``seed``, ``iterations``, ..."""
    return {line.partition(" = ")[0].rpartition(".")[2]
            for line in config_to_text(RunConfig()).splitlines()}


def _is_dataclass(decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return (isinstance(decorator, ast.Name) and decorator.id == "dataclass"
            or isinstance(decorator, ast.Attribute) and decorator.attr == "dataclass")


def _restated_settings(tree: ast.Module, names) -> list[tuple[str, int]]:
    """``(name, line)`` of every function parameter and every dataclass field
    in ``tree`` that has a default and whose name is in ``names``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults):] + [
                a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found += [(a.arg, a.lineno) for a in with_default if a.arg in names]
        elif isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
            found += [(item.target.id, item.lineno) for item in node.body
                      if isinstance(item, ast.AnnAssign) and item.value is not None
                      and isinstance(item.target, ast.Name) and item.target.id in names]
    return found


def test_settings_have_their_defaults_in_run_config_alone():
    # a second default drifts from RunConfig's: TrainConfig's seed was 0, model.seed is 3
    names = _setting_names()
    found = [f"{path.name}:{line} {name}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "config.py"
             for name, line in _restated_settings(ast.parse(path.read_text()), names)]
    assert found == [], "setting defaults outside config.py: " + ", ".join(found)


def test_restated_setting_scan_sees_parameters_and_dataclass_fields():
    assert {"seed", "iterations", "landmark_cap", "min_inputs", "tau"} <= _setting_names()
    names = {"seed", "iterations", "min_inputs"}
    flagged = ["def f(x, seed=0): pass",
               "def f(*, iterations=5): pass",
               "def f(seed=0, /): pass",
               "g = lambda seed=1: seed",
               "class K:\n    def m(self, min_inputs=2): pass",
               "@dataclass\nclass C:\n    seed: int = 0",
               "@dataclasses.dataclass(frozen=True)\nclass C:\n    iterations: int = 9"]
    for code in flagged:
        assert _restated_settings(ast.parse(code), names), code
    clean = ["def f(x, seed): pass",
             "def f(*, iterations, p_unread=0.8): pass",
             "@dataclass\nclass C:\n    seed: int",
             "class C:\n    seed: int = 0",
             "seed = 0\nf(seed=1)"]
    for code in clean:
        assert _restated_settings(ast.parse(code), names) == [], code
    assert _restated_settings(ast.parse("def f(a,\n      seed=0): pass"), names) == [("seed", 2)]
