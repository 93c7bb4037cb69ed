"""The benchmark scripts (``perfbench/child.py``, ``perfbench/record.py``)
import coxclusters names and read attributes off what those return.  Every
such name must still exist, or a benchmark run breaks after a refactor;
these tests read the scripts with ``ast`` and change nothing under
``perfbench/``.

A name bound by ``x = f(...)`` or ``for x in f(...)``, with ``f`` a
coxclusters function or class, takes its type from ``f``: the class itself,
the function's return annotation, or the element type of a returned
``tuple[X, ...]``.  Attribute reads off such names are checked against that
type.
"""

import ast
import dataclasses
import importlib
import typing
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = [ROOT / "perfbench" / "child.py", ROOT / "perfbench" / "record.py"]

MISSING = object()


def _attribute(obj, attr):
    """``obj.attr``; for a field of a dataclass type, the field's type (None
    if that is not a plain class); MISSING if there is no such attribute."""
    if isinstance(obj, type) and dataclasses.is_dataclass(obj):
        if attr in {f.name for f in dataclasses.fields(obj)}:
            kind = typing.get_type_hints(obj)[attr]
            return kind if isinstance(kind, type) else None
    return getattr(obj, attr, MISSING)


def _imported(tree, missing):
    """Local name -> coxclusters object for every import of the program."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "coxclusters":
                    continue
                try:
                    importlib.import_module(alias.name)
                except ImportError:
                    missing.append(alias.name)
                    continue
                target = alias.name if alias.asname else "coxclusters"
                out[alias.asname or "coxclusters"] = importlib.import_module(target)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("coxclusters"):
            try:
                module = importlib.import_module(node.module)
            except ImportError:
                missing.append(node.module)
                continue
            for alias in node.names:
                obj = getattr(module, alias.name, MISSING)
                if obj is MISSING:
                    try:
                        obj = importlib.import_module(f"{node.module}.{alias.name}")
                    except ImportError:
                        missing.append(f"{node.module}.{alias.name}")
                        continue
                out[alias.asname or alias.name] = obj
    return out


def _result_type(fn, element: bool):
    """What calling ``fn`` gives (or one element of it), or None if unknown."""
    if isinstance(fn, type):
        return None if element else fn
    if not callable(fn):
        return None
    hint = typing.get_type_hints(fn).get("return")
    if element:
        args = typing.get_args(hint)
        if typing.get_origin(hint) is not tuple or len(args) != 2 or args[1] is not Ellipsis:
            return None
        hint = args[0]
    return hint if isinstance(hint, type) else None


def _called(node, names):
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return names.get(node.func.id)
    return None


def _typed_locals(scope, names):
    """Local name -> type for the names a scope binds from coxclusters calls."""
    out = {}
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value, element = node.targets[0], node.value, False
        elif isinstance(node, (ast.For, ast.comprehension)):
            target, value, element = node.target, node.iter, True
        else:
            continue
        fn = _called(value, names)
        if fn is not None and isinstance(target, ast.Name):
            kind = _result_type(fn, element)
            if kind is not None:
                out[target.id] = kind
    return out


def check_names(source: str):
    """(dotted names that do not resolve, dotted names that were checked)."""
    tree = ast.parse(source)
    missing: list = []
    names = _imported(tree, missing)
    checked = set()

    def resolve(node, typed):
        """(object, dotted label) of a name or dotted read, or None."""
        if isinstance(node, ast.Name):
            if node.id in typed:
                return typed[node.id], typed[node.id].__name__
            if node.id in names:
                return names[node.id], node.id
            return None
        if not isinstance(node, ast.Attribute):
            return None
        base = resolve(node.value, typed)
        if base is None or base[0] is None or base[0] is MISSING:
            return None
        label = f"{base[1]}.{node.attr}"
        checked.add(label)
        obj = _attribute(base[0], node.attr)
        if obj is MISSING:
            missing.append(label)
        return obj, label

    for stmt in tree.body:
        typed = _typed_locals(stmt, names) if isinstance(stmt, ast.FunctionDef) else {}
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute):
                resolve(node, typed)
    return sorted(set(missing)), checked


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_benchmark_script_names_exist(script):
    missing, checked = check_names(script.read_text())
    assert checked
    assert missing == []


def test_child_reads_are_checked():
    _, checked = check_names(SCRIPTS[0].read_text())
    assert {
        "coxclusters.cli.main",
        "checks.compat_linear_identity",
        "algebra.explore",
        "algebra.principal_seed",
        "PrimitiveRelation.left",
        "PrimitiveRelation.constant_coef",
        "Seed.n",
    } <= checked


def test_missing_names_are_reported():
    source = (
        "import coxclusters.no_such_module\n"
        "from coxclusters import checks\n"
        "from coxclusters.coxeter import primitive_relations, no_such_function\n"
        "from coxclusters.algebra import principal_seed\n"
        "def run(m, c):\n"
        "    checks.no_such_suite(m)\n"
        "    seed = principal_seed(m, c)\n"
        "    print(seed.no_such_field, seed.n)\n"
        "    return [pr.no_such_field for pr in primitive_relations(m, c)]\n"
    )
    missing, _ = check_names(source)
    assert missing == sorted([
        "coxclusters.no_such_module",
        "coxclusters.coxeter.no_such_function",
        "checks.no_such_suite",
        "Seed.no_such_field",
        "PrimitiveRelation.no_such_field",
    ])
