"""Source hygiene without a linter: unused imports, unread definitions and
defaults no call overrides in ``src/coxclusters``, found with the standard
library's ``ast``.

An import counts as used when its bound name appears as a name anywhere in
the module, string annotations included.  ``__future__`` imports and the
re-exports of ``__init__.py`` are exempt.  Every module-level function and
class, and every method but a dunder, must be read outside its own body by
``src/`` (not ``__init__.py``) or by ``perfbench/``, whose span recorder
also binds functions by name strings.  The tests do not count: what only a
test reads is an oracle and lives in the tests, save the public oracles of
:data:`ORACLES`, which stay API for users to check the engine against.  A
parameter with a default must be passed, by position or by keyword, by some
call in ``src/`` or ``perfbench/``, calls matched by the called name alone:
a default that no such call overrides belongs in the body as a constant.
No module mutates a container bound at module level: state a caller needs
is passed to it as an argument.
"""

import ast
import math
from collections import Counter, defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "coxclusters").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    """Every identifier read as a name, including inside string annotations."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= used_names(ast.parse(node.value, mode="eval"))
    return names


def unused_imports(tree):
    """Names bound by an import and never read, in source order."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
    used = used_names(tree)
    return sorted((line, name) for name, line in bound if name not in used)


# Public oracles that no command reads, by (module, name).
ORACLES = {
    ("coxeter.py", "tau"),  # the label rotation, against the compatibility tables
    ("coxeter.py", "label_weight"),  # the weight of a label, inverse of weight_label
    ("weyl.py", "reflect_weight"),  # one simple reflection, against _reflect_word
    ("algebra.py", "relations"),  # ExchangeGraph.relations, pinned by golden_digests.json
}


def _reads(tree, strings=False):
    """Counter of names and attribute names read in a tree and, with
    ``strings``, of string constants."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def _definitions(tree):
    """The module-level functions and classes of a module, and every method
    of its classes but the dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("__"):
                    yield member


def unread_definitions(trees, allowed=()):
    """(module, name) of each definition (:func:`_definitions`) of a tree
    under ``src/`` whose name the readers read outside the bodies of its
    k definitions fewer than k times, the ``allowed`` pairs aside.
    ``trees`` maps paths relative to the repository root to trees; the
    readers are those under ``src/`` but ``__init__.py`` and, strings
    included, those under ``perfbench/``."""
    spare = Counter()  # reads outside the definitions' bodies, less one per definition
    for path, tree in trees.items():
        if path.parts[0] == "perfbench":
            spare += _reads(tree, strings=True)
        elif path.parts[0] == "src" and path.name != "__init__.py":
            spare += _reads(tree)
    defined = [(p.name, node) for p, tree in trees.items() if p.parts[0] == "src"
               for node in _definitions(tree)]
    for _, node in defined:
        spare[node.name] -= _reads(node)[node.name] + 1
    return [(module, node.name) for module, node in defined
            if spare[node.name] < 0 and (module, node.name) not in allowed]


MUTATORS = {"clear", "append", "update", "pop", "setdefault", "add"}


def module_state_mutations(tree):
    """(line, name) of each mutation of a name bound by a module-level
    assignment: an item assigned or deleted, or a :data:`MUTATORS` call."""
    bound = {target.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
             for target in getattr(node, "targets", None) or [node.target]
             if isinstance(target, ast.Name)}
    changed = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            changed.append((node.lineno, node.value))
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in MUTATORS:
            changed.append((node.lineno, node.func.value))
    return sorted((line, t.id) for line, t in changed if isinstance(t, ast.Name) and t.id in bound)


def _defaulted(tree):
    """(name, parameter, position) of each parameter with a default of a
    function in ``tree``: ``name`` is the name its calls use (the class, for
    an ``__init__``), ``position`` its index among a call's positional
    arguments (a leading self or cls not counted), None for a keyword-only
    parameter."""
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, ast.FunctionDef):
                continue
            name = parent.name if node.name == "__init__" else node.name
            a = node.args
            positional = a.posonlyargs + a.args
            bound = 1 if positional and positional[0].arg in ("self", "cls") else 0
            for k in range(len(positional) - len(a.defaults), len(positional)):
                yield name, positional[k].arg, k - bound
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield name, arg.arg, None


def unpassed_defaults(modules, others):
    """(module, function, parameter) of each parameter with a default in
    ``modules`` (a dict of name to tree) that no call in these trees or in
    ``others`` passes; a call with ``*args`` passes every position and one
    with ``**kwargs`` every keyword."""
    most, keywords = defaultdict(int), defaultdict(set)
    for tree in [*modules.values(), *others]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                starred = any(isinstance(arg, ast.Starred) for arg in node.args)
                most[name] = max(most[name], math.inf if starred else len(node.args))
                keywords[name] |= {k.arg for k in node.keywords}  # None for **kwargs
    return sorted(
        (mod, name, param)
        for mod, tree in modules.items()
        for name, param, position in _defaulted(tree)
        if not (position is not None and most[name] > position)
        and not {param, None} & keywords[name]
    )


@pytest.mark.parametrize("path", [p for p in SRC if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(_parse(path)) == []


def test_every_definition_is_read():
    trees = {p.relative_to(ROOT): _parse(p) for p in SRC + TESTS + BENCH}
    assert unread_definitions(trees, ORACLES) == []


def test_no_module_state_is_mutated():
    assert [(p.name, *hit) for p in SRC for hit in module_state_mutations(_parse(p))] == []


def test_module_state_guard_is_not_vacuous():
    tree = ast.parse(
        "CACHE = {}\n"
        "SEEN: set = set()\n"
        "def f(k, local):\n"
        "    CACHE[k] = SEEN.add(k)\n"
        "    local[k] = local.update(CACHE)\n"
        "    return CACHE.get(k), SEEN.clear()\n"
    )
    assert module_state_mutations(tree) == [(4, "CACHE"), (4, "SEEN"), (6, "SEEN")]


def test_every_default_is_passed_somewhere():
    modules = {p.name: _parse(p) for p in SRC}
    assert unpassed_defaults(modules, [_parse(p) for p in BENCH]) == []


def test_unused_import_guard_is_not_vacuous():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .weyl import Weight, weight_as_root, reflect_weight as rw\n"
        "def f(x: 'Weight') -> None:\n"
        "    return rw(x)\n"
    )
    assert unused_imports(tree) == [(2, "os"), (3, "weight_as_root")]


def test_private_function_guard_is_not_vacuous():
    lib = ast.parse(
        "def _used(): pass\n"
        "def _only_recursive(n): return _only_recursive(n - 1)\n"
        "def _tested(): pass\n"
        "def public(): return _used()\n"
    )
    user = ast.parse("import lib\nlib._tested()\nlib.public()\n")
    trees = {Path("src/lib.py"): lib, Path("src/user.py"): user}
    assert unread_definitions(trees) == [("lib.py", "_only_recursive")]


def test_private_method_guard_is_not_vacuous():
    lib = ast.parse(
        "from functools import cached_property\n"
        "class C:\n"
        "    def __init__(self): self._used()\n"
        "    def _used(self): pass\n"
        "    def _only_recursive(self): return self._only_recursive()\n"
        "    def public(self): pass\n"
        "    def called(self): pass\n"
        "    @property\n"
        "    def size(self): return 0\n"
        "    @cached_property\n"
        "    def unread(self): return 1\n"
        "    @cached_property\n"
        "    def tested(self): return 2\n"
        "    def __len__(self): return 0\n"
    )
    user = ast.parse("import lib\nc = lib.C()\nc.tested\nc.called()\n")
    assert unread_definitions({Path("src/lib.py"): lib, Path("src/user.py"): user}) == [
        ("lib.py", "_only_recursive"),
        ("lib.py", "public"),
        ("lib.py", "size"),
        ("lib.py", "unread"),
    ]
    # Two classes define f and one read exists: either f may be the unread one.
    twice = ast.parse("class A:\n    def f(self): pass\nclass B:\n    def f(self): pass\n")
    user = ast.parse("import lib\nlib.A().f()\nlib.A\nlib.B\n")
    trees = {Path("src/lib.py"): twice, Path("src/user.py"): user}
    assert unread_definitions(trees) == [("lib.py", "f"), ("lib.py", "f")]


def test_reader_guard_is_not_vacuous():
    """Reads by the tests and by ``__init__.py`` do not count; a string
    under ``perfbench/`` does, and so does the allowlist."""
    lib = ast.parse(
        "def used(): pass\n"
        "def tested(): pass\n"
        "def exported(): pass\n"
        "def bound_by_string(): pass\n"
        "def oracle(): pass\n"
        "class Tested: pass\n"
    )
    trees = {
        Path("src/pkg/lib.py"): lib,
        Path("src/pkg/__init__.py"): ast.parse("from . import lib\nALL = (lib.exported,)\n"),
        Path("src/pkg/cli.py"): ast.parse("from . import lib\nlib.used()\n"),
        Path("tests/test_lib.py"): ast.parse(
            "from pkg import lib\nlib.tested(); lib.Tested(); lib.oracle()\n"
        ),
        Path("perfbench/spans.py"): ast.parse("FUNCTIONS = {'lib': ('bound_by_string',)}\n"),
    }
    assert unread_definitions(trees, {("lib.py", "oracle")}) == [
        ("lib.py", "tested"),
        ("lib.py", "exported"),
        ("lib.py", "Tested"),
    ]
    assert ("lib.py", "oracle") in unread_definitions(trees)


def test_unpassed_default_guard_is_not_vacuous():
    lib = ast.parse(
        "class C:\n"
        "    def __init__(self, a, b=0): pass\n"
        "    def m(self, x, flag=False, *, keyed=1): pass\n"
        "def f(a, by_position=1, by_keyword=2, never=3): pass\n"
        "def g(unpacked=4): pass\n"
        "def h(x, *, spread=5): pass\n"
        "def k(x, recursive=6): return k(x - 1, recursive)\n"
    )
    calls = ast.parse(
        "import lib\n"
        "lib.C(1).m(2, True)\n"
        "lib.f(0, 1, by_keyword=2)\n"
        "lib.g(*args)\n"
        "lib.h(0)\n"
        "lib.h(0, **options)\n"
    )
    assert unpassed_defaults({"lib.py": lib}, [calls]) == [
        ("lib.py", "C", "b"),
        ("lib.py", "f", "never"),
        ("lib.py", "m", "keyed"),
    ]
