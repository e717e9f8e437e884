"""Source checks on the package. No safety check may be an ``assert``
statement: python -O strips them, so the check would silently stop
running. Every module must parse as Python 3.10, the oldest version
pyproject.toml admits. No private helper may outlive its last caller in
the package, and no public method of a package class its last caller in
the package, the demos or the benchmark harness; since callers are found
by name, no two package classes may define a public method of the same
name. Every kind of trail record the formula writes has an undo branch,
and every undo branch a kind that is written. Every package name the
README spells out resolves, and so does every annotation of a package
function."""

import ast
import importlib
import inspect
import re
import typing
from collections import Counter
from pathlib import Path

import maxsat

PACKAGE = Path(maxsat.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent


def bare_asserts(source: str, filename: str) -> list[str]:
    return [f"{filename}:{node.lineno}"
            for node in ast.walk(ast.parse(source, filename))
            if isinstance(node, ast.Assert)]


def test_package_has_no_assert_statements():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        found += bare_asserts(path.read_text(encoding="utf-8"),
                              str(path.relative_to(PACKAGE)))
    assert found == [], f"assert statements in the package: {found}"


def test_bare_asserts_finds_an_assert():
    source = "def f(x):\n    if x:\n        assert x > 0, 'positive'\n"
    assert bare_asserts(source, "m.py") == ["m.py:3"]


def test_package_parses_as_python_3_10():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=(3, 10))


def _names(tree: ast.AST):
    """Every name a tree reads, imports or looks up as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def dead_private_helpers(sources: dict[str, str]) -> list[str]:
    """The ``_``-prefixed functions, methods and classes (dunders aside)
    that no code outside their own definition names."""
    trees = {name: ast.parse(text, name) for name, text in sources.items()}
    used = Counter()
    for tree in trees.values():
        used.update(_names(tree))
    dead = []
    for filename, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("_") or name.endswith("__"):
                continue
            if used[name] == Counter(_names(node))[name]:
                dead.append(f"{filename}:{node.lineno} {name}")
    return dead


def test_package_has_no_dead_private_helpers():
    # a helper kept only for tests belongs in the tests
    sources = {str(path.relative_to(PACKAGE)): path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.rglob("*.py"))}
    assert sources
    assert dead_private_helpers(sources) == []


def test_dead_private_helpers_finds_an_unused_helper():
    source = ("def _used():\n    return 1\n\n"
              "def _dead(x):\n    return _dead(x - 1) if x else _used()\n\n"
              "class _Box:\n    def __init__(self):\n        self.v = 0\n")
    assert dead_private_helpers({"m.py": source}) == ["m.py:4 _dead",
                                                      "m.py:7 _Box"]


def dead_public_methods(package: dict[str, str],
                        users: dict[str, str]) -> list[str]:
    """The public methods (no ``_`` prefix) of the classes in ``package``
    that no code in ``package`` or ``users`` names outside their own
    definition."""
    trees = {name: ast.parse(text, name) for name, text in package.items()}
    used = Counter()
    for tree in trees.values():
        used.update(_names(tree))
    for name, text in users.items():
        used.update(_names(ast.parse(text, name)))
    dead = []
    for filename, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("_")
                        and used[node.name] == Counter(_names(node))[node.name]):
                    dead.append(f"{filename}:{node.lineno} "
                                f"{cls.name}.{node.name}")
    return dead


def test_package_has_no_dead_public_methods():
    # a method kept only for tests belongs in the tests; the tests' own
    # uses (tests/ and solvebench/tests/) do not count
    package = {str(path.relative_to(PACKAGE)): path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.rglob("*.py"))}
    users = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
             for folder in ("demos", "solvebench")
             for path in sorted((ROOT / folder).rglob("*.py"))
             if "tests" not in path.relative_to(ROOT).parts}
    assert package and users
    assert dead_public_methods(package, users) == []


def test_dead_public_methods_finds_an_unused_method():
    # a method named only in its own body is dead; one named only by a
    # user module lives while that module counts
    source = ("class Box:\n"
              "    def used(self):\n        return 1\n\n"
              "    def dead(self, x):\n        return self.dead(x - 1)\n\n"
              "    def _private(self):\n        return self.used()\n\n"
              "    def for_users(self):\n        return 3\n")
    user = "from m import Box\nBox().for_users()\n"
    assert dead_public_methods({"m.py": source}, {"u.py": user}) == \
        ["m.py:5 Box.dead"]
    assert dead_public_methods({"m.py": source}, {}) == \
        ["m.py:5 Box.dead", "m.py:11 Box.for_users"]


def shared_public_methods(package: dict[str, str]) -> list[str]:
    """The public methods of the classes in ``package`` whose name another
    package class also defines. The dead-method check counts uses by name,
    so such a name can keep a method alive that only tests call."""
    owners: dict[str, list[str]] = {}
    for filename, text in package.items():
        for cls in ast.walk(ast.parse(text, filename)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("_")):
                    owners.setdefault(node.name, []).append(
                        f"{filename}:{node.lineno} {cls.name}.{node.name}")
    return [where for found in owners.values() if len(found) > 1
            for where in found]


def test_package_classes_share_no_public_method_name():
    package = {str(path.relative_to(PACKAGE)): path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.rglob("*.py"))}
    assert package
    assert shared_public_methods(package) == []


def test_shared_public_methods_finds_a_shared_name():
    # two classes in two modules define audit; private and dunder names
    # may repeat
    one = ("class Box:\n    def audit(self):\n        return 1\n\n"
           "    def _check(self):\n        return 2\n")
    two = ("class Graph:\n    def __len__(self):\n        return 0\n\n"
           "    def _check(self):\n        return 3\n\n"
           "    def audit(self):\n        return 4\n")
    assert shared_public_methods({"a.py": one, "b.py": two}) == \
        ["a.py:2 Box.audit", "b.py:8 Graph.audit"]
    assert shared_public_methods({"a.py": one}) == []


def trail_kinds(source: str) -> tuple[set[str], set[str]]:
    """The trail record kinds a formula module writes, and those its
    ``undo_to`` compares ``op`` with. A written kind is the leading string
    of a tuple passed to ``self.trail.append`` or to a local ``append``
    (the kernels bind ``append = self.trail.append``)."""
    tree = ast.parse(source)
    written = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and len(node.args) == 1
                and isinstance(node.args[0], ast.Tuple)
                and node.args[0].elts):
            continue
        func = node.func
        if not (isinstance(func, ast.Name) and func.id == "append"
                or isinstance(func, ast.Attribute) and func.attr == "append"
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "trail"):
            continue
        kind = node.args[0].elts[0]
        if isinstance(kind, ast.Constant) and isinstance(kind.value, str):
            written.add(kind.value)
    undone = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name == "undo_to":
            for node in ast.walk(fn):
                if (isinstance(node, ast.Compare)
                        and isinstance(node.left, ast.Name)
                        and node.left.id == "op"
                        and isinstance(node.comparators[0], ast.Constant)):
                    undone.add(node.comparators[0].value)
    return written, undone


def test_every_trail_kind_has_one_undo_branch():
    # a kind with no undo branch would raise mid-search, and a branch no
    # kernel writes is dead
    written, undone = trail_kinds(
        (PACKAGE / "formula.py").read_text(encoding="utf-8"))
    assert written == undone
    assert {"add", "assign", "empty", "hide", "occ", "rm", "wt"} <= written


def test_trail_kinds_finds_a_kind_without_an_undo_branch():
    source = ("class F:\n"
              "    def add(self, c):\n"
              "        self.trail.append(('add', c))\n"
              "        self.log.append(('log', c))\n\n"
              "    def grow(self, c):\n"
              "        append = self.trail.append\n"
              "        append(('grow', c))\n\n"
              "    def undo_to(self, mark):\n"
              "        while len(self.trail) > mark:\n"
              "            op = self.trail.pop()[0]\n"
              "            if op == 'add':\n"
              "                pass\n"
              "            elif op == 'shrink':\n"
              "                pass\n")
    assert trail_kinds(source) == ({"add", "grow"}, {"add", "shrink"})


def read_kinds(source: str) -> set[str]:
    """The strings a module compares a record's kind ``rec[0]`` with: the
    constant of ``x[0] == "k"`` (either side) or each constant of
    ``x[0] in ("k", ...)``."""
    def kind_of(node):
        return (isinstance(node, ast.Subscript)
                and isinstance(node.slice, ast.Constant)
                and node.slice.value == 0)

    def strings(node):
        elts = node.elts if isinstance(node, (ast.Tuple, ast.Set)) else [node]
        return {e.value for e in elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)}

    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            for a, b in zip(sides, sides[1:]):
                if kind_of(a):
                    read |= strings(b)
                elif kind_of(b):
                    read |= strings(a)
    return read


def test_solver_reads_only_kinds_the_formula_writes():
    # rule 1 indexes the binaries of "add" and "hide" records; a kind the
    # formula renamed would silently stop it indexing them
    written, _ = trail_kinds(
        (PACKAGE / "formula.py").read_text(encoding="utf-8"))
    read = read_kinds((PACKAGE / "solver.py").read_text(encoding="utf-8"))
    assert read >= {"add", "hide"}
    assert read <= written, sorted(read - written)


def test_read_kinds_finds_a_kind_the_formula_does_not_write():
    source = ("def scan(trail):\n"
              "    return [rec for rec in trail\n"
              "            if rec[0] == 'add' or 'grow' == rec[0]\n"
              "            or rec[0] in ('shrink', 'hide') or rec[1] == 'x']\n")
    assert read_kinds(source) == {"add", "grow", "shrink", "hide"}
    written = {"add", "grow", "hide"}
    assert read_kinds(source) - written == {"shrink"}


# a backticked dotted name that starts with a class the README documents
# or with a module of the package
README_NAME = re.compile(r"`((?:Solver|Formula|maxsat\.\w+)(?:\.\w+)+)")


def unresolved_names(text: str, roots: dict) -> list[str]:
    """The backticked names in ``text`` (see ``README_NAME``) that do not
    resolve. ``roots`` maps a name's head to the object its next part is
    looked up on: a fresh instance for a class, so that attributes set in
    ``__init__`` resolve too, or the package, whose submodules are
    imported on demand."""
    missing = []
    for name in README_NAME.findall(text):
        head, *parts = name.split(".")
        obj = roots[head]
        for part in parts:
            if hasattr(obj, part):
                obj = getattr(obj, part)
            elif hasattr(obj, "__path__"):  # a package: try a submodule
                try:
                    obj = importlib.import_module(f"{obj.__name__}.{part}")
                except ModuleNotFoundError:
                    missing.append(name)
                    break
            else:
                missing.append(name)
                break
    return missing


def _readme_roots() -> dict:
    from maxsat.solver import Solver
    return {"Solver": Solver(maxsat.Formula(1)),
            "Formula": maxsat.Formula(1), "maxsat": maxsat}


def test_readme_names_resolve():
    # a README that names a method, attribute or module member the
    # package no longer has describes code that is gone
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    assert README_NAME.search(text)
    assert unresolved_names(text, _readme_roots()) == []


def test_unresolved_names_finds_a_stale_name():
    # class attributes, instance attributes set in __init__ and members of
    # submodules resolve; a removed method and a missing module do not
    text = ("`Solver._lower_partner(c)` and `Solver._partners` read "
            "`Solver.pairs`, `Formula.from_clauses` and "
            "`maxsat.dimacs.VARIABLE_SLACK`, unlike `maxsat.nomodule.x`; "
            "`maxsat.solver` alone and `Solver` are no dotted names\n")
    assert unresolved_names(text, _readme_roots()) == \
        ["Solver._partners", "maxsat.nomodule.x"]


def unresolved_annotations(module) -> list[str]:
    """The functions and methods defined in ``module`` whose annotations
    ``typing.get_type_hints`` cannot evaluate, each with its error."""
    functions = []
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            functions.append(obj)
        elif inspect.isclass(obj):
            functions += [f for f in vars(obj).values()
                          if inspect.isfunction(f)]
    bad = []
    for f in functions:
        try:
            typing.get_type_hints(f)
        except NameError as e:
            bad.append(f"{f.__qualname__}: {e}")
    return bad


def test_package_annotations_resolve():
    # an annotation naming a module imported only inside the function
    # (numpy in the oracle) is a string that typing cannot evaluate
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    bad = []
    for path in modules:
        name = "maxsat" if path.stem == "__init__" else f"maxsat.{path.stem}"
        bad += unresolved_annotations(importlib.import_module(name))
    assert bad == []


def test_unresolved_annotations_finds_a_local_import():
    source = ("from __future__ import annotations\n"
              "def f(n: int) -> np.ndarray:\n"
              "    import numpy as np\n"
              "    return np.zeros(n)\n")
    module = type(typing)("scratch_annotations")
    exec(compile(source, "scratch_annotations.py", "exec"), vars(module))
    assert unresolved_annotations(module) == \
        ["f: name 'np' is not defined"]
