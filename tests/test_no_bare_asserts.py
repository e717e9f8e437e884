"""Source checks on the package. No safety check may be an ``assert``
statement: python -O strips them, so the check would silently stop
running. Every module must parse as Python 3.10, the oldest version
pyproject.toml admits. No private helper may outlive its last caller in
the package, and no public method of a package class its last caller in
the package, the demos or the benchmark harness; since callers are found
by name, no two package classes may define a public method of the same
name."""

import ast
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
