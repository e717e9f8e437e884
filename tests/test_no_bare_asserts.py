"""Source checks on the package. No safety check may be an ``assert``
statement: python -O strips them, so the check would silently stop
running. Every module must parse as Python 3.10, the oldest version
pyproject.toml admits."""

import ast
from pathlib import Path

import maxsat

PACKAGE = Path(maxsat.__file__).resolve().parent


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
