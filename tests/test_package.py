"""Checks on the package source as a whole."""

import ast
from pathlib import Path

import ccxlab


def test_no_assert_statements_in_package():
    # `python -O` strips assert; invariant checks must raise a CcxlabError
    sources = sorted(Path(ccxlab.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_no_unused_imports():
    # every name a package or test module imports is read somewhere in it; __init__ re-exports
    sources = sorted(path for path in Path(ccxlab.__file__).parent.glob("*.py")
                     if path.name != "__init__.py")
    sources += sorted(Path(__file__).parent.glob("*.py"))
    unused = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.parent.name}/{path.name}:{line} {name}"
                   for line, name in _imported_names(tree) if name not in read]
    assert unused == []
