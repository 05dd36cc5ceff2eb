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
