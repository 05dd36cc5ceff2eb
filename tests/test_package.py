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


#: names of numpy's and Python's random machinery
_RANDOM_NAMES = {"random", "default_rng", "SeedSequence", "Generator", "RandomState",
                 "BitGenerator", "PCG64"}


def _random_uses(tree):
    """(enclosing function or None, line) of every mention of a name in ``_RANDOM_NAMES``."""
    uses = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute):
            names = {node.attr}
        elif isinstance(node, ast.Name):
            names = {node.id}
        elif isinstance(node, ast.alias):
            names = set(node.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names = set((node.module or "").split("."))
        else:
            names = set()
        if names & _RANDOM_NAMES:
            uses.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return uses


def test_only_sample_distribution_builds_a_random_generator():
    # one way to turn probabilities into counts: every seeded draw goes through it
    found = {}
    for path in sorted(Path(ccxlab.__file__).parent.glob("*.py")):
        for function, line in _random_uses(ast.parse(path.read_text(), filename=str(path))):
            found.setdefault((path.stem, function), []).append(line)
    assert list(found) == [("simulator", "sample_distribution")]


def _dead_definitions(package):
    """The "module.name" of each top-level def or class in ``package`` that no module but
    ``__init__`` reads, as a name or an attribute, and that ``__init__`` does not import."""
    exported = {name for _, name in
                _imported_names(ast.parse((package / "__init__.py").read_text()))}
    read, defined = set(), []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read |= {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        defined += [(path.stem, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    return [f"{module}.{name}" for module, name in defined
            if name not in read and name not in exported]


def test_every_definition_is_read_or_exported():
    # code that only the tests call is dead weight; a test can build what it needs itself
    assert _dead_definitions(Path(ccxlab.__file__).parent) == []
