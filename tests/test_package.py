"""Checks on the package source as a whole."""

import ast
import re
import sys
from pathlib import Path

import pytest

import ccxlab
from ccxlab import errors


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


def _unnamed_error_classes(sources):
    """Each ``CcxlabError`` subclass in ``ccxlab.errors`` that none of ``sources`` reads
    as a name or an attribute."""
    named = set()
    for source in sources:
        tree = ast.parse(source)
        named |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return [name for name, value in vars(errors).items()
            if isinstance(value, type) and issubclass(value, errors.CcxlabError)
            and name not in named]


def test_every_error_class_is_named_by_a_test():
    # a typed error that no test reaches is an untested contract, or a class nothing needs
    tests = [path.read_text() for path in sorted(Path(__file__).parent.glob("*.py"))
             if path.name != Path(__file__).name]
    assert _unnamed_error_classes(tests) == []
    probe = "import pytest\nfrom ccxlab import errors\npytest.raises(errors.IoError)\n"
    assert "IoError" not in _unnamed_error_classes([probe])
    assert "UnknownGateError" in _unnamed_error_classes([probe])


#: the one third-party package ``src/ccxlab`` may import
_DEPENDENCIES = {"numpy"}


def _foreign_imports(tree):
    """(line, top-level module) of every import that is not the standard library,
    ``_DEPENDENCIES`` or the package itself (relative or ``ccxlab``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            top = module.split(".")[0]
            if top not in sys.stdlib_module_names | _DEPENDENCIES | {"ccxlab"}:
                yield node.lineno, top


def test_the_package_imports_only_the_standard_library_and_numpy():
    # an installed but undeclared package (scipy, say) would import fine on a dev machine
    found = [f"{path.name}:{line} {module}"
             for path in sorted(Path(ccxlab.__file__).parent.glob("*.py"))
             for line, module in _foreign_imports(ast.parse(path.read_text(), filename=str(path)))]
    assert found == []
    probe = "import os\nimport numpy.linalg\nfrom . import qmath\nimport scipy.linalg\n" \
            "def f():\n    from scipy import optimize\n"
    assert list(_foreign_imports(ast.parse(probe))) == [(4, "scipy"), (6, "scipy")]


def test_numpy_is_the_only_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    dependencies = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    assert {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower() for dep in dependencies} \
        == _DEPENDENCIES
