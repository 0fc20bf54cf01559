"""Import rules of the package, read off the syntax trees of its modules.

No module imports ``bbwkoszul.gl2``. ``gl2`` is only an alias of two
``oracles`` names, kept because the benchmark's tracer wraps them by that
module path. The rank-2 calculus itself is part of the second route in
``oracles``: an engine module that imported it would compare the
reference with itself, ``oracles`` importing ``gl2`` would be a cycle,
and the package root exports no reference code.

No module imports a name it never reads, so that code deleted from a
module takes its imports with it. The package root, whose imports are
its exports, and the ``gl2`` alias are exempt.
"""

import ast
from pathlib import Path

import pytest

import bbwkoszul


def _imports_gl2(tree: ast.AST) -> bool:
    """Whether any import statement, at any depth, names a module ``gl2``."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names += [module] + [f"{module}.{alias.name}" for alias in node.names]
    return any("gl2" in name.split(".") for name in names)


@pytest.mark.parametrize(
    "source",
    [
        "from .gl2 import wedge_power_gl2",
        "from . import gl2",
        "import bbwkoszul.gl2",
        "from bbwkoszul import gl2",
        "def f():\n    from .gl2 import gl2_tensor\n",
    ],
)
def test_every_import_form_is_seen(source):
    assert _imports_gl2(ast.parse(source))


def test_only_the_reference_layers_import_gl2():
    package = Path(bbwkoszul.__file__).parent
    offenders = [
        path.name
        for path in sorted(package.glob("*.py"))
        if _imports_gl2(ast.parse(path.read_text()))
    ]
    assert offenders == []


def _unused_imports(tree: ast.AST) -> list[str]:
    """The names that import statements bind and no expression of the module reads."""
    bound = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import os", ["os"]),
        ("import os.path\nos.sep", []),
        ("from a import b as c\nb = 1", ["c"]),
        ("from a import b\ndef f() -> b: ...", []),
        ("def f():\n    from a import b\n    return b.c", []),
        ("from __future__ import annotations", []),
    ],
)
def test_unused_imports_are_seen(source, unused):
    assert _unused_imports(ast.parse(source)) == unused


def test_no_module_imports_a_name_it_never_uses():
    package = Path(bbwkoszul.__file__).parent
    unused = {
        path.name: _unused_imports(ast.parse(path.read_text()))
        for path in sorted(package.glob("*.py"))
        if path.name not in ("__init__.py", "gl2.py")
    }
    assert {name: names for name, names in unused.items() if names} == {}
