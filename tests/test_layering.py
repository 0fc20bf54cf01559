"""No module of the package imports ``bbwkoszul.gl2``.

``gl2`` is only an alias of two ``oracles`` names, kept because the
benchmark's tracer wraps them by that module path. The rank-2 calculus
itself is part of the second route in ``oracles``: an engine module that
imported it would compare the reference with itself, ``oracles``
importing ``gl2`` would be a cycle, and the package root exports no
reference code.
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
