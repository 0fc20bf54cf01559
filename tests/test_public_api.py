"""The package root exports the engine and the harness, never the reference.

``bbwkoszul.__all__`` is the public surface. Every name in it resolves,
none is listed twice, and none is defined by the second route
(``oracles``) or by the ``gl2`` alias of two of its names.
"""

import ast
from pathlib import Path

import bbwkoszul

PACKAGE = Path(bbwkoszul.__file__).parent


def _top_level_definitions(module: str) -> set[str]:
    """The names a module's own top level defines: functions, classes, assignments."""
    names = set()
    for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_all_has_no_duplicates():
    assert len(bbwkoszul.__all__) == len(set(bbwkoszul.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in bbwkoszul.__all__ if not hasattr(bbwkoszul, name)]
    assert missing == []


def test_no_reference_name_is_exported():
    reference = _top_level_definitions("oracles")
    assert {"gl2_character", "gl2_tensor", "wedge_power_gl2", "lr_suite"} <= reference
    assert sorted(reference & set(bbwkoszul.__all__)) == []
    homes = {getattr(getattr(bbwkoszul, name), "__module__", None) for name in bbwkoszul.__all__}
    assert not homes & {"bbwkoszul.oracles", "bbwkoszul.gl2"}


def test_gl2_defines_nothing():
    # the alias holds one import of two oracle names and no definition
    assert _top_level_definitions("gl2") == set()
    (node,) = ast.parse((PACKAGE / "gl2.py").read_text()).body
    assert isinstance(node, ast.ImportFrom) and node.module == "oracles" and node.level == 1
    assert sorted(alias.name for alias in node.names) == ["gl2_tensor", "wedge_power_gl2"]
