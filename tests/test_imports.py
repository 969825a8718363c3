"""Every name a module of src/absarith imports is used in that module.

A name counts as used where it is read anywhere in the module (a call, an
attribute's root, an annotation, a decorator) or listed in __all__.  The
check reads each file with the standard library's ast, so a deletion that
leaves an import behind fails here rather than lingering.

No module imports an underscore name from another: what two modules share is
public, and a module's private names stay free to change."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "absarith")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_the_check_finds_an_unused_import():
    source = "from itertools import chain, repeat\nimport numpy as np\n\nx = repeat(np.zeros(1))\n"
    assert _unused_imports(source) == ["chain (line 1)"]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_name_it_never_uses(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as f:
        assert _unused_imports(f.read()) == [], module


def _private_imports(source: str) -> list[str]:
    """The underscore names, dunders aside, that a module imports by name."""
    return [
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]


def test_the_check_finds_a_private_import():
    shapes = "def area(r):\n    return _square(r)\n\ndef _square(r):\n    return r * r\n"
    draw = "from . import __version__\nfrom .shapes import _square, area\n\nx = area(_square(2))\n"
    assert _private_imports(shapes) == []
    assert _private_imports(draw) == ["_square (line 2)"]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_private_name_of_another(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as f:
        assert _private_imports(f.read()) == [], module
