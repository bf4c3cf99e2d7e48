"""Every top-level import in the package and the tests is used, and the
lower layers never import the upper ones at the top.

A name bound by a module-level import must be read somewhere in the
module or listed in its ``__all__``.  A deliberate re-export is spelled
``from .x import y as y``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/boxworld/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.asname != alias.name:  # "y as y" is a re-export
                    bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path) == []


LOWER_LAYERS = ("errors", "pauli", "states", "rac", "games", "infotasks")
UPPER_LAYERS = {"constraints", "oracle", "cli"}


def top_level_imports(path: Path) -> set[str]:
    """Every dotted name a module-level import of ``path`` spells."""
    names = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            prefix = f"{node.module}." if node.module else ""
            names |= {prefix + alias.name for alias in node.names}
    return names


@pytest.mark.parametrize("name", LOWER_LAYERS)
def test_lower_layers_import_no_upper_layer(name):
    path = ROOT / "src" / "boxworld" / f"{name}.py"
    named = {part for dotted in top_level_imports(path) for part in dotted.split(".")}
    assert named & UPPER_LAYERS == set()
