"""Every top-level import in the package and the tests is used, the
lower layers never import the upper ones at the top, no production
module imports the oracle anywhere, the modules of the combinatorial
commands load no numpy, no module imports ``dataclasses``, and no
command loads click, nor ``rac`` where it goes unused.

A name bound by a module-level import must be read somewhere in the
module or listed in its ``__all__``.  A deliberate re-export is spelled
``from .x import y as y``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import boxworld

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
            try:
                used |= set(ast.literal_eval(node.value))
            except ValueError:  # a computed __all__ vouches for no import
                pass
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path) == []


def undefined_exports(path: Path) -> list[str]:
    """Names in a module's ``__all__`` that no module-level def, class
    or assignment of that module binds."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defined, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined.add(node.target.id)
        elif isinstance(node, ast.Assign):
            names = {t.id for t in node.targets if isinstance(t, ast.Name)}
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
            defined |= names
    return [name for name in exported if name not in defined]


SUBMODULES = sorted(p for p in ROOT.glob("src/boxworld/*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", SUBMODULES, ids=lambda p: p.stem)
def test_every_export_is_defined_in_its_module(path):
    # A name listed in __all__ but imported from elsewhere is a second
    # spelling of the defining module's name.
    assert undefined_exports(path) == []


LOWER_LAYERS = ("errors", "pauli", "states", "rac", "games", "infotasks")
UPPER_LAYERS = {"constraints", "oracle", "cli"}


def imported_names(path: Path, nested: bool = False) -> set[str]:
    """Every dotted name a module-level import of ``path`` spells, and
    with ``nested`` every import inside a function or class too."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree) if nested else tree.body:
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            prefix = f"{node.module}." if node.module else ""
            names |= {prefix + alias.name for alias in node.names}
    return names


@pytest.mark.parametrize("name", LOWER_LAYERS)
def test_lower_layers_import_no_upper_layer(name):
    path = ROOT / "src" / "boxworld" / f"{name}.py"
    named = {part for dotted in imported_names(path) for part in dotted.split(".")}
    assert named & UPPER_LAYERS == set()


# The oracle is the slow, independent reference the tests check the
# production modules against, so none of them may call into it.
PRODUCTION = ("pauli", "states", "constraints", "rac", "games", "infotasks")


@pytest.mark.parametrize("name", PRODUCTION)
def test_production_never_imports_the_oracle(name):
    path = ROOT / "src" / "boxworld" / f"{name}.py"
    named = {part for dotted in imported_names(path, nested=True) for part in dotted.split(".")}
    assert "oracle" not in named


# Records are named tuples and value types slotted classes: the first
# ``import dataclasses`` pulls in inspect, ast, dis and tokenize, and
# each class it builds compiles its generated methods.
@pytest.mark.parametrize("path", sorted(ROOT.glob("src/boxworld/*.py")), ids=lambda p: p.stem)
def test_no_module_imports_dataclasses(path):
    assert "dataclasses" not in {dotted.partition(".")[0] for dotted in imported_names(path, nested=True)}


# Modules whose import must not load numpy: the combinatorial commands
# (CHSH, the table codes, the protocols at p = inf, the summary table's
# uncertainty check) need no linear algebra.
NUMPY_FREE = ("errors", "pauli", "states", "rac", "games", "infotasks", "constraints", "cli")


@pytest.mark.parametrize("name", NUMPY_FREE)
def test_no_module_level_numpy_import(name):
    path = ROOT / "src" / "boxworld" / f"{name}.py"
    assert "numpy" not in {dotted.partition(".")[0] for dotted in imported_names(path)}


RUN_COMMANDS = """\
import json, sys
from boxworld.cli import main
MODULES = ("numpy", "click", "boxworld.rac", "dataclasses")
loaded = [[name in sys.modules for name in MODULES]]
for args in json.loads(sys.argv[1]):
    assert main(args) == 0, args
    loaded.append([name in sys.modules for name in MODULES])
print(json.dumps(loaded))
"""

NUMPY_FREE_COMMANDS = {
    "chsh": [["chsh", "--p", "2"]],
    "xor": [["xor", "--p", "3"], ["xor", "--game", "random", "--s-count", "3", "--seed", "5"]],
    "rac-params": [["rac", "params", "--n", "2", "--p", "2"]],
    "rac-encode-decode": [
        ["rac", "encode", "--theory", "gnst", "--n", "2", "--bits", "011010011",
         "--out", "{dir}/a.json"],
        ["rac", "decode", "--file", "{dir}/a.json", "--index", "4"],
        ["rac", "encode", "--n", "2", "--p", "2", "--bits", "011010011", "--out", "{dir}/b.json"],
        ["rac", "decode", "--file", "{dir}/b.json", "--index", "4"],
    ],
    "comm-cost": [["comm", "cost", "--n", "3", "--p", "2"]],
    "comm-ip": [["comm", "ip", "--x", "1011001101", "--y", "0110110010"]],
    "pir": [["pir", "--db", "011010110011010110101", "--index", "7"]],
    "learn": [
        ["learn", "--budget", "100", "--p", "2", "--gamma", "0.1", "--epsilon", "0.1",
         "--delta", "0.1"],
    ],
    "table": [["table", "--p", p] for p in ("1.5", "2", "3", "inf")],
}

# Commands that read no code: theory names are checked in rac alone.
RAC_FREE_COMMANDS = ("chsh", "xor", "table")


@pytest.mark.parametrize("command", NUMPY_FREE_COMMANDS)
def test_command_loads_no_numpy(command, tmp_path):
    argv = [[arg.format(dir=tmp_path) for arg in args] for args in NUMPY_FREE_COMMANDS[command]]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", RUN_COMMANDS, json.dumps(argv)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    # One row of flags after the import and one after each command.
    numpy, click, rac, dataclasses = zip(*json.loads(out.stdout.splitlines()[-1]))
    assert numpy == click == dataclasses == (False,) * (len(argv) + 1)
    assert not any(rac) or command not in RAC_FREE_COMMANDS


def test_bare_cli_import_loads_no_pathlib_or_random():
    # Without site (-S), which may preload them, a command that needs
    # neither module does not pay for it.
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = "import sys, boxworld.cli\nprint([m for m in ('pathlib', 'random') if m in sys.modules])\n"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.stdout.split() == ["[]"]


def test_every_public_name_resolves():
    for name in boxworld.__all__:
        assert getattr(boxworld, name) is not None, name
    assert set(boxworld.__all__) <= set(dir(boxworld))
    namespace = {}
    exec("from boxworld import *", namespace)
    assert {name: namespace[name] for name in boxworld.__all__} == {
        name: getattr(boxworld, name) for name in boxworld.__all__
    }


@pytest.mark.parametrize(
    "module,name",
    [(module, name) for module, names in boxworld._EXPORTS.items() for name in names if name != module],
)
def test_export_map_names_the_defining_module(module, name):
    # A name listed under a module that only re-exports it loads that
    # module's dependencies on first access.
    assert getattr(boxworld, name).__module__ == f"boxworld.{module}"


def test_numpy_free_exports_load_no_numpy():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, boxworld\n"
        "boxworld.validate_exponent, boxworld.maximal_commuting_sets\n"
        "boxworld.check_p_uncertainty(boxworld.chsh_optimal_state(2.0), 2.0)\n"
        "code = boxworld.rac_encode_pgnst([0, 1, 1] * 9, 3, 2.0)\n"
        "boxworld.check_p_uncertainty(code, 2.0)\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.stdout.split() == ["False"]
