"""The CLI stdout corpus: every command and subcommand on fixed inputs.

Each case is a ``cli.run_named`` mapping, run in process, with its exit
code and exact stdout; every command that takes ``--format`` runs in
both formats.  The state files that ``rac decode`` and ``validate``
read (a p-bin code, a quantum state, a compact table code, a stored
table and an invalid state) are kept in the corpus too, so the inputs cannot drift
with the encoders.  A ``{dir}`` in a value or in stdout stands for the
folder the files are written to.  ``tests/test_cli_contract.py`` compares
stdout byte for byte with the committed ``tests/data/cli_stdout.json``;
the ``validate`` margins come from LAPACK, so another numpy or BLAS
build may round one of them differently in the last digit.

A change that moves a command's stdout on purpose regenerates the file
with

    PYTHONPATH=src python tests/cli_corpus.py

and lists each changed case in CHANGES.md.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from boxworld import oracle, rac, states
from boxworld.cli import run_named

CORPUS = Path(__file__).parent / "data" / "cli_stdout.json"
FORMATS = ("json", "csv")

# (mapping, takes --format); a case that takes the flag runs in both formats.
COMMANDS = [
    ({"command": "chsh", "p": 2}, True),
    ({"command": "chsh", "p": "inf"}, True),
    ({"command": "xor", "p": 3}, True),
    ({"command": "xor", "game": "random", "s_count": 3, "t_count": 4, "p": 2, "seed": 5}, True),
    ({"command": "rac params", "theory": "p-bin", "n": 2, "p": 2}, True),
    ({"command": "rac params", "theory": "gnst", "n": 2, "p": "inf"}, True),
    ({"command": "rac encode", "theory": "gnst", "n": 2, "p": "inf", "bits": "011010011"}, False),
    ({"command": "rac encode", "n": 2, "p": 2, "bits": "011010011"}, False),
    ({"command": "rac encode", "theory": "p-bin", "n": 1, "p": 2, "bits": "010"}, False),
    ({"command": "rac encode", "theory": "p-box", "n": 2, "p": 3, "bits": "110010011"}, False),
    ({"command": "rac encode", "theory": "gnst", "n": 1, "bits": "101", "out": "{dir}/code.json"}, False),
    ({"command": "rac decode", "file": "{dir}/gnst.json", "index": 4}, True),
    ({"command": "rac decode", "file": "{dir}/table.json", "index": 2}, True),
    ({"command": "rac decode", "file": "{dir}/coeff.json", "index": 7}, True),
    ({"command": "rac verify", "n": 1, "p": 2, "trials": 200, "seed": 7}, True),
    ({"command": "rac verify", "theory": "gnst", "n": 2, "p": "inf", "trials": 100, "bits": "011010011"}, True),
    ({"command": "rac boost", "n": 1, "p": 2, "trials": 50, "seed": 2, "index": 2}, True),
    ({"command": "comm cost", "n": 10, "p": "inf"}, True),
    ({"command": "comm cost", "n": 4, "p": 2, "theory": "p-bin"}, True),
    ({"command": "comm ip", "x": "1011", "y": "0110", "p": 2, "seed": 3}, True),
    ({"command": "comm ip", "x": "1011001110", "y": "0110110001"}, True),
    ({"command": "pir", "db": "0110101", "index": 3, "p": 2, "seed": 5}, True),
    ({"command": "pir", "db": "101101101", "index": 3}, True),
    ({"command": "learn", "budget": 100, "p": 2, "gamma": 0.25, "epsilon": 0.1, "delta": 0.05}, True),
    ({"command": "learn", "budget": 40, "gamma": 0.2, "epsilon": 0.1, "delta": 0.1, "eta": 0.05}, True),
    ({"command": "validate", "file": "{dir}/coeff.json", "p": 2}, True),
    ({"command": "validate", "file": "{dir}/quantum.json", "p": 2}, True),
    ({"command": "validate", "file": "{dir}/gnst.json", "p": "inf"}, True),
    ({"command": "validate", "file": "{dir}/table.json", "p": 2}, True),
    ({"command": "validate", "file": "{dir}/invalid.json", "p": 2}, True),
    ({"command": "oracle verify", "claim": "chsh", "cases": 3}, True),
    ({"command": "oracle verify", "claim": "inclusion", "cases": 3, "seed": 1}, True),
    ({"command": "table"}, True),
    ({"command": "table", "p": "inf"}, True),
    ({"command": "psphere", "p_list": "1,2.5", "samples": 8}, False),
    ({"command": "psphere", "samples": 4}, False),
]


def cases() -> list[dict]:
    """Every mapping the corpus runs, in order."""
    out = []
    for mapping, formatted in COMMANDS:
        for fmt in FORMATS if formatted else (None,):
            out.append(mapping if fmt is None else {**mapping, "format": fmt})
    return out


def stored_files() -> dict[str, dict]:
    """The JSON of each state file the cases read, by file name."""
    rng = np.random.default_rng(2008)
    code = rac.rac_encode_pgnst([int(b) for b in rng.integers(0, 2, 9)], 2, 2.0)
    table = states.GnstState.from_table(2, {s.labels: code.probabilities(s) for s in code.settings()})
    files = {
        "coeff": rac.rac_encode_pbin([int(b) for b in rng.integers(0, 2, 15)], 2, 2.0),
        "quantum": oracle.random_quantum_state(2, rng),
        "gnst": rac.rac_encode_gnst([int(b) for b in rng.integers(0, 2, 9)], 2),
        "table": table,
        "invalid": states.CoefficientState(1, {(1, 0): 1.0, (0, 1): 1.0}),
    }
    return {f"{name}.json": state.to_json_dict() for name, state in files.items()}


def write_files(files: dict[str, dict], folder: Path) -> None:
    for name, data in files.items():
        (folder / name).write_text(json.dumps(data))


def run(mapping: dict, folder: Path) -> dict:
    """Exit code and stdout of one mapping, with the folder as ``{dir}``."""
    resolved = {k: v.replace("{dir}", str(folder)) if isinstance(v, str) else v for k, v in mapping.items()}
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run_named(resolved)
    return {"code": code, "stdout": out.getvalue().replace(str(folder), "{dir}")}


def corpus(folder: Path) -> dict:
    files = stored_files()
    write_files(files, folder)
    return {"files": files, "cases": [{"config": m, **run(m, folder)} for m in cases()]}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = corpus(Path(tmp))
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {CORPUS}: {len(data['cases'])} cases")
