"""What the command line promises: every command's stdout and exit
code on fixed inputs, and exit 2 with nothing on stdout for every
usage error.

Both tests go through ``cli.run_named`` in process, so they hold for
any parser behind it.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from boxworld.cli import run_named
from cli_corpus import CORPUS, run, write_files

EXPECTED = json.loads(CORPUS.read_text())


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-corpus")
    write_files(EXPECTED["files"], path)
    return path


def _case_id(config: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(config.items()))


@pytest.mark.parametrize("case", EXPECTED["cases"], ids=[_case_id(c["config"]) for c in EXPECTED["cases"]])
def test_stdout_matches_the_corpus(case, folder):
    assert run(case["config"], folder) == {"code": case["code"], "stdout": case["stdout"]}


def test_corpus_covers_every_command():
    commands = {case["config"]["command"] for case in EXPECTED["cases"]}
    assert commands == {
        "chsh", "xor", "rac params", "rac encode", "rac decode", "rac verify", "rac boost",
        "comm cost", "comm ip", "pir", "learn", "validate", "oracle verify", "table", "psphere",
    }
    assert len(EXPECTED["cases"]) == 65


USAGE_ERRORS = {
    "p-below-one": {"command": "chsh", "p": 0.5},
    "p-not-a-number": {"command": "chsh", "p": "abc"},
    "negative-seed": {"command": "comm ip", "x": "1", "y": "1", "seed": -1},
    "env-seed-not-an-integer": {"command": "comm ip", "x": "1", "y": "1"},
    "trials-0": {"command": "rac verify", "n": 1, "trials": 0},
    "cases-0": {"command": "oracle verify", "claim": "chsh", "cases": 0},
    "format-xml": {"command": "chsh", "format": "xml"},
    "unknown-game": {"command": "xor", "game": "foo"},
    "unknown-theory": {"command": "rac encode", "theory": "foo", "n": 1, "bits": "010"},
    "theory-case": {"command": "rac encode", "theory": "P-GNST", "n": 1, "bits": "010"},
    "out-is-a-directory": {"command": "rac encode", "n": 1, "bits": "010", "out": "{dir}"},
    "missing-n": {"command": "rac params"},
    "abbreviated-option": {"command": "xor", "s": 3},
    "p-list-not-a-number": {"command": "psphere", "p_list": "1,abc"},
    "tol-nan": {"command": "chsh", "p": 2, "tol": "nan"},
    "tol-negative": {"command": "xor", "game": "chsh", "tol": -1},
    "tol-inf": {"command": "chsh", "p": 2, "tol": "inf"},
    "unknown-command": {"command": "frob"},
    "bare-group": {"command": "rac"},
    "no-command": {},
}


@pytest.mark.parametrize("name", USAGE_ERRORS)
def test_usage_error_exits_two(name, tmp_path, monkeypatch):
    if name == "env-seed-not-an-integer":
        monkeypatch.setenv("BOXWORLD_SEED", "abc")
    else:
        monkeypatch.delenv("BOXWORLD_SEED", raising=False)
    config = {k: v.replace("{dir}", str(tmp_path)) if isinstance(v, str) else v for k, v in USAGE_ERRORS[name].items()}
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_named(config)
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue()
