import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import boxworld
from boxworld import oracle, rac as rac_mod
from boxworld.cli import main, run_named, run_psphere, run_summary_table
from boxworld.constraints import classify_state
from boxworld.errors import DomainError
from boxworld.games import chsh_win_probability
from boxworld.rac import rac_encode_pbin, rac_encode_pgnst
from boxworld.states import CoefficientState, GnstState


class Runner:
    """Runs ``cli.main`` in process, capturing stdout, stderr and the exit code."""

    def invoke(self, command, args, env=None):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, env or {}), redirect_stdout(out), redirect_stderr(err):
            code = command(list(args))
        return SimpleNamespace(
            exit_code=code, stdout=out.getvalue(), stderr=err.getvalue(), output=out.getvalue() + err.getvalue()
        )


@pytest.fixture
def runner():
    return Runner()


def invoke(runner, *args, **kwargs):
    return runner.invoke(main, list(args), **kwargs)


class TestChshCommand:
    def test_value_at_two(self, runner):
        result = invoke(runner, "chsh", "--p", "2")
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["win_probability"] == pytest.approx(chsh_win_probability(2))
        assert payload["consistent"] is True

    def test_infinity_token(self, runner):
        result = invoke(runner, "chsh", "--p", "inf")
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["p"] == "inf"
        assert payload["win_probability"] == 1.0

    def test_deterministic_output(self, runner):
        first = invoke(runner, "chsh", "--p", "3")
        second = invoke(runner, "chsh", "--p", "3")
        assert first.stdout == second.stdout

    def test_csv_format(self, runner):
        result = invoke(runner, "chsh", "--p", "2", "--format", "csv")
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "field,value"
        assert any(line.startswith("win_probability,") for line in lines)

    def test_bad_exponent_is_usage_error(self, runner):
        assert invoke(runner, "chsh", "--p", "0.5").exit_code == 2


class TestXorCommand:
    def test_chsh_game(self, runner):
        result = invoke(runner, "xor", "--p", "2")
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["predicted_win"] == pytest.approx(0.5 + 2.0**-1.5)
        assert payload["consistent"] is True

    def test_random_game(self, runner):
        result = invoke(
            runner, "xor", "--game", "random", "--s-count", "3", "--t-count", "3",
            "--p", "inf", "--seed", "4",
        )
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["achieved_win"] == pytest.approx(1.0)


class TestRacCommands:
    def test_params(self, runner):
        result = invoke(runner, "rac", "params", "--theory", "p-bin", "--n", "2", "--p", "2")
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["encoded_bits"] == 15

    def test_encode_decode_round_trip(self, runner, tmp_path):
        path = tmp_path / "code.json"
        result = invoke(
            runner, "rac", "encode", "--theory", "gnst", "--n", "1",
            "--p", "inf", "--bits", "101", "--out", str(path),
        )
        assert result.exit_code == 0
        assert path.exists()
        for index, expected in ((1, 1), (2, 0), (3, 1)):
            decode = invoke(
                runner, "rac", "decode", "--file", str(path), "--index", str(index)
            )
            assert decode.exit_code == 0
            payload = json.loads(decode.stdout)
            assert payload["bit"] == expected
            assert payload["success_probability"] == 1.0

    def test_encode_to_stdout(self, runner):
        result = invoke(
            runner, "rac", "encode", "--theory", "p-bin", "--n", "1", "--p", "2",
            "--bits", "010",
        )
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["kind"] == "coeff"

    def test_verify_csv_shape(self, runner):
        result = invoke(
            runner, "rac", "verify", "--theory", "p-gnst", "--n", "1", "--p", "2",
            "--trials", "1000", "--seed", "1",
        )
        assert result.exit_code == 0
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "index,exact_q,empirical_q,trials"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(0.5 + 0.5 * 3.0**-0.5)

    def test_verify_json(self, runner):
        result = invoke(
            runner, "rac", "verify", "--theory", "gnst", "--n", "1", "--p", "inf",
            "--trials", "100", "--format", "json",
        )
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["failures"] == 0

    def test_boost_within_bound(self, runner):
        result = invoke(
            runner, "rac", "boost", "--n", "1", "--p", "1", "--trials", "2000",
            "--seed", "0",
        )
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["copies"] == 27
        assert payload["within_bound"] is True
        assert payload["empirical_failure"] <= payload["failure_bound"]

    def test_boost_refuses_sizes_it_cannot_draw(self, runner, monkeypatch):
        # Without the limit, drawing the 3**40-bit codeword fails at once.
        monkeypatch.setattr("boxworld.cli.random", None)
        result = invoke(runner, "rac", "boost", "--n", "40", "--p", "2")
        assert result.exit_code == 2
        assert "limited to n <= 12" in result.stderr

    @pytest.mark.parametrize(
        "theory, bits",
        [
            ("gnst", "011010011"),
            ("p-gnst", "011010011"),
            ("p-bin", "011010011001011"),
            ("p-box", "011010011"),
        ],
    )
    def test_encode_prints_the_library_state(self, runner, theory, bits):
        p = "inf" if theory == "gnst" else "2"  # the full-strength code is p = inf only
        result = invoke(
            runner, "rac", "encode", "--theory", theory, "--n", "2", "--p", p,
            "--bits", bits,
        )
        assert result.exit_code == 0
        state = rac_mod.rac_encode(theory, [int(b) for b in bits], 2, float(p))
        assert result.stdout == json.dumps(state.to_json_dict(), sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize(
        "command, extra", [("params", ()), ("encode", ("--bits", "010")), ("verify", ())]
    )
    def test_gnst_at_finite_p_is_usage_error(self, runner, command, extra):
        result = invoke(runner, "rac", command, "--theory", "gnst", "--n", "1", "--p", "2", *extra)
        assert result.exit_code == 2
        assert "requires p = inf" in result.stderr
        assert result.stdout == ""

    def test_encode_without_systems_is_usage_error(self, runner):
        result = invoke(runner, "rac", "encode", "--theory", "gnst", "--n", "0", "--bits", "1")
        assert result.exit_code == 2
        assert "at least one carrier" in result.stderr

    @pytest.mark.parametrize(
        "args, target",
        [
            (("verify", "--theory", "gnst", "--p", "inf", "--trials", "10"), "rac_encode_gnst"),
            (("boost", "--p", "1", "--trials", "10"), "rac_repetition_decode"),
        ],
    )
    def test_default_codeword_draws_both_bits(self, runner, monkeypatch, args, target):
        seen = []
        original = getattr(rac_mod, target)

        def spy(bits, *rest, **kwargs):
            seen.append(list(bits))
            return original(bits, *rest, **kwargs)

        monkeypatch.setattr(rac_mod, target, spy)
        result = invoke(runner, "rac", *args, "--n", "2", "--seed", "0")
        assert result.exit_code == 0
        assert len(seen) == 1 and set(seen[0]) == {0, 1}


class TestCommCommands:
    def test_cost(self, runner):
        result = invoke(runner, "comm", "cost", "--n", "10", "--p", "inf")
        payload = json.loads(result.stdout)
        assert payload["carriers"] == 7
        assert payload["exact"] is True

    def test_cost_rejects_gnst_at_finite_p(self, runner):
        result = invoke(runner, "comm", "cost", "--n", "4", "--p", "2", "--theory", "gnst")
        assert result.exit_code == 2

    def test_ip_exact(self, runner):
        result = invoke(runner, "comm", "ip", "--x", "101", "--y", "110", "--p", "inf")
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["decoded"] == payload["expected"] == 1
        assert payload["match"] is True

    def test_pir(self, runner):
        result = invoke(runner, "pir", "--db", "101101101", "--index", "3", "--p", "inf")
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["retrieved"] == 1
        assert payload["carriers_sent"] == 2

    def test_learn(self, runner):
        result = invoke(
            runner, "learn", "--budget", "100", "--p", "2", "--gamma", "0.25",
            "--epsilon", "0.1", "--delta", "0.05",
        )
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["carriers"] == 3
        assert payload["asymptotic"] == "O(3^(budget^0.5))"


LEARN_ARGS = ("--p", "inf", "--gamma", "0.1", "--epsilon", "0.1", "--delta", "0.1")

# Budget 2060 gives 639 carriers, the last budget step whose 4d/gamma^2
# stays inside the float range.
LEARN_2060 = """\
{
  "asymptotic": "O(3^(budget^1))",
  "bound": {
    "first_branch": 2.3671702255649374e+298,
    "precondition_ok": true,
    "precondition_threshold": 0.0,
    "second_branch": 23.025850929940457,
    "value": 2.3671702255649374e+298
  },
  "carriers": 639,
  "dimension": DIMENSION,
  "params": {
    "delta": 0.1,
    "dimension": DIMENSION,
    "epsilon": 0.1,
    "eta": null,
    "gamma": 0.1,
    "regime": "eta unspecified",
    "sample_bound": 2.3671702255649374e+298
  },
  "threshold": 2.3671702255649374e+298
}
""".replace("DIMENSION", str(3**639))


class TestLearnRange:
    def test_largest_budget_is_pinned(self, runner):
        result = invoke(runner, "learn", "--budget", "2060", *LEARN_ARGS)
        assert result.exit_code == 0
        assert result.stdout == LEARN_2060

    @pytest.mark.parametrize("budget", ["2070", "2080", "2090", "1e6", "inf", "nan"])
    def test_budget_past_the_float_range_is_refused(self, runner, budget):
        result = invoke(runner, "learn", "--budget", budget, *LEARN_ARGS)
        assert result.exit_code == 2
        assert result.stdout == ""
        errors = [line for line in result.stderr.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("budget", [2070.0, 2080.0, 2090.0, 1e6, math.inf, math.nan])
    def test_run_named_returns_two(self, budget, capsys):
        config = {"command": "learn", "budget": budget, "p": math.inf, "gamma": 0.1, "epsilon": 0.1, "delta": 0.1}
        assert run_named(config) == 2
        assert capsys.readouterr().out == ""


class TestXorLimit:
    def test_one_question_past_the_limit_is_refused_at_once(self, runner, monkeypatch):
        from boxworld import games

        def refuse(*args):
            raise AssertionError("a game table was built")

        monkeypatch.setattr(games, "XorGame", refuse)
        for counts in (("--s-count", "129"), ("--t-count", "129")):
            result = invoke(runner, "xor", "--game", "random", *counts)
            assert result.exit_code == 2
            assert result.stdout == ""
            errors = [line for line in result.stderr.splitlines() if line.startswith("Error:")]
            assert len(errors) == 1 and "128 questions per party" in errors[0]


class TestValidateCommand:
    def test_hierarchy_witness_passes(self, runner, tmp_path):
        path = tmp_path / "witness.json"
        state = rac_encode_pbin([0] * 15, 2, 2)
        path.write_text(json.dumps(state.to_json_dict()))
        result = invoke(runner, "validate", "--file", str(path), "--p", "2")
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["level"] == "p-box"
        assert "commuting-moments: FAIL" in result.stderr

    def test_invalid_state_exits_nonzero(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        state = CoefficientState(1, {(1, 0): 1.0, (0, 1): 1.0})
        path.write_text(json.dumps(state.to_json_dict()))
        result = invoke(runner, "validate", "--file", str(path), "--p", "2")
        assert result.exit_code == 1
        payload = json.loads(result.stdout)
        assert payload["level"] == "invalid"

    def test_unreadable_file_is_usage_error(self, runner, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{\"kind\": \"mystery\"}")
        assert invoke(runner, "validate", "--file", str(path), "--p", "2").exit_code == 2

    @pytest.mark.parametrize(
        "content, message",
        [
            ([1, 2], "does not hold a JSON object"),
            ({"kind": "coeff", "n": 2}, "lacks the key 'terms'"),
            ({"kind": "gnst", "n": 1, "lambda": "x", "signs": [1, 1, 1]}, "'x'"),
            ({"kind": "coeff", "n": -1, "terms": []}, "at least one system"),
            ({"kind": "coeff", "n": 1, "terms": [{"pauli": "X", "coeff": math.nan}]}, "not finite"),
            ({"kind": "gnst", "n": 1, "lambda": math.nan, "signs": [1, 1, 1]}, "not finite"),
            (
                {"kind": "gnst-table", "n": 1, "settings": [{"k": [1], "p": [math.nan, 0.5]}]},
                "not finite",
            ),
        ],
    )
    def test_malformed_file_is_usage_error(self, runner, tmp_path, content, message):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(content))
        result = invoke(runner, "validate", "--file", str(path))
        assert result.exit_code == 2
        errors = [line for line in result.stderr.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and message in errors[0]

    @pytest.mark.parametrize(
        "content, p, message",
        [
            (
                {
                    "kind": "gnst-table",
                    "n": 1,
                    "settings": [{"k": [1], "p": [0.500001, 0.5]}, {"k": [2], "p": [0.5, 0.5]}, {"k": [3], "p": [0.5, 0.5]}],
                },
                "2",
                "probabilities for (1,) sum to 1.0000010000000001",
            ),
            # Three moments of 1.000001 fail the relation at p = 2, so read it at p = inf.
            ({"kind": "gnst", "n": 1, "lambda": 1.000001, "signs": [1, 1, 1]}, "inf", "|lam| = 1.000001 exceeds 1"),
            ({"kind": "coeff", "n": 1, "terms": [{"pauli": "X", "coeff": 1.000001}]}, "2", "violates |s| <= 1"),
        ],
        ids=["table", "compact", "coefficients"],
    )
    def test_tol_reaches_the_load_time_check(self, runner, tmp_path, content, p, message):
        """A state one part in 10**6 off is loaded and classified at
        --tol 1e-3, and refused as it loads at the default tolerance."""
        path = tmp_path / "off.json"
        path.write_text(json.dumps(content))
        result = invoke(runner, "validate", "--file", str(path), "--p", p, "--tol", "1e-3")
        assert result.exit_code == 0
        kind = CoefficientState if content["kind"] == "coeff" else GnstState
        expected = classify_state(kind.from_json_dict(content, tol=1e-3), float(p), tol=1e-3)
        assert json.loads(result.stdout) == json.loads(json.dumps(expected.to_json_dict()))
        result = invoke(runner, "validate", "--file", str(path), "--p", p)
        assert (result.exit_code, result.stdout) == (2, "")
        errors = [line for line in result.stderr.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and message in errors[0]

    @pytest.mark.parametrize("n", [3, 5])
    def test_table_file_reads_as_its_compact_code(self, runner, tmp_path, n):
        code = rac_encode_pgnst(np.random.default_rng(n).integers(0, 2, 3**n).tolist(), n, 2)
        table = GnstState.from_table(n, {s.labels: code.probabilities(s) for s in code.settings()})
        levels = []
        for name, state in (("compact", code), ("table", table)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(state.to_json_dict()))
            result = invoke(runner, "validate", "--file", str(path), "--p", "2")
            assert result.exit_code == 0
            levels.append(json.loads(result.stdout)["level"])
        assert json.loads(path.read_text())["kind"] == "gnst-table"
        assert levels[0] == levels[1]

    def test_five_systems_report_the_rungs_that_ran(self, runner, tmp_path):
        state = oracle.random_quantum_state(5, np.random.default_rng(0))
        path = tmp_path / "five.json"
        path.write_text(json.dumps(state.to_json_dict()))
        result = invoke(runner, "validate", "--file", str(path), "--p", "2")
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload == json.loads(json.dumps(classify_state(state, 2).to_json_dict()))
        assert payload["level"] == "p-box"
        assert payload["stopped"]["constraint"] == "commuting-moments"
        assert "commuting-moments: not run (" in result.stderr


class TestOracleCommand:
    def test_verify_chsh(self, runner):
        result = invoke(runner, "oracle", "verify", "--claim", "chsh", "--cases", "10")
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["passed"] is True

    def test_unknown_claim(self, runner):
        assert invoke(runner, "oracle", "verify", "--claim", "nope").exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        ("oracle", "verify", "--claim", "inclusion", "--cases", "0"),
        ("oracle", "verify", "--claim", "inclusion", "--cases", "-3"),
        ("rac", "verify", "--n", "1", "--trials", "0"),
        ("rac", "verify", "--n", "1", "--trials", "-1"),
        ("xor", "--game", "random", "--s-count", "0"),
        ("xor", "--game", "random", "--t-count", "0"),
    ],
    ids=["cases-0", "cases-neg", "trials-0", "trials-neg", "s-count-0", "t-count-0"],
)
def test_count_below_one_is_usage_error(runner, args):
    result = invoke(runner, *args)
    assert result.exit_code == 2
    errors = [line for line in result.stderr.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1


class TestTableCommand:
    def test_json_contents(self, runner):
        result = invoke(runner, "table", "--p", "2")
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["columns"][0] == "p-bin"
        by_name = {row["name"]: row["cells"] for row in payload["rows"]}
        chsh_row = by_name["chsh-win"]
        assert chsh_row[0]["value"] == pytest.approx(chsh_win_probability(2))
        assert chsh_row[0]["status"] == "computed"
        assert chsh_row[3]["value"] == pytest.approx(0.5 + 2.0**-1.5, abs=1e-6)
        assert chsh_row[4]["value"] == 0.75

    def test_csv_long_form(self, runner):
        result = invoke(runner, "table", "--format", "csv")
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "row,theory,value,status"
        assert len(lines) > 10

    def test_run_summary_table_statuses(self):
        payload = run_summary_table(2.0)
        statuses = {
            cell["status"] for row in payload["rows"] for cell in row["cells"]
        }
        assert statuses == {"computed", "claimed"}


class TestPsphereCommand:
    def test_points_lie_on_the_sphere(self, runner):
        result = invoke(runner, "psphere", "--p-list", "1,2", "--samples", "16")
        assert result.exit_code == 0
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "p,x,y"
        assert len(lines) == 1 + 2 * 16
        # CSV carries 12 significant digits, so allow for the rounding
        for line in lines[1:]:
            p, x, y = (float(tok) for tok in line.split(","))
            assert abs(abs(x) ** p + abs(y) ** p - 1.0) < 1e-10

    def test_exact_identity_before_formatting(self):
        for p, x, y in run_psphere((1.0, 2.0, 3.0), samples=32):
            assert abs(x) ** p + abs(y) ** p == pytest.approx(1.0, abs=1e-12)

    def test_large_p_approaches_the_box(self):
        points = run_psphere((10000.0,), samples=8)
        xs = [abs(x) for _, x, y in points if abs(x) > 1e-6]
        assert max(xs) > 0.999

    def test_sample_floor(self, runner):
        assert invoke(runner, "psphere", "--samples", "2").exit_code == 2
        with pytest.raises(DomainError):
            run_psphere((2.0,), samples=2)

    def test_infinite_p_rejected(self):
        with pytest.raises(DomainError):
            run_psphere((math.inf,), samples=8)


class TestRunNamed:
    def test_mapping_dispatch(self):
        assert run_named({"command": "chsh", "p": 2}) == 0

    def test_config_dispatch(self):
        config = {"command": "oracle verify", "claim": "chsh", "cases": 10}
        assert run_named(config) == 0

    def test_infinity_value(self):
        assert run_named({"command": "chsh", "p": math.inf}) == 0

    def test_unknown_command(self, capsys):
        assert run_named({"command": "frobnicate"}) == 2
        assert "commands:" in capsys.readouterr().err

    def test_missing_command(self):
        assert run_named({}) == 2

    def test_failure_exit_code_propagates(self, tmp_path):
        path = tmp_path / "bad.json"
        state = CoefficientState(1, {(1, 0): 1.0, (0, 1): 1.0})
        path.write_text(json.dumps(state.to_json_dict()))
        assert run_named({"command": "validate", "file": str(path), "p": 2}) == 1


class TestSeedEnvironment:
    def test_env_seed_matches_explicit_flag(self, runner):
        from_env = runner.invoke(
            main, ["comm", "ip", "--x", "1011", "--y", "0110", "--p", "1"],
            env={"BOXWORLD_SEED": "7"},
        )
        explicit = invoke(
            runner, "comm", "ip", "--x", "1011", "--y", "0110", "--p", "1",
            "--seed", "7",
        )
        assert from_env.exit_code == explicit.exit_code == 0
        assert from_env.stdout == explicit.stdout

    @pytest.mark.parametrize(
        "args, env",
        [
            (("comm", "ip", "--x", "1", "--y", "1", "--p", "2", "--seed", "-1"), {}),
            (("pir", "--db", "0110101", "--index", "3", "--p", "2"), {"BOXWORLD_SEED": "-3"}),
        ],
        ids=["flag", "environment"],
    )
    def test_negative_seed_is_usage_error(self, runner, args, env):
        result = runner.invoke(main, list(args), env=env)
        assert result.exit_code == 2
        errors = [line for line in result.stderr.splitlines() if line.startswith("Error")]
        assert len(errors) == 1 and "--seed" in errors[0]
        assert "Traceback" not in result.output
        assert result.stdout == ""

    def test_bad_env_seed(self, runner):
        result = runner.invoke(
            main, ["comm", "ip", "--x", "1", "--y", "1", "--p", "inf"],
            env={"BOXWORLD_SEED": "pi"},
        )
        assert result.exit_code == 2


class TestImportIsLazy:
    def test_import_fills_no_program_cache(self):
        # A fresh interpreter, so no earlier test has filled a cache.
        code = (
            "import json, boxworld.cli\n"
            "from boxworld import constraints, pauli\n"
            "caches = [pauli.lagrangian_rows, pauli.maximal_commuting_sets,\n"
            "          constraints._local_plan, constraints._commuting_plan,\n"
            "          constraints._basis_texts, constraints._density_tables,\n"
            "          constraints._uncertainty_profile]\n"
            "print(json.dumps([c.cache_info()._asdict() for c in caches]))\n"
        )
        src = str(Path(boxworld.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        infos = json.loads(out.stdout)
        assert len(infos) == 7
        for info in infos:
            assert info["currsize"] == 0
            assert info["maxsize"] is not None and info["maxsize"] > 0


# The exact stdout of each seeded sampling command.  numpy is imported
# where it is used; every default_rng(seed) must still draw the same stream.
SEEDED_OUTPUTS = [
    (
        (
            "rac", "verify", "--theory", "p-gnst", "--n", "1", "--p", "2",
            "--seed", "7", "--trials", "200", "--format", "json",
        ),
        """\
{
  "failures": 0,
  "n": 1,
  "p": 2.0,
  "records": [
    {
      "empirical_q": 0.76,
      "exact_q": 0.7886751345948129,
      "index": 1,
      "trials": 200
    },
    {
      "empirical_q": 0.8,
      "exact_q": 0.7886751345948129,
      "index": 2,
      "trials": 200
    },
    {
      "empirical_q": 0.83,
      "exact_q": 0.7886751345948129,
      "index": 3,
      "trials": 200
    }
  ],
  "theory": "p-gnst"
}
""",
    ),
    (
        ("comm", "ip", "--x", "1011", "--y", "0110", "--p", "2", "--seed", "3"),
        """\
{
  "decoded": 1,
  "expected": 1,
  "match": true,
  "p": 2.0,
  "x": "1011",
  "y": "0110"
}
""",
    ),
    (
        ("pir", "--db", "0110101", "--index", "3", "--p", "2", "--seed", "5"),
        """\
{
  "carriers_sent": 26,
  "database_bits": 7,
  "expected": 1,
  "index": 3,
  "match": true,
  "p": 2.0,
  "retrieved": 1
}
""",
    ),
    (
        ("rac", "boost", "--n", "1", "--p", "2", "--seed", "2", "--trials", "50"),
        """\
{
  "copies": 7,
  "empirical_failure": 0.020000000000000018,
  "failure_bound": 0.8412400521082296,
  "n": 1,
  "p": 2.0,
  "trials": 50,
  "within_bound": true
}
""",
    ),
]


@pytest.mark.parametrize(
    "args, expected", SEEDED_OUTPUTS, ids=["rac-verify", "comm-ip", "pir", "rac-boost"]
)
def test_seeded_outputs_are_pinned(runner, args, expected):
    result = invoke(runner, *args)
    assert result.exit_code == 0
    assert result.stdout == expected


# The exact stdout of ``boxworld table`` at each exponent.
TABLE_STDOUT = json.loads((Path(__file__).parent / "data" / "table_stdout.json").read_text())


@pytest.mark.parametrize("p", TABLE_STDOUT)
def test_table_output_is_pinned(runner, p):
    result = invoke(runner, "table", "--p", p)
    assert result.exit_code == 0
    assert result.stdout == TABLE_STDOUT[p]
