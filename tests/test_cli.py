import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import boxworld
from boxworld import rac as rac_mod
from boxworld.cli import ExperimentConfig, main, run_named, run_psphere, run_summary_table
from boxworld.errors import DomainError
from boxworld.games import chsh_win_probability
from boxworld.rac import rac_encode_pbin
from boxworld.states import CoefficientState


@pytest.fixture
def runner():
    return CliRunner()


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


class TestOracleCommand:
    def test_verify_chsh(self, runner):
        result = invoke(runner, "oracle", "verify", "--claim", "chsh", "--cases", "10")
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["passed"] is True

    def test_unknown_claim(self, runner):
        assert invoke(runner, "oracle", "verify", "--claim", "nope").exit_code == 2


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
        config = ExperimentConfig(command="oracle verify", claim="chsh", extra={"cases": 10})
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
            "caches = [pauli.maximal_commuting_sets,\n"
            "          constraints._local_plan, constraints._commuting_plan,\n"
            "          constraints._canonical_families]\n"
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
        assert len(infos) == 4
        for info in infos:
            assert info["currsize"] == 0
            assert info["maxsize"] is not None and info["maxsize"] > 0
