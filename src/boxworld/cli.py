"""Command-line front door: every module behind one dispatcher.

Commands emit machine-readable JSON (or CSV where tabular), are
deterministic for a fixed seed, and follow one exit convention:
0 success, 1 a check that ran and failed, 2 usage error.  The token
``inf`` is accepted anywhere an exponent is.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import sys
from pathlib import Path
from typing import Mapping

import click

from . import rac as rac_mod, states
from .errors import BoxworldError, DomainError, ResourceError, validate_exponent

__all__ = [
    "main",
    "run_named",
    "run_summary_table",
    "run_psphere",
]

DEFAULT_TRIALS = 100_000
DEFAULT_PSPHERE_P = (1.0, 2.0, 3.0, 10.0, 10000.0)

TABLE_COLUMNS = ("p-bin", "p-gnst/p-box", "p-nonlocal", "quantum", "classical")


def _env_seed() -> int:
    raw = os.environ.get("BOXWORLD_SEED", "").strip()
    if not raw:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"BOXWORLD_SEED must be an integer, got {raw!r}")


class ExponentType(click.ParamType):
    """Real exponent >= 1, with ``inf`` as the infinity token."""

    name = "exponent"

    def convert(self, value, param, ctx):
        if isinstance(value, (int, float)):
            return float(value)
        text = str(value).strip().lower()
        if text in ("inf", "infinity", "oo"):
            return math.inf
        try:
            return float(text)
        except ValueError:
            self.fail(f"{value!r} is not a number or 'inf'", param, ctx)


EXPONENT = ExponentType()


def _p_token(p: float) -> object:
    return "inf" if p == math.inf else p


def _emit_json(payload: object) -> None:
    click.echo(json.dumps(payload, sort_keys=True, indent=2))


def _flatten(payload: object, prefix: str = "") -> list[tuple[str, object]]:
    if isinstance(payload, Mapping):
        rows: list[tuple[str, object]] = []
        for key in sorted(payload):
            path = f"{prefix}.{key}" if prefix else str(key)
            rows.extend(_flatten(payload[key], path))
        return rows
    if isinstance(payload, (list, tuple)):
        rows = []
        for i, item in enumerate(payload):
            rows.extend(_flatten(item, f"{prefix}[{i}]"))
        return rows
    return [(prefix, payload)]


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        _emit_json(payload)
    else:
        _emit_csv(("field", "value"), _flatten(payload))


def _emit_csv(header: tuple[str, ...], rows: list[tuple]) -> None:
    out = io.StringIO()
    out.write(",".join(header) + "\n")
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(f"{cell:.12g}")
            else:
                cells.append(str(cell))
        out.write(",".join(cells) + "\n")
    click.echo(out.getvalue(), nl=False)


def _load_state(path: str):
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise click.UsageError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"{path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise click.UsageError(f"{path} does not hold a JSON object")
    kind = data.get("kind")
    if kind == "coeff":
        return states.CoefficientState.from_json_dict(data)
    if kind in ("gnst", "gnst-table"):
        return states.GnstState.from_json_dict(data)
    raise click.UsageError(f"unrecognized state kind {kind!r} in {path}")


def _parse_bits(text: str) -> list[int]:
    cleaned = text.replace(" ", "").replace(",", "")
    if not cleaned or any(c not in "01" for c in cleaned):
        raise click.UsageError(f"expected a 0/1 string, got {text!r}")
    return [int(c) for c in cleaned]


# ---------------------------------------------------------------------------
# command group
# ---------------------------------------------------------------------------


class _Group(click.Group):
    """Maps library precondition failures onto usage-error exits."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BoxworldError as exc:
            raise click.UsageError(str(exc)) from exc


@click.group(cls=_Group)
def main() -> None:
    """Power-constrained box-world toolkit."""


_p_option = click.option(
    "--p", "p", type=EXPONENT, default="inf", show_default=True, help="power exponent, 'inf' allowed"
)
_seed_option = click.option(
    "--seed",
    type=click.IntRange(min=0),
    default=_env_seed,
    help="RNG seed (default BOXWORLD_SEED or 0)",
)
_tol_option = click.option("--tol", type=float, default=states.DEFAULT_TOL, show_default=True)
_format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True
)


@main.command()
@_p_option
@_tol_option
@_format_option
def chsh(p: float, tol: float, fmt: str) -> None:
    """Optimal CHSH win probability at exponent p, cross-checked."""
    from . import games

    value = games.chsh_win_probability(p)
    state = games.chsh_optimal_state(p)
    correlator = games.chsh_value(state)
    from_state = 0.5 + correlator / 8.0
    consistent = abs(from_state - value) <= tol
    _emit(
        {
            "p": _p_token(p),
            "win_probability": value,
            "chsh_correlator": correlator,
            "win_from_state": from_state,
            "consistent": consistent,
        },
        fmt,
    )
    if not consistent:
        sys.exit(1)


@main.command()
@_p_option
@_seed_option
@_tol_option
@click.option("--s-count", type=int, default=2, show_default=True)
@click.option("--t-count", type=int, default=2, show_default=True)
@click.option(
    "--game",
    "game_kind",
    type=click.Choice(["chsh", "random"]),
    default="chsh",
    show_default=True,
)
@_format_option
def xor(
    p: float, seed: int, tol: float, s_count: int, t_count: int, game_kind: str, fmt: str
) -> None:
    """Build the ladder strategy for an XOR game and score it.

    It wins every question pair with probability 1/2 + q**(-1/p)/2, q
    being the larger question count, and with certainty at p = inf.
    """
    from . import games

    if game_kind == "chsh":
        game = games.chsh_game()
    else:
        game = games.random_xor_game(s_count, t_count, seed)
    state, strategy = games.build_xor_game_state(game, p)
    achieved = games.xor_game_value(game, strategy)
    consistent = abs(achieved - strategy.win_probability) <= tol
    _emit(
        {
            "game": game.to_json_dict(),
            "p": _p_token(p),
            "predicted_win": strategy.win_probability,
            "achieved_win": achieved,
            "consistent": consistent,
            "state_terms": len(state.keys()),
        },
        fmt,
    )
    if not consistent:
        sys.exit(1)


# -- rac ---------------------------------------------------------------------


@main.group()
def rac() -> None:
    """Random access codes: parameters, encoding, decoding, verification."""


@rac.command("params")
@click.option("--theory", type=click.Choice(rac_mod.THEORIES), default="p-gnst", show_default=True)
@click.option("--n", type=int, required=True, help="carrier systems")
@_p_option
@_format_option
def rac_params_cmd(theory: str, n: int, p: float, fmt: str) -> None:
    """Code parameters plus the majority-boost figures."""
    params = rac_mod.rac_params(theory, n, p)
    copies, failure = rac_mod.rac_repetition_params(n, p)
    _emit(
        {
            "theory": params.theory,
            "carriers": params.carriers,
            "encoded_bits": params.encoded_bits,
            "recovery": params.recovery,
            "p": _p_token(params.p),
            "boost_copies": copies,
            "boost_copies_odd": copies % 2 == 1,
            "boost_failure_bound": failure,
        },
        fmt,
    )


@rac.command("encode")
@click.option("--theory", type=click.Choice(rac_mod.THEORIES), default="p-gnst", show_default=True)
@click.option("--n", type=int, required=True)
@_p_option
@click.option("--bits", required=True, help="the bit string to encode, e.g. 0110")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
def rac_encode_cmd(theory: str, n: int, p: float, bits: str, out_path: str | None) -> None:
    """Encode a bit string; JSON state to stdout or --out."""
    rac_mod.rac_params(theory, n, p)  # rejects the gnst code at finite p
    state = rac_mod.rac_encode(theory, _parse_bits(bits), n, p)
    text = json.dumps(state.to_json_dict(), sort_keys=True, indent=2)
    if out_path is None:
        click.echo(text)
    else:
        Path(out_path).write_text(text + "\n")
        click.echo(f"wrote {out_path}")


@rac.command("decode")
@click.option("--file", "path", type=click.Path(exists=False), required=True)
@click.option("--index", "-j", type=int, required=True, help="1-based bit index")
@_format_option
def rac_decode_cmd(path: str, index: int, fmt: str) -> None:
    """Decode one bit from a stored state."""
    state = _load_state(path)
    bit, q = rac_mod.rac_decode(state, index)
    _emit({"index": index, "bit": bit, "success_probability": q}, fmt)


@rac.command("verify")
@click.option("--theory", type=click.Choice(rac_mod.THEORIES), default="p-gnst", show_default=True)
@click.option("--n", type=int, required=True)
@_p_option
@_seed_option
@click.option("--trials", type=click.IntRange(min=1), default=DEFAULT_TRIALS, show_default=True)
@click.option("--bits", default=None, help="bit string to test (default: seeded random)")
@_tol_option
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="csv", show_default=True)
def rac_verify_cmd(
    theory: str, n: int, p: float, seed: int, trials: int, bits: str | None, tol: float, fmt: str
) -> None:
    """Decode every index of one codeword, exactly and by sampling."""
    import numpy as np

    params = rac_mod.rac_params(theory, n, p)
    if bits is None:
        draw = random.Random(seed)
        encoded = [draw.randrange(2) for _ in range(params.encoded_bits)]
    else:
        encoded = _parse_bits(bits)
    state = rac_mod.rac_encode(theory, encoded, n, p)
    rng = np.random.default_rng(seed)
    rows: list[tuple] = []
    failures = 0
    for j in range(1, params.encoded_bits + 1):
        bit, exact_q = rac_mod.rac_decode(state, j)
        empirical = int(rng.binomial(trials, exact_q)) / trials
        rows.append((j, exact_q, empirical, trials))
        if bit != encoded[j - 1] or abs(exact_q - params.recovery) > tol:
            failures += 1
    if fmt == "csv":
        _emit_csv(("index", "exact_q", "empirical_q", "trials"), rows)
    else:
        _emit_json(
            {
                "theory": theory,
                "n": n,
                "p": _p_token(p),
                "failures": failures,
                "records": [
                    {"index": r[0], "exact_q": r[1], "empirical_q": r[2], "trials": r[3]}
                    for r in rows
                ],
            }
        )
    if failures:
        sys.exit(1)


@rac.command("boost")
@click.option("--n", type=int, required=True)
@_p_option
@_seed_option
@click.option("--trials", type=int, default=DEFAULT_TRIALS, show_default=True)
@click.option("--index", "-j", type=int, default=1, show_default=True)
@_format_option
def rac_boost_cmd(n: int, p: float, seed: int, trials: int, index: int, fmt: str) -> None:
    """Monte Carlo failure rate of the majority-boosted code."""
    copies, bound = rac_mod.rac_repetition_params(n, p)
    encoded_bits = rac_mod.rac_params("p-gnst", n, p).encoded_bits
    if n > rac_mod.MAX_BOOST_SYSTEMS:
        raise ResourceError(f"boosted decoding is limited to n <= {rac_mod.MAX_BOOST_SYSTEMS}")
    draw = random.Random(seed)
    bits = [draw.randrange(2) for _ in range(encoded_bits)]
    success = rac_mod.rac_repetition_decode(bits, n, p, index, trials=trials, seed=seed)
    failure = 1.0 - success
    _emit(
        {
            "n": n,
            "p": _p_token(p),
            "copies": copies,
            "failure_bound": bound,
            "empirical_failure": failure,
            "trials": trials,
            "within_bound": failure <= bound,
        },
        fmt,
    )


# -- communication tasks -----------------------------------------------------


@main.group()
def comm() -> None:
    """One-way communication of the inner-product function."""


@comm.command("cost")
@click.option("--n", type=int, required=True, help="input bits per player")
@_p_option
@click.option("--theory", default="p-gnst", show_default=True)
@_format_option
def comm_cost_cmd(n: int, p: float, theory: str, fmt: str) -> None:
    from . import infotasks

    result = infotasks.ip_oneway_cost(n, p, theory)
    _emit(result.to_json_dict(), fmt)


@comm.command("ip")
@click.option("--x", "x_bits", required=True)
@click.option("--y", "y_bits", required=True)
@_p_option
@_seed_option
@_format_option
def comm_ip_cmd(x_bits: str, y_bits: str, p: float, seed: int, fmt: str) -> None:
    """Run the protocol on concrete inputs and check the answer."""
    from . import infotasks

    x = _parse_bits(x_bits)
    y = _parse_bits(y_bits)
    decoded = infotasks.simulate_ip_protocol(x, y, p, seed)
    expected = infotasks.inner_product(x, y)
    _emit(
        {
            "x": "".join(map(str, x)),
            "y": "".join(map(str, y)),
            "p": _p_token(p),
            "decoded": decoded,
            "expected": expected,
            "match": decoded == expected,
        },
        fmt,
    )
    if p == math.inf and decoded != expected:
        sys.exit(1)


@main.command()
@click.option("--db", "db_bits", required=True, help="database bit string")
@click.option("--index", "-i", type=int, required=True, help="1-based entry to fetch")
@_p_option
@_seed_option
@_format_option
def pir(db_bits: str, index: int, p: float, seed: int, fmt: str) -> None:
    """Private retrieval: server ships one encoded database."""
    from . import infotasks

    db = _parse_bits(db_bits)
    bit, cost = infotasks.pir_simulate(db, index, p, seed)
    expected = db[index - 1]
    _emit(
        {
            "database_bits": len(db),
            "index": index,
            "p": _p_token(p),
            "retrieved": bit,
            "expected": expected,
            "match": bit == expected,
            "carriers_sent": cost,
        },
        fmt,
    )
    if p == math.inf and bit != expected:
        sys.exit(1)


@main.command()
@click.option("--budget", type=float, required=True, help="total bit budget")
@_p_option
@click.option("--gamma", type=float, required=True)
@click.option("--epsilon", type=float, required=True)
@click.option("--delta", type=float, required=True)
@click.option("--eta", type=float, default=None)
@_format_option
def learn(
    budget: float, p: float, gamma: float, epsilon: float, delta: float, eta: float | None, fmt: str
) -> None:
    """Sample-complexity lower bound for learning encoded states."""
    from . import infotasks

    report = infotasks.learnability_threshold(budget, p, gamma, epsilon, delta, eta)
    _emit(report.to_json_dict(), fmt)


@main.command()
@click.option("--file", "path", required=True, help="state JSON file")
@_p_option
@_tol_option
@_format_option
def validate(path: str, p: float, tol: float, fmt: str) -> None:
    """Classify a stored state in the validity hierarchy."""
    from . import constraints

    state = _load_state(path)
    result = constraints.classify_state(state, p, tol=tol)
    for report in result.reports:
        status = "pass" if report.passed else "FAIL"
        click.echo(f"{report.constraint}: {status} (margin {report.margin:.6g})", err=True)
    if result.stopped:
        click.echo("{}: not run ({})".format(*result.stopped), err=True)
    _emit(result.to_json_dict(), fmt)
    if result.level == "invalid":
        sys.exit(1)


@main.group()
def oracle() -> None:
    """Brute-force ground-truth checks."""


@oracle.command("verify")
@click.option("--claim", required=True, help="claim identifier")
@_seed_option
@click.option("--cases", type=click.IntRange(min=1), default=50, show_default=True)
@_format_option
def oracle_verify_cmd(claim: str, seed: int, cases: int, fmt: str) -> None:
    from . import oracle as oracle_mod

    report = oracle_mod.exhaustive_verify(claim, seed=seed, cases=cases)
    _emit(report, fmt)
    if not report.get("passed", False):
        sys.exit(1)


# -- table and figure data ---------------------------------------------------


def _cell(value: object, status: str) -> dict:
    return {"value": value, "status": status}


def run_summary_table(p: float = 2.0) -> dict:
    """Per-theory property table; computable cells are computed live."""
    from . import constraints, games

    p = validate_exponent(p)
    win = games.chsh_win_probability(p)
    quantum_win = 0.5 + games.tsirelson_optimize().value / 8.0
    # One representative spot check backs all three p-theory cells.
    report = constraints.check_p_uncertainty(games.chsh_optimal_state(p), p)
    uncertainty_cells = [_cell("yes" if report.passed else "no", "computed")] * 3
    rows = [
        {
            "name": "non-signaling",
            "cells": [_cell("yes", "claimed")] * 5,
        },
        {
            "name": "power-uncertainty",
            "cells": uncertainty_cells
            + [_cell("p=2", "claimed"), _cell("n/a", "claimed")],
        },
        {
            "name": "simultaneous-measurements",
            "cells": [
                _cell("no", "claimed"),
                _cell("local", "claimed"),
                _cell("commuting", "claimed"),
                _cell("commuting", "claimed"),
                _cell("all", "claimed"),
            ],
        },
        {
            "name": "chsh-win",
            "cells": [
                _cell(win, "computed"),
                _cell(win, "computed"),
                _cell(win, "computed"),
                _cell(quantum_win, "computed"),
                _cell(0.75, "claimed"),
            ],
        },
        {
            "name": "rac-bits-to-encode-N",
            "cells": [
                _cell("O(polylog(N))", "claimed"),
                _cell("O(polylog(N))", "claimed"),
                _cell("?", "claimed"),
                _cell("Omega(N)", "claimed"),
                _cell("Omega(N)", "claimed"),
            ],
        },
        {
            "name": "pir-from-N-bits",
            "cells": [
                _cell("O(polylog(N))", "claimed"),
                _cell("O(polylog(N))", "claimed"),
                _cell("?", "claimed"),
                _cell("Omega(N)", "claimed"),
                _cell("Omega(N)", "claimed"),
            ],
        },
        {
            "name": "state-learning",
            "cells": [
                _cell("hard", "claimed"),
                _cell("hard", "claimed"),
                _cell("?", "claimed"),
                _cell("easy", "claimed"),
                _cell("easy", "claimed"),
            ],
        },
    ]
    return {"p": _p_token(p), "columns": list(TABLE_COLUMNS), "rows": rows}


@main.command()
@click.option("--p", "p", type=EXPONENT, default=2.0, show_default=True)
@_format_option
def table(p: float, fmt: str) -> None:
    """Summary table of theory properties at exponent p."""
    payload = run_summary_table(p)
    if fmt == "json":
        _emit_json(payload)
        return
    rows = []
    for row in payload["rows"]:
        for column, cell in zip(payload["columns"], row["cells"]):
            rows.append((row["name"], column, cell["value"], cell["status"]))
    _emit_csv(("row", "theory", "value", "status"), rows)


def run_psphere(p_list=DEFAULT_PSPHERE_P, samples: int = 128) -> list[tuple[float, float, float]]:
    """Unit-sphere points for each exponent, angle-parameterized.

    Each point satisfies |x|**p + |y|**p = 1 exactly by construction:
    x = sgn(cos t)|cos t|**(2/p), y likewise with sin.
    """
    if samples < 4:
        raise DomainError("need at least 4 samples per curve")
    points: list[tuple[float, float, float]] = []
    for p in p_list:
        p = validate_exponent(p)
        if p == math.inf:
            raise DomainError("use a large finite p for sphere plots")
        for k in range(samples):
            theta = 2.0 * math.pi * k / samples
            c, s = math.cos(theta), math.sin(theta)
            x = math.copysign(abs(c) ** (2.0 / p), c)
            y = math.copysign(abs(s) ** (2.0 / p), s)
            points.append((p, x, y))
    return points


@main.command()
@click.option(
    "--p-list",
    default="1,2,3,10,10000",
    show_default=True,
    help="comma-separated exponents",
)
@click.option("--samples", type=int, default=128, show_default=True)
def psphere(p_list: str, samples: int) -> None:
    """CSV sphere-boundary points for plotting, one curve per p."""
    values = tuple(EXPONENT.convert(tok, None, None) for tok in p_list.split(","))
    points = run_psphere(values, samples)
    _emit_csv(("p", "x", "y"), points)


# -- programmatic dispatch ---------------------------------------------------


def run_named(config: Mapping) -> int:
    """Dispatch a config dict through the CLI; returns the exit code."""
    mapping = dict(config)
    command = str(mapping.pop("command", "") or "")
    if not command:
        click.echo("usage error: no command given", err=True)
        click.echo("commands: " + ", ".join(sorted(main.commands)), err=True)
        return 2
    argv = command.split()
    for key in sorted(mapping):
        value = mapping[key]
        if value is None:
            continue
        flag = "--" + str(key).replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        elif isinstance(value, float) and value == math.inf:
            argv.extend([flag, "inf"])
        else:
            argv.extend([flag, str(value)])
    try:
        main.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        click.echo("commands: " + ", ".join(sorted(main.commands)), err=True)
        return 2
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    except BoxworldError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    main()
