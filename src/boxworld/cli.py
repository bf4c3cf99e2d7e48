"""Command-line front door: every module behind one dispatcher.

Commands emit machine-readable JSON (or CSV where tabular), are
deterministic for a fixed seed, and follow one exit convention:
0 success, 1 a check that ran and failed, 2 usage error.  The token
``inf`` is accepted anywhere an exponent is.

The parser is the standard library's ``argparse``: ``boxworld -h``
lists the commands and ``boxworld <command> -h`` a command's flags.
Every usage error (a bad or missing value, an unknown option or
command, or a library precondition a command's input fails) prints the
usage line and ``Error: <message>`` on stderr and exits 2, through
``_Parser.error``.  Each command imports the modules it runs inside its
function, so a command loads only what it needs: ``chsh``, ``xor`` and
``table`` never load ``rac``, and theory names are checked only by
``rac.rac_params``.  ``main(argv)`` returns the exit code; the console
script, ``python -m boxworld.cli`` and ``run_named`` all call it.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import sys
from pathlib import Path
from typing import Mapping

from . import states
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


def _exponent(text: str) -> float:
    """Real exponent, with ``inf`` as the infinity token; the library
    checks p >= 1."""
    token = text.strip().lower()
    if token in ("inf", "infinity", "oo"):
        return math.inf
    try:
        return float(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number or 'inf'") from None


def _exponents(text: str) -> tuple[float, ...]:
    return tuple(_exponent(token) for token in text.split(","))


def _at_least(minimum: int):
    """An integer type that refuses values below ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={minimum}")
        return value

    return parse


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite, non-negative number")
    return value


def _new_file(text: str) -> str:
    if Path(text).is_dir():
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    return text


def _p_token(p: float) -> object:
    return "inf" if p == math.inf else p


def _emit_json(payload: object) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


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
    sys.stdout.write(out.getvalue())


def _load_state(path: str, tol: float = states.DEFAULT_TOL):
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise DomainError(f"{path} does not hold a JSON object")
    kind = data.get("kind")
    if kind == "coeff":
        return states.CoefficientState.from_json_dict(data, tol=tol)
    if kind in ("gnst", "gnst-table"):
        return states.GnstState.from_json_dict(data, tol=tol)
    raise DomainError(f"unrecognized state kind {kind!r} in {path}")


def _parse_bits(text: str) -> list[int]:
    cleaned = text.replace(" ", "").replace(",", "")
    if not cleaned or any(c not in "01" for c in cleaned):
        raise DomainError(f"expected a 0/1 string, got {text!r}")
    return [int(c) for c in cleaned]


# ---------------------------------------------------------------------------
# commands: each takes the parsed arguments and returns its exit code
# ---------------------------------------------------------------------------


def _chsh(a) -> int:
    """Optimal CHSH win probability at exponent p, cross-checked."""
    from . import games

    value = games.chsh_win_probability(a.p)
    state = games.chsh_optimal_state(a.p)
    correlator = games.chsh_value(state)
    from_state = 0.5 + correlator / 8.0
    consistent = abs(from_state - value) <= a.tol
    _emit(
        {
            "p": _p_token(a.p),
            "win_probability": value,
            "chsh_correlator": correlator,
            "win_from_state": from_state,
            "consistent": consistent,
        },
        a.fmt,
    )
    return 0 if consistent else 1


def _xor(a) -> int:
    """Build the ladder strategy for an XOR game and score it.

    It wins every question pair with probability 1/2 + q**(-1/p)/2, q
    being the larger question count, and with certainty at p = inf.
    """
    from . import games

    if a.game == "chsh":
        game = games.chsh_game()
    else:
        game = games.random_xor_game(a.s_count, a.t_count, a.seed)
    state, strategy = games.build_xor_game_state(game, a.p)
    achieved = games.xor_game_value(game, strategy)
    consistent = abs(achieved - strategy.win_probability) <= a.tol
    _emit(
        {
            "game": game.to_json_dict(),
            "p": _p_token(a.p),
            "predicted_win": strategy.win_probability,
            "achieved_win": achieved,
            "consistent": consistent,
            "state_terms": len(state.keys()),
        },
        a.fmt,
    )
    return 0 if consistent else 1


def _rac_params(a) -> int:
    """Code parameters plus the majority-boost figures."""
    from . import rac

    params = rac.rac_params(a.theory, a.n, a.p)
    copies, failure = rac.rac_repetition_params(a.n, a.p)
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
        a.fmt,
    )
    return 0


def _rac_encode(a) -> int:
    """Encode a bit string; JSON state to stdout or --out."""
    from . import rac

    rac.rac_params(a.theory, a.n, a.p)  # rejects an unknown theory, and gnst at finite p
    state = rac.rac_encode(a.theory, _parse_bits(a.bits), a.n, a.p)
    text = json.dumps(state.to_json_dict(), sort_keys=True, indent=2)
    if a.out is None:
        print(text)
    else:
        Path(a.out).write_text(text + "\n")
        print(f"wrote {a.out}")
    return 0


def _rac_decode(a) -> int:
    """Decode one bit from a stored state."""
    from . import rac

    bit, q = rac.rac_decode(_load_state(a.file), a.index)
    _emit({"index": a.index, "bit": bit, "success_probability": q}, a.fmt)
    return 0


def _rac_verify(a) -> int:
    """Decode every index of one codeword, exactly and by sampling."""
    import numpy as np

    from . import rac

    params = rac.rac_params(a.theory, a.n, a.p)
    if a.bits is None:
        draw = random.Random(a.seed)
        encoded = [draw.randrange(2) for _ in range(params.encoded_bits)]
    else:
        encoded = _parse_bits(a.bits)
    state = rac.rac_encode(a.theory, encoded, a.n, a.p)
    rng = np.random.default_rng(a.seed)
    rows: list[tuple] = []
    failures = 0
    for j in range(1, params.encoded_bits + 1):
        bit, exact_q = rac.rac_decode(state, j)
        empirical = int(rng.binomial(a.trials, exact_q)) / a.trials
        rows.append((j, exact_q, empirical, a.trials))
        if bit != encoded[j - 1] or abs(exact_q - params.recovery) > a.tol:
            failures += 1
    if a.fmt == "csv":
        _emit_csv(("index", "exact_q", "empirical_q", "trials"), rows)
    else:
        _emit_json(
            {
                "theory": a.theory,
                "n": a.n,
                "p": _p_token(a.p),
                "failures": failures,
                "records": [
                    {"index": r[0], "exact_q": r[1], "empirical_q": r[2], "trials": r[3]}
                    for r in rows
                ],
            }
        )
    return 1 if failures else 0


def _rac_boost(a) -> int:
    """Monte Carlo failure rate of the majority-boosted code."""
    from . import rac

    copies, bound = rac.rac_repetition_params(a.n, a.p)
    encoded_bits = rac.rac_params("p-gnst", a.n, a.p).encoded_bits
    if a.n > rac.MAX_BOOST_SYSTEMS:
        raise ResourceError(f"boosted decoding is limited to n <= {rac.MAX_BOOST_SYSTEMS}")
    draw = random.Random(a.seed)
    bits = [draw.randrange(2) for _ in range(encoded_bits)]
    success = rac.rac_repetition_decode(bits, a.n, a.p, a.index, trials=a.trials, seed=a.seed)
    failure = 1.0 - success
    _emit(
        {
            "n": a.n,
            "p": _p_token(a.p),
            "copies": copies,
            "failure_bound": bound,
            "empirical_failure": failure,
            "trials": a.trials,
            "within_bound": failure <= bound,
        },
        a.fmt,
    )
    return 0


def _comm_cost(a) -> int:
    """Carriers for one-way inner-product communication."""
    from . import infotasks

    _emit(infotasks.ip_oneway_cost(a.n, a.p, a.theory).to_json_dict(), a.fmt)
    return 0


def _comm_ip(a) -> int:
    """Run the protocol on concrete inputs and check the answer."""
    from . import infotasks

    x = _parse_bits(a.x)
    y = _parse_bits(a.y)
    decoded = infotasks.simulate_ip_protocol(x, y, a.p, a.seed)
    expected = infotasks.inner_product(x, y)
    _emit(
        {
            "x": "".join(map(str, x)),
            "y": "".join(map(str, y)),
            "p": _p_token(a.p),
            "decoded": decoded,
            "expected": expected,
            "match": decoded == expected,
        },
        a.fmt,
    )
    return 1 if a.p == math.inf and decoded != expected else 0


def _pir(a) -> int:
    """Private retrieval: server ships one encoded database."""
    from . import infotasks

    db = _parse_bits(a.db)
    bit, cost = infotasks.pir_simulate(db, a.index, a.p, a.seed)
    expected = db[a.index - 1]
    _emit(
        {
            "database_bits": len(db),
            "index": a.index,
            "p": _p_token(a.p),
            "retrieved": bit,
            "expected": expected,
            "match": bit == expected,
            "carriers_sent": cost,
        },
        a.fmt,
    )
    return 1 if a.p == math.inf and bit != expected else 0


def _learn(a) -> int:
    """Sample-complexity lower bound for learning encoded states."""
    from . import infotasks

    report = infotasks.learnability_threshold(a.budget, a.p, a.gamma, a.epsilon, a.delta, a.eta)
    _emit(report.to_json_dict(), a.fmt)
    return 0


def _validate(a) -> int:
    """Classify a stored state in the validity hierarchy."""
    from . import constraints

    state = _load_state(a.file, a.tol)
    result = constraints.classify_state(state, a.p, tol=a.tol)
    for report in result.reports:
        status = "pass" if report.passed else "FAIL"
        print(f"{report.constraint}: {status} (margin {report.margin:.6g})", file=sys.stderr)
    if result.stopped:
        print("{}: not run ({})".format(*result.stopped), file=sys.stderr)
    _emit(result.to_json_dict(), a.fmt)
    return 1 if result.level == "invalid" else 0


def _oracle_verify(a) -> int:
    """Check a named claim by brute force."""
    from . import oracle

    report = oracle.exhaustive_verify(a.claim, seed=a.seed, cases=a.cases)
    _emit(report, a.fmt)
    return 0 if report.get("passed", False) else 1


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
    claimed = {
        "non-signaling": ["yes"] * 5,
        "simultaneous-measurements": ["no", "local", "commuting", "commuting", "all"],
        "rac-bits-to-encode-N": ["O(polylog(N))"] * 2 + ["?"] + ["Omega(N)"] * 2,
        "pir-from-N-bits": ["O(polylog(N))"] * 2 + ["?"] + ["Omega(N)"] * 2,
        "state-learning": ["hard"] * 2 + ["?"] + ["easy"] * 2,
    }
    cells = {name: [_cell(value, "claimed") for value in values] for name, values in claimed.items()}
    cells["power-uncertainty"] = uncertainty_cells + [_cell("p=2", "claimed"), _cell("n/a", "claimed")]
    cells["chsh-win"] = [_cell(win, "computed")] * 3 + [_cell(quantum_win, "computed"), _cell(0.75, "claimed")]
    order = ("non-signaling", "power-uncertainty", "simultaneous-measurements", "chsh-win",
             "rac-bits-to-encode-N", "pir-from-N-bits", "state-learning")
    rows = [{"name": name, "cells": cells[name]} for name in order]
    return {"p": _p_token(p), "columns": list(TABLE_COLUMNS), "rows": rows}


def _table(a) -> int:
    """Summary table of theory properties at exponent p."""
    payload = run_summary_table(a.p)
    if a.fmt == "json":
        _emit_json(payload)
        return 0
    rows = []
    for row in payload["rows"]:
        for column, cell in zip(payload["columns"], row["cells"]):
            rows.append((row["name"], column, cell["value"], cell["status"]))
    _emit_csv(("row", "theory", "value", "status"), rows)
    return 0


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


def _psphere(a) -> int:
    """CSV sphere-boundary points for plotting, one curve per p."""
    _emit_csv(("p", "x", "y"), run_psphere(a.p_list, a.samples))
    return 0


# ---------------------------------------------------------------------------
# the parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports every usage error on stderr, with the commands of a
    group, and exits 2."""

    commands: tuple[str, ...] = ()

    def error(self, message: str):
        self.print_usage(sys.stderr)
        if self.commands:
            print("commands: " + ", ".join(self.commands), file=sys.stderr)
        self.exit(2, f"Error: {message}\n")


def _opt(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    """One option's ``add_argument`` arguments; its help shows the default."""
    if kwargs.get("default") is not None:
        kwargs["help"] += " (default: %(default)s)"
    return flags, kwargs


def _group(parser: _Parser, title: str, commands: dict, argv: list[str]) -> None:
    """Subcommands of ``parser``: name -> (run, *options), or name ->
    (help, nested commands) for a group.

    A command is chosen by its exact name, so when ``argv`` holds some
    of the names only those are built: each parser costs about 0.1 ms,
    mostly gettext looking for translations, and all of them 2.5 ms.
    Otherwise (help, or a missing or unknown command) all are built.
    """
    sub = parser.add_subparsers(dest=title, metavar=title, required=True)
    parser.commands = tuple(commands)
    for name in [name for name in commands if name in argv] or commands:
        run, *options = commands[name]
        doc = run if isinstance(run, str) else run.__doc__
        child = sub.add_parser(name, help=doc.splitlines()[0], description=doc, allow_abbrev=False)
        if isinstance(run, str):
            _group(child, "subcommand", options[0], argv)
            continue
        for flags, kwargs in options:
            child.add_argument(*flags, **kwargs)
        child.set_defaults(run=run, parser=child)


def _parser(argv: list[str]) -> _Parser:
    """The command tree for ``argv``, built per call so that --seed
    reads BOXWORLD_SEED at parse time."""
    seed_text = os.environ.get("BOXWORLD_SEED", "").strip() or "0"
    p = _opt("--p", type=_exponent, default="inf", help="power exponent, 'inf' allowed")
    seed = _opt("--seed", type=_at_least(0), default=seed_text, help="RNG seed, BOXWORLD_SEED if unset")
    tol = _opt("--tol", type=_tolerance, default=states.DEFAULT_TOL, help="tolerance")
    fmt = _opt("--format", dest="fmt", choices=("json", "csv"), default="json", help="output format")
    theory = _opt("--theory", default="p-gnst", help="gnst, p-gnst, p-bin or p-box")
    n = _opt("--n", type=int, required=True, help="carrier systems")
    rac = {
        "params": (_rac_params, theory, n, p, fmt),
        "encode": (
            _rac_encode, theory, n, p,
            _opt("--bits", required=True, help="the bit string to encode, e.g. 0110"),
            _opt("--out", type=_new_file, help="file to write the state to (default stdout)"),
        ),
        "decode": (
            _rac_decode,
            _opt("--file", required=True, help="state JSON file"),
            _opt("--index", "-j", type=int, required=True, help="1-based bit index"),
            fmt,
        ),
        "verify": (
            _rac_verify, theory, n, p, seed,
            _opt("--trials", type=_at_least(1), default=DEFAULT_TRIALS, help="samples per index"),
            _opt("--bits", help="bit string to test (default: seeded random)"),
            tol,
            _opt("--format", dest="fmt", choices=("json", "csv"), default="csv", help="output format"),
        ),
        "boost": (
            _rac_boost, n, p, seed,
            _opt("--trials", type=int, default=DEFAULT_TRIALS, help="samples"),
            _opt("--index", "-j", type=int, default=1, help="1-based bit index"),
            fmt,
        ),
    }
    comm = {
        "cost": (_comm_cost, _opt("--n", type=int, required=True, help="input bits per player"), p, theory, fmt),
        "ip": (
            _comm_ip,
            _opt("--x", required=True, help="first player's bits"),
            _opt("--y", required=True, help="second player's bits"),
            p, seed, fmt,
        ),
    }
    commands = {
        "chsh": (_chsh, p, tol, fmt),
        "xor": (
            _xor, p, seed, tol,
            _opt("--s-count", type=int, default=2, help="first party's questions"),
            _opt("--t-count", type=int, default=2, help="second party's questions"),
            _opt("--game", choices=("chsh", "random"), default="chsh", help="the game to play"),
            fmt,
        ),
        "rac": ("Random access codes: parameters, encoding, decoding, verification.", rac),
        "comm": ("One-way communication of the inner-product function.", comm),
        "pir": (
            _pir,
            _opt("--db", required=True, help="database bit string"),
            _opt("--index", "-i", type=int, required=True, help="1-based entry to fetch"),
            p, seed, fmt,
        ),
        "learn": (
            _learn,
            _opt("--budget", type=float, required=True, help="total bit budget"),
            p,
            _opt("--gamma", type=float, required=True, help="fat-shattering margin"),
            _opt("--epsilon", type=float, required=True, help="accuracy"),
            _opt("--delta", type=float, required=True, help="failure probability"),
            _opt("--eta", type=float, help="accuracy margin, compared with gamma (optional)"),
            fmt,
        ),
        "validate": (_validate, _opt("--file", required=True, help="state JSON file"), p, tol, fmt),
        "oracle": ("Brute-force ground-truth checks.", {
            "verify": (
                _oracle_verify,
                _opt("--claim", required=True, help="claim identifier"),
                seed,
                _opt("--cases", type=_at_least(1), default=50, help="cases to draw"),
                fmt,
            ),
        }),
        "table": (_table, _opt("--p", type=_exponent, default=2.0, help="power exponent, 'inf' allowed"), fmt),
        "psphere": (
            _psphere,
            _opt("--p-list", type=_exponents, default=DEFAULT_PSPHERE_P, help="comma-separated exponents"),
            _opt("--samples", type=int, default=128, help="points per curve"),
        ),
    }
    root = _Parser(prog="boxworld", description="Power-constrained box-world toolkit.", allow_abbrev=False)
    _group(root, "command", commands, argv)
    return root


# -- entry points ------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    """Run one command line (default ``sys.argv[1:]``); returns the exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser(argv).parse_args(argv)
        try:
            return args.run(args)
        except BoxworldError as exc:
            args.parser.error(str(exc))
    except SystemExit as exc:  # -h exits 0, a usage error 2
        return exc.code if isinstance(exc.code, int) else 1


def run_named(config: Mapping) -> int:
    """Dispatch a config dict through the CLI; returns the exit code."""
    mapping = dict(config)
    argv = str(mapping.pop("command", "") or "").split()
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
    return main(argv)


if __name__ == "__main__":
    sys.exit(main())
