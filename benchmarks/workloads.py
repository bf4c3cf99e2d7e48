"""Inputs, operations and expectations for the three benchmark workloads.

Each workload builds its inputs one round at a time from
``numpy.random.default_rng([seed, 1, round])``; the warm-up inputs come
from ``[seed, 0]``.  A round is a fixed mix: the seed chooses values,
never the composition, so every seed costs about the same.  Every
operation carries a check whose expectation is computed here, before
the operation runs, without calling the function being timed.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from boxworld import constraints, games, infotasks, oracle, rac, states

P_GRID = (1.5, 2.0, 3.0, math.inf)
# Quantum states satisfy the power-sum relation only from p = 2 up.
QUANTUM_P = (2.0, 3.0, math.inf)
TOL = 1e-9
EXACT = 1e-12


@dataclass
class Op:
    """One closed-loop operation.

    ``kind`` groups latencies and picks warm-up operations.  ``check``
    returns None when the output meets its expectation, else the reason
    it does not.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Round:
    ops: list[Op]
    description: list  # JSON-able record of the inputs, for the digest


def digest(rounds: list[Round]) -> str:
    text = json.dumps([r.description for r in rounds], sort_keys=True, default=repr)
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:16]


def round_rng(seed: int, index: int | None) -> np.random.Generator:
    """The warm-up stream for ``index=None``, else the stream of one round."""
    return np.random.default_rng([seed, 0] if index is None else [seed, 1, index])


def _bits(rng: np.random.Generator, count: int) -> list[int]:
    return [int(b) for b in rng.integers(0, 2, size=count)]


def recovery(n: int, p: float) -> float:
    """A table code's recovery probability: 1/2 + (2n+1)**(-1/p)/2."""
    return 1.0 if p == math.inf else 0.5 + 0.5 * (2 * n + 1) ** (-1.0 / p)


def _dense_min(state) -> float:
    """Smallest eigenvalue by LAPACK, independent of the ladder's Jacobi solver."""
    return float(np.linalg.eigvalsh(oracle.dense(state))[0])


# ---------------------------------------------------------------------------
# ladder: constraints.classify_state over every family of the mix
# ---------------------------------------------------------------------------

TOP_LEVELS = ("p-nonlocal", "quantum-consistent")

# Groups of states per round, by n.  The n = 3 groups and the two n = 4
# states each take about half of a round's time.  The cheap n = 2 groups
# set where the median operation falls: with eight of them it sits near
# the middle of the n = 2 p-gnst tables, whose path through the ladder is
# fixed, rather than on the step between the n = 2 and the n = 3 states,
# where it would jump between them from run to run.
LADDER_GROUPS = {2: 8, 3: 3}
# One exponent per n = 4 family, so each has one cost.  A quantum state
# at finite p has too many strings for the exhaustive uncertainty rung
# and gets the canonical search; the 81-string p-gnst table is certified.
N4_QUANTUM_P = 2.0
N4_TABLE_P = 1.5


def _fixed_level(level: str, margin: float | None = None):
    """Check for a family whose level is fixed: confirmed on several
    seeds before fixing it.  ``margin`` is the expected density margin."""

    def check(result):
        if result.level != level:
            return f"level {result.level}, expected {level}"
        if margin is not None and abs(result.reports[-1].margin - margin) > TOL:
            return f"density margin {result.reports[-1].margin}, expected {margin}"
        return None

    return check


def _open_level(dense_min: float | None, invalid: bool | None, local_min: float):
    """Check for a family whose level depends on the state.

    ``invalid`` is True when the state must fail the uncertainty rung,
    False when it must pass it, and None when the benchmark cannot tell
    independently.  A state that passes it sits at ``p-bin`` exactly
    when ``local_min``, from :func:`local_minimum`, is negative.
    ``dense_min`` is the completion's smallest eigenvalue (None if the
    completion is not a valid coefficient state): a state that reaches
    the density rung must report it as its margin.
    """

    def check(result):
        level = result.level
        if invalid is True:
            return None if level == "invalid" else f"level {level}, expected invalid"
        if level == "invalid":
            return None if invalid is None else "level invalid, expected the uncertainty rung to pass"
        if (level == "p-bin") != (local_min < -TOL):
            return f"level {level} with local moment minimum {local_min}"
        if level in TOP_LEVELS:
            if dense_min is None:
                return f"level {level} without a valid completion"
            margin = result.reports[-1].margin
            if abs(margin - dense_min) > TOL:
                return f"density margin {margin}, expected {dense_min}"
            if (level == "quantum-consistent") != (margin >= -TOL):
                return f"level {level} disagrees with margin {margin}"
        return None

    return check


_LETTER_BITS = {"X": (1, 0), "Z": (0, 1), "Y": (1, 1)}


def _partitions(items: list[int]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1 :]
        yield [[first]] + partition


def local_minimum(n: int, coefficient: Callable[[int, int], float]) -> float:
    """Smallest eigenvalue over the moment matrices of every maximal
    disjoint-support collection, read straight from the coefficients.

    Members on disjoint supports multiply to the string carrying all
    their letters, with sign +1, so a subset's moment is one
    coefficient; the matrix of a collection is mu[i xor j].
    """
    worst = math.inf
    for parts in _partitions(list(range(n))):
        for words in itertools.product(*(itertools.product("XYZ", repeat=len(part)) for part in parts)):
            members = []
            for part, word in zip(parts, words):
                a = b = 0
                for system, letter in zip(part, word):
                    a |= _LETTER_BITS[letter][0] << system
                    b |= _LETTER_BITS[letter][1] << system
                members.append((a, b))
            mu = np.ones(1 << len(members))
            for mask in range(1, len(mu)):
                chosen = [m for i, m in enumerate(members) if mask >> i & 1]
                mu[mask] = coefficient(sum(a for a, _ in chosen), sum(b for _, b in chosen))
            idx = np.arange(len(mu))
            worst = min(worst, float(np.linalg.eigvalsh(mu[idx[:, None] ^ idx[None, :]])[0]))
    return worst


def _classify(state, p: float) -> Callable[[], object]:
    return lambda: constraints.classify_state(state, p)


def _ladder_group(rng: np.random.Generator, n: int, ops: list[Op], desc: list) -> None:
    quantum = [oracle.random_quantum_state(n, rng) for _ in P_GRID]
    for state, p in zip(quantum, P_GRID):
        if p in QUANTUM_P:
            ops.append(Op(f"quantum-n{n}", _classify(state, p), _fixed_level("quantum-consistent", _dense_min(state))))
            desc.append(["quantum", p, state.to_json_dict()])
        # The same state scaled x1.6, as a moment table: coefficients may
        # exceed 1, which a coefficient state refuses.
        values = {k: 1.6 * state.coefficient(*k) for k in state.keys()}
        table = states.MomentTable(n, values, strict=False)
        too_large = max(abs(v) for v in values.values()) > 1.0 + TOL
        # A string with |m| > 1 violates the relation alone, at every p.
        invalid = True if too_large else (False if p == math.inf else None)
        dense_min = None if too_large else _dense_min(states.CoefficientState(n, values))
        local = local_minimum(n, lambda a, b: values.get((a, b), 0.0))
        ops.append(Op(f"scaled-n{n}", _classify(table, p), _open_level(dense_min, invalid, local)))
        desc.append(["scaled", p, sorted(values.items())])
    for p in P_GRID:
        # Unrestricted codes sit at p-bin unless their signs happen to
        # agree on every local collection (about 1 in 500 at n = 2).
        bits = _bits(rng, 4**n - 1)
        code = rac.rac_encode_pbin(bits, n, p)
        check = _open_level(_dense_min(code), False, local_minimum(n, code.coefficient))
        ops.append(Op(f"pbin-n{n}", _classify(code, p), check))
        desc.append(["pbin", p, bits])
        # Restricted codes and p-gnst tables carry +-lam on the letter
        # tensors only; their signs cannot fit every commuting triple (a
        # Mermin-Peres parity argument), so they stop at p-box.
        bits = _bits(rng, 3**n)
        code = rac.rac_encode_pbin(bits, n, p, restrict_to_xyz=True)
        ops.append(Op(f"restricted-n{n}", _classify(code, p), _fixed_level("p-box")))
        desc.append(["restricted", p, bits])
        bits = _bits(rng, 3**n)
        ops.append(Op(f"pgnst-n{n}", _classify(rac.rac_encode_pgnst(bits, n, p), p), _fixed_level("p-box")))
        desc.append(["pgnst", p, bits])
        # Scaled inside the uncertainty body by construction.
        valid = oracle.random_valid_state(n, p, rng)
        check = _open_level(_dense_min(valid), False, local_minimum(n, valid.coefficient))
        ops.append(Op(f"valid-n{n}", _classify(valid, p), check))
        desc.append(["valid", p, valid.to_json_dict()])
        if n == 2:
            # The PR box passes the relation only at p = infinity.
            level = "p-nonlocal" if p == math.inf else "invalid"
            margin = _dense_min(oracle.pr_box_coefficient_state()) if p == math.inf else None
            ops.append(Op("prbox-n2", _classify(states.pr_box_state(), p), _fixed_level(level, margin)))
            desc.append(["prbox", p])


def ladder_round(seed: int, index: int | None) -> Round:
    rng = round_rng(seed, index)
    small: list[Op] = []
    desc: list = []
    for n, groups in LADDER_GROUPS.items():
        for _ in range(groups):
            _ladder_group(rng, n, small, desc)
    order = rng.permutation(len(small))
    small = [small[i] for i in order]
    state = oracle.random_quantum_state(4, rng)
    bits = _bits(rng, 3**4)
    big = [
        Op("quantum-n4", _classify(state, N4_QUANTUM_P), _fixed_level("quantum-consistent", _dense_min(state))),
        Op("pgnst-n4", _classify(rac.rac_encode_pgnst(bits, 4, N4_TABLE_P), N4_TABLE_P), _fixed_level("p-box")),
    ]
    desc += [["quantum", N4_QUANTUM_P, state.to_json_dict()], ["pgnst", N4_TABLE_P, bits]]
    # Interleave so a round's halves look alike.
    half = len(small) // 2
    return Round(small[:half] + big[:1] + small[half:] + big[1:], desc)


# ---------------------------------------------------------------------------
# codes: RAC reads, the inner-product protocol, PIR and XOR games
# ---------------------------------------------------------------------------

IP_BITS = (8, 9, 10, 11, 12)
PIR_POWERS = (5, 6, 7)
# Decodes of the stored codeword per round, by n.  The n = 8 reads are
# the largest block of like-cost operations.  About as many operations
# of a round cost less than they do as cost more, so the median
# operation sits near the middle of that block, not on its edge, where
# it would jump between kinds from run to run.
READS = {7: 1, 8: 24}
XOR_SIZES = (3, 4, 5)  # one game per round, each side drawn from these


class Codewords:
    """One stored codeword per n, encoded once and read many times."""

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        self.p = {7: P_GRID[int(rng.integers(0, 3))], 8: math.inf}
        self.bits = {n: _bits(rng, 3**n) for n in READS}
        self.states = {
            7: rac.rac_encode_pgnst(self.bits[7], 7, self.p[7]),
            8: rac.rac_encode_gnst(self.bits[8], 8),
        }


def _carriers(entries: int) -> int:
    c = 0
    while 3**c < entries:
        c += 1
    return c


def _ip_expected(x: list[int], y: list[int], p: float, call_seed: int) -> int:
    """Exact at p = infinity; at finite p the protocol keeps the bit with
    probability equal to the code's recovery, drawn from ``call_seed``."""
    ip = sum(a & b for a, b in zip(x, y)) & 1
    if p == math.inf:
        return ip
    q = recovery(_carriers(2 ** len(x)), p)
    return ip if np.random.default_rng(call_seed).random() < q else 1 - ip


def _equals(expected, label: str):
    def check(result):
        return None if result == expected else f"{label} {result}, expected {expected}"

    return check


def _decode_check(bit: int, q: float):
    def check(result):
        got_bit, got_q = result
        if got_bit != bit or abs(got_q - q) > EXACT:
            return f"decoded ({got_bit}, {got_q}), expected ({bit}, {q})"
        return None

    return check


def _xor_check(value):
    return None if abs(value - 1.0) <= EXACT else f"xor value {value}, expected 1"


def codes_round(seed: int, index: int | None, words: Codewords) -> Round:
    rng = round_rng(seed, index)
    ops: list[Op] = []
    desc: list = [["codewords", words.p, words.bits]]
    for size in IP_BITS:
        for p in (math.inf, 2.0):
            x, y = _bits(rng, size), _bits(rng, size)
            call_seed = int(rng.integers(0, 2**31))
            run = lambda x=x, y=y, p=p, s=call_seed: infotasks.simulate_ip_protocol(x, y, p, s)
            ops.append(Op(f"ip-b{size}", run, _equals(_ip_expected(x, y, p, call_seed), "ip")))
            desc.append(["ip", x, y, p, call_seed])
    for k in PIR_POWERS:
        db = _bits(rng, 3**k)
        i = int(rng.integers(1, 3**k + 1))
        ops.append(Op(f"pir-k{k}", lambda db=db, i=i: infotasks.pir_simulate(db, i), _equals((db[i - 1], k), "pir")))
        desc.append(["pir", db, i])
    for n, reads in READS.items():
        for _ in range(reads):
            j = int(rng.integers(1, 3**n + 1))
            run = lambda n=n, j=j: rac.rac_decode(words.states[n], j)
            ops.append(Op(f"decode-n{n}", run, _decode_check(words.bits[n][j - 1], recovery(n, words.p[n]))))
            desc.append(["decode", n, j])
    s, t = (int(v) for v in rng.choice(XOR_SIZES, size=2))
    game = games.random_xor_game(s, t, seed=int(rng.integers(0, 2**31)))

    def play():
        _, strategy = games.build_xor_game_state(game, math.inf)
        return games.xor_game_value(game, strategy)

    ops.append(Op("xor", play, _xor_check))
    desc.append(["xor", game.to_json_dict()])
    order = rng.permutation(len(ops))
    return Round([ops[i] for i in order], desc)


# ---------------------------------------------------------------------------
# cli: one `python -m boxworld.cli` child per operation
# ---------------------------------------------------------------------------


def cli_argv(mapping: dict) -> list[str]:
    """The argument list ``cli.run_named`` builds from the same mapping."""
    argv = mapping["command"].split()
    for key in sorted(k for k in mapping if k != "command"):
        value = mapping[key]
        argv += ["--" + key.replace("_", "-"), "inf" if value == math.inf else str(value)]
    return argv


def _json_check(check: Callable[[dict], str | None]):
    """Wrap a payload check: exit code 0 and JSON on stdout come first."""

    def outer(result):
        code, out = result
        if code != 0:
            return f"exit code {code}"
        try:
            payload = json.loads(out)
        except json.JSONDecodeError:
            return f"stdout is not JSON: {out[:80]!r}"
        return check(payload)

    return outer


def _near(value, expected: float, label: str) -> str | None:
    if not isinstance(value, (int, float)) or abs(value - expected) > EXACT:
        return f"{label} {value}, expected {expected}"
    return None


class CliRunner:
    """Runs one command mapping as a child process or in process."""

    def __init__(self, root: Path, inproc: bool):
        self.inproc = inproc
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.cwd = root

    def __call__(self, mapping: dict) -> tuple[int, str]:
        if self.inproc:
            from boxworld import cli

            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.run_named(dict(mapping))
            return code, out.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "boxworld.cli", *cli_argv(mapping)],
            env=self.env,
            cwd=self.cwd,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout


def _payload_field(key: str, expected, label: str | None = None):
    def check(payload):
        got = payload.get(key)
        return None if got == expected else f"{label or key} {got}, expected {expected}"

    return check


def _chsh_check(win: float):
    def check(payload):
        if payload.get("consistent") is not True:
            return "inconsistent"
        return _near(payload.get("win_probability"), win, "win probability")

    return check


def _verify_check(q: float):
    def check(payload):
        if payload.get("failures") != 0:
            return f"{payload.get('failures')} failures"
        for record in payload.get("records", ()):
            wrong = _near(record.get("exact_q"), q, "exact q")
            if wrong:
                return wrong
        return None

    return check


def _table_check(win: float):
    def check(payload):
        row = next((r for r in payload.get("rows", ()) if r.get("name") == "chsh-win"), None)
        return "no chsh-win row" if row is None else _near(row["cells"][0]["value"], win, "chsh-win")

    return check


def _decoded_check(bit: int):
    def check(payload):
        if payload.get("bit") != bit or payload.get("success_probability") != 1.0:
            return f"decoded {payload}, expected bit {bit} at probability 1"
        return None

    return check


def cli_round(seed: int, index: int | None, folder: Path, runner: CliRunner) -> Round:
    rng = round_rng(seed, index)
    tag = "w" if index is None else str(index)
    commands: list[tuple[str, dict, Callable]] = []
    desc: list = []

    def stored(name: str, state) -> str:
        data = state.to_json_dict()
        path = folder / f"{name}-{tag}.json"
        path.write_text(json.dumps(data))
        desc.append([name, data])
        return str(path)

    p = P_GRID[int(rng.integers(0, 4))]
    commands.append(("chsh", {"command": "chsh", "p": p}, _chsh_check(0.5 + 0.5 * 2.0 ** (-1.0 / p))))

    s, t = (int(v) for v in rng.integers(3, 6, size=2))
    xor = {"command": "xor", "game": "random", "s_count": s, "t_count": t, "seed": int(rng.integers(0, 2**31))}
    commands.append(("xor", xor, lambda payload: _near(payload.get("achieved_win"), 1.0, "achieved win")))

    bits = _bits(rng, 9)
    encode = {"command": "rac encode", "theory": "gnst", "n": 2, "bits": "".join(map(str, bits))}
    commands.append(("rac-encode", encode, _payload_field("signs", [-1 if b else 1 for b in bits])))

    bits = _bits(rng, 27)
    j = int(rng.integers(1, 28))
    decode = {"command": "rac decode", "file": stored("code3", rac.rac_encode_gnst(bits, 3)), "index": j}
    commands.append(("rac-decode", decode, _decoded_check(bits[j - 1])))

    p = P_GRID[int(rng.integers(0, 3))]
    verify = {
        "command": "rac verify", "theory": "p-gnst", "n": 1, "p": p,
        "trials": 200, "format": "json", "seed": int(rng.integers(0, 2**31)),
    }
    commands.append(("rac-verify", verify, _verify_check(recovery(1, p))))

    size = int(rng.integers(8, 11))
    x, y = _bits(rng, size), _bits(rng, size)
    comm = {"command": "comm ip", "x": "".join(map(str, x)), "y": "".join(map(str, y))}
    commands.append(("comm-ip", comm, _payload_field("decoded", sum(a & b for a, b in zip(x, y)) & 1)))

    db = _bits(rng, 3 ** int(rng.integers(3, 5)))
    i = int(rng.integers(1, len(db) + 1))
    pir = {"command": "pir", "db": "".join(map(str, db)), "index": i}
    commands.append(("pir", pir, _payload_field("retrieved", db[i - 1])))

    commands.append(("table", {"command": "table", "p": 2.0}, _table_check(0.5 + 0.5 * 2.0**-0.5)))

    for n in (2, 3, 4):
        # At n = 4 one exponent, as in ladder: the uncertainty rung's cost
        # depends on p, and this command dominates a round.
        p = N4_QUANTUM_P if n == 4 else QUANTUM_P[int(rng.integers(0, 3))]
        if n == 3:
            state, level = rac.rac_encode_pgnst(_bits(rng, 27), 3, p), "p-box"
        else:
            state, level = oracle.random_quantum_state(n, rng), "quantum-consistent"
        validate = {"command": "validate", "file": stored(f"state{n}", state), "p": p}
        commands.append((f"validate-n{n}", validate, _payload_field("level", level)))

    claim = ("inclusion", "tensor")[int(rng.integers(0, 2))]
    verify = {"command": "oracle verify", "claim": claim, "cases": 5, "seed": int(rng.integers(0, 2**31))}
    commands.append(("oracle-verify", verify, _payload_field("passed", True)))

    ops = [Op(kind, lambda m=mapping: runner(m), _json_check(check)) for kind, mapping, check in commands]
    desc += [[kind, {k: v for k, v in mapping.items() if k != "file"}] for kind, mapping, _ in commands]
    order = rng.permutation(len(ops))
    return Round([ops[i] for i in order], desc)
