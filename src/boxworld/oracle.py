"""Brute-force ground truth: dense matrices and an independent eigensolver.

Everything here trades efficiency for directness so that the symbolic
paths elsewhere in the package can be checked against literal matrix
arithmetic.  The eigensolver is a hand-rolled cyclic Jacobi iteration
rather than a LAPACK call, keeping this route independent of the
library solver used by the constraint checkers.

Mask conventions match the rest of the package: for a collection of m
measurements, subset masks and outcome masks both put measurement 0 in
the most significant of m bits; outcome bit set means that measurement
returned -1.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DimensionError, DomainError, ResourceError
from .games import XorGame
from .pauli import AntiCommutingSet, PauliString, hermitian_basis, symplectic_form
from .states import CliffordCircuit, CoefficientState, all_outcomes

__all__ = [
    "MAX_DENSE_SYSTEMS",
    "dense",
    "eigenvalues",
    "min_eigenvalue",
    "is_psd",
    "hadamard_sign_matrix",
    "subset_moment_vector",
    "marginal_vector",
    "hadamard_factorization_check",
    "grid_max_chsh",
    "xor_classical_value",
    "maximal_cliques",
    "maximal_anticommuting_sets",
    "random_quantum_state",
    "random_valid_state",
    "random_circuit",
    "pr_box_coefficient_state",
    "exhaustive_verify",
]

MAX_DENSE_SYSTEMS = 6
MAX_JACOBI_DIM = 512

_SINGLE = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    # X @ Z, i.e. -iY; the Hermitian basis phase is tracked separately.
    (1, 1): np.array([[0, -1], [1, 0]], dtype=complex),
}


def _check_size(n: int) -> None:
    if n > MAX_DENSE_SYSTEMS:
        raise ResourceError(
            f"dense realization is limited to n <= {MAX_DENSE_SYSTEMS}"
        )


def _dense_pauli(p: PauliString) -> np.ndarray:
    _check_size(p.n)
    out = np.array([[1.0 + 0.0j]])
    for i in range(p.n):
        out = np.kron(out, _SINGLE[(p.a >> i & 1, p.b >> i & 1)])
    return (1j**p.phase) * out


def _dense_state(state: CoefficientState) -> np.ndarray:
    _check_size(state.n)
    dim = 1 << state.n
    acc = np.eye(dim, dtype=complex)
    for string, value in state.terms():
        acc += value * _dense_pauli(string)
    return acc / dim


def _dense_gate(name: str, targets: tuple[int, ...], n: int) -> np.ndarray:
    dim = 1 << n
    if name == "CNOT":
        control, target = targets
        u = np.zeros((dim, dim), dtype=complex)
        for basis in range(dim):
            # system 0 occupies the highest basis bit, matching kron order
            c_bit = basis >> (n - 1 - control) & 1
            image = basis ^ (c_bit << (n - 1 - target))
            u[image, basis] = 1.0
        return u
    single = {
        "I": np.eye(2, dtype=complex),
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
        "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    }[name]
    out = np.array([[1.0 + 0.0j]])
    for i in range(n):
        out = np.kron(out, single if i == targets[0] else np.eye(2, dtype=complex))
    return out


def _dense_circuit(circuit: CliffordCircuit) -> np.ndarray:
    _check_size(circuit.n)
    u = np.eye(1 << circuit.n, dtype=complex)
    for name, targets in circuit.gates:
        u = _dense_gate(name, targets, circuit.n) @ u
    return u


def dense(obj: PauliString | CoefficientState | CliffordCircuit) -> np.ndarray:
    """Literal complex matrix for a string, state, or circuit.

    Raises:
        ResourceError: beyond six systems.
    """
    if isinstance(obj, PauliString):
        return _dense_pauli(obj)
    if isinstance(obj, CoefficientState):
        return _dense_state(obj)
    if isinstance(obj, CliffordCircuit):
        return _dense_circuit(obj)
    raise DomainError(f"cannot realize {type(obj).__name__} as a dense matrix")


def _jacobi_real_symmetric(matrix: np.ndarray) -> np.ndarray:
    """Cyclic Jacobi eigenvalue iteration for a real symmetric matrix."""
    a = matrix.astype(float).copy()
    size = a.shape[0]
    if size == 1:
        return a.diagonal().copy()
    scale = max(1.0, float(np.abs(a).max()))
    for _ in range(60):
        off = a - np.diag(a.diagonal())
        if np.abs(off).max() <= 1e-15 * scale:
            break
        for p in range(size - 1):
            for q in range(p + 1, size):
                apq = a[p, q]
                if abs(apq) <= 1e-18 * scale:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(1.0 + theta * theta)
                )
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
    return np.sort(a.diagonal())


def eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of a Hermitian matrix via cyclic Jacobi.

    Complex Hermitian input is embedded as the real symmetric matrix
    [[Re, -Im], [Im, Re]], whose spectrum is the original one doubled.

    Raises:
        DomainError: if the matrix is not Hermitian.
        ResourceError: beyond the supported dimension.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DomainError("need a square matrix")
    if matrix.shape[0] > MAX_JACOBI_DIM:
        raise ResourceError(
            f"eigensolver is limited to {MAX_JACOBI_DIM}x{MAX_JACOBI_DIM}"
        )
    scale = max(1.0, float(np.abs(matrix).max()))
    if np.abs(matrix - matrix.conj().T).max() > 1e-10 * scale:
        raise DomainError("matrix is not Hermitian")
    if np.iscomplexobj(matrix) and np.abs(matrix.imag).max() > 0:
        re, im = matrix.real, matrix.imag
        embedded = np.block([[re, -im], [im, re]])
        doubled = _jacobi_real_symmetric(embedded)
        return doubled[::2]
    return _jacobi_real_symmetric(matrix.real)


def min_eigenvalue(matrix: np.ndarray) -> float:
    return float(eigenvalues(matrix)[0])


def is_psd(matrix: np.ndarray, tol: float = 1e-9) -> bool:
    return min_eigenvalue(matrix) >= -tol


def _parity_signs(size: int) -> np.ndarray:
    """Matrix of (-1)**(i.j) over bit masks i, j below ``size``."""
    idx = np.arange(size)
    anded = np.bitwise_and(idx[:, None], idx[None, :])
    parity = np.zeros_like(anded)
    shift = 0
    while 1 << shift < size:
        parity ^= anded >> shift & 1
        shift += 1
    return 1.0 - 2.0 * parity


def hadamard_sign_matrix(m: int) -> np.ndarray:
    """The orthogonal sign matrix B with entries 2**(-m/2) * (-1)**(i.j)."""
    size = 1 << m
    return _parity_signs(size) / math.sqrt(size)


def subset_moment_vector(probs: Sequence[float], m: int) -> np.ndarray:
    """Moments of every outcome-product subset of an m-measurement table."""
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (1 << m,):
        raise DimensionError(f"need 2**{m} probabilities")
    return _parity_signs(1 << m) @ probs


def marginal_vector(probs: Sequence[float], n: int, keep: Sequence[int]) -> tuple[float, ...]:
    """The marginal of an n-system outcome vector on the systems ``keep``,
    summed in Python one outcome at a time, in outcome order, from 0.0."""
    sums: dict[tuple[int, ...], float] = {}
    for outcome, pr in zip(all_outcomes(n), probs):
        key = tuple(outcome[i] for i in keep)
        sums[key] = sums.get(key, 0.0) + pr
    return tuple(sums[o] for o in all_outcomes(len(keep)))


def hadamard_factorization_check(
    collection: Sequence[PauliString],
    probs: Sequence[float],
    tol: float = 1e-12,
) -> tuple[bool, float]:
    """Verify K = B diag(p) B^T for a commuting collection's moment matrix.

    The distribution's subset moments fill a moment table, the
    constraint module assembles K from it in scaled form, and this
    routine factors the same distribution through the sign matrix B.
    Their entrywise agreement is exactly why the moment matrix of a
    genuine probability table is PSD.

    Returns:
        (ok, max entrywise deviation).

    Raises:
        ResourceError: beyond 6 measurements.
        DimensionError: wrong distribution length.
    """
    from .constraints import _collection_products, moment_matrix
    from .states import MomentTable

    collection = tuple(collection)
    m = len(collection)
    if m > 6:
        raise ResourceError("factorization check is limited to 6 measurements")
    probs_arr = np.asarray(probs, dtype=float)
    mu = subset_moment_vector(probs_arr, m)
    values: dict[tuple[int, int], float] = {}
    for mask, string in enumerate(_collection_products(collection)):
        if string.is_identity:
            continue
        values[string.basis_key()] = string.hermitian_sign() * float(mu[mask])
    table = MomentTable(collection[0].n, values, strict=True)
    k = moment_matrix(collection, table, scaled=True)
    b = hadamard_sign_matrix(m)
    factored = b @ np.diag(probs_arr) @ b.T
    deviation = float(np.abs(k - factored).max())
    return deviation <= tol, deviation


def grid_max_chsh(points_per_axis: int = 1000) -> float:
    """Grid-search oracle for the two-moment game bound.

    Scans (x, y) on a square grid, keeps the disc x**2 + y**2 <= 1, and
    maximizes 2 (x + y).
    """
    axis = np.linspace(-1.0, 1.0, points_per_axis)
    x, y = np.meshgrid(axis, axis)
    feasible = x**2 + y**2 <= 1.0
    return float((2.0 * (x + y))[feasible].max())


def xor_classical_value(game: XorGame) -> float:
    """The best winning probability of a deterministic classical strategy.

    Brute force over the first party's 2**s answer assignments (bit s
    of ``x`` is its answer to question s), each met by the second
    party's best response: per question t, the answer that wins more of
    column t's probability.  Shared randomness only mixes deterministic
    strategies, so this is the classical value.  The cost grows as
    2**s, so keep the first party's question count small.
    """
    best = 0.0
    for x in range(1 << game.s_count):
        total = 0.0
        for t in range(game.t_count):
            won = [0.0, 0.0]  # by the second party's answer
            for s in range(game.s_count):
                won[(x >> s & 1) ^ game.wins[s][t]] += game.pi[s][t]
            total += max(won)
        best = max(best, total)
    return best


# ---------------------------------------------------------------------------
# clique enumeration: the reference for the clique search and the
# Lagrangian enumeration
# ---------------------------------------------------------------------------


def maximal_cliques(
    strings: Sequence[PauliString], form: int
) -> tuple[tuple[PauliString, ...], ...]:
    """Every maximal subset of ``strings`` whose pairs all have symplectic
    form ``form`` (0 = commuting, 1 = anti-commuting), sorted by letters.

    Pivoted Bron-Kerbosch over the pairwise relation as bit-masks.
    """
    strings = tuple(strings)
    adj = [
        sum(1 << j for j, t in enumerate(strings) if j != i and symplectic_form(s, t) == form)
        for i, s in enumerate(strings)
    ]
    cliques: list[int] = []

    def extend(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            cliques.append(r)
            return
        pool = p | x
        pivot = max(
            (v for v in range(pool.bit_length()) if pool >> v & 1),
            key=lambda v: (p & adj[v]).bit_count(),
        )
        candidates = p & ~adj[pivot]
        while candidates:
            bit = candidates & -candidates
            v = bit.bit_length() - 1
            extend(r | bit, p & adj[v], x & adj[v])
            candidates ^= bit
            p ^= bit
            x |= bit

    extend(0, (1 << len(strings)) - 1, 0)
    out = [tuple(s for i, s in enumerate(strings) if r >> i & 1) for r in cliques]
    return tuple(sorted(out, key=lambda c: tuple(s.letters() for s in c)))


def maximal_anticommuting_sets(
    strings: Sequence[PauliString],
) -> tuple[AntiCommutingSet, ...]:
    """Every maximal pairwise anti-commuting subset of ``strings``.

    Maximality is relative to the supplied alphabet: no further member
    of ``strings`` can be added.
    """
    return tuple(AntiCommutingSet(c) for c in maximal_cliques(strings, 1))


# ---------------------------------------------------------------------------
# seeded state and circuit generators shared by the verification suites
# ---------------------------------------------------------------------------


def random_quantum_state(n: int, rng: np.random.Generator) -> CoefficientState:
    """Coefficients of a random density matrix."""
    _check_size(n)
    dim = 1 << n
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    coeffs: dict[tuple[int, int], float] = {}
    for string in hermitian_basis(n):
        coeffs[string.basis_key()] = float(np.trace(rho @ _dense_pauli(string)).real)
    return CoefficientState(n, coeffs)


def random_valid_state(
    n: int, p: float, rng: np.random.Generator
) -> CoefficientState:
    """A random sparse state scaled inside the p-uncertainty body.

    Raises:
        ResourceError: at finite p, when the uncertainty search stops at
            its cap (``budgeted``), since only a finished search
            certifies the scale.
    """
    from .constraints import check_p_uncertainty

    strings = tuple(hermitian_basis(n))
    raw = rng.normal(size=len(strings))
    keep = rng.random(len(strings)) < 0.5
    raw[~keep] = 0.0
    if not raw.any():
        raw[int(rng.integers(0, len(strings)))] = 1.0
    raw /= np.abs(raw).max()
    base = CoefficientState(
        n, {s.basis_key(): float(v) for s, v in zip(strings, raw) if v}
    )
    report = check_p_uncertainty(base, p)
    if report.detail["mode"] == "budgeted":
        raise ResourceError(
            f"the uncertainty search stopped at its cap of {report.detail['sets']} sets, "
            "so no scale is certified"
        )
    worst = 1.0 - report.margin
    shrink = float(rng.random())
    if p == math.inf:
        factor = shrink / max(worst, 1e-12)
    else:
        factor = (shrink / max(worst, 1e-12)) ** (1.0 / p)
    factor = min(factor, 1.0)
    return CoefficientState(
        n, {k: base.coefficient(*k) * factor for k in base.keys()}
    )


def random_circuit(
    n: int, rng: np.random.Generator, length: int = 12
) -> CliffordCircuit:
    gates = []
    names = ["H", "X", "Y", "Z"] + (["CNOT"] if n > 1 else [])
    for _ in range(length):
        name = names[int(rng.integers(0, len(names)))]
        if name == "CNOT":
            c, t = rng.choice(n, size=2, replace=False)
            gates.append(("CNOT", (int(c), int(t))))
        else:
            gates.append((name, (int(rng.integers(0, n)),)))
    return CliffordCircuit(n, tuple(gates))


# ---------------------------------------------------------------------------
# claim-level exhaustive verification
# ---------------------------------------------------------------------------


def _report(claim: str, passed: bool, cases: int, detail: dict | None = None) -> dict:
    out = {"claim": claim, "passed": bool(passed), "cases": int(cases)}
    if detail:
        out.update(detail)
    return out


def _verify_inclusion(seed: int, cases: int) -> dict:
    from .constraints import check_p_uncertainty

    rng = np.random.default_rng(seed)
    base_grid = [1.0, 1.5, 2.0, 3.0]
    full_grid = base_grid + [math.inf]
    failures = []
    for _ in range(cases):
        n = int(rng.integers(1, 3))
        p = base_grid[int(rng.integers(0, len(base_grid)))]
        state = random_valid_state(n, p, rng)
        for q in full_grid:
            if q < p:
                continue
            report = check_p_uncertainty(state, q)
            if not report.passed:
                failures.append({"p": p, "q": q, "margin": report.margin})
    return _report("inclusion", not failures, cases, {"failures": failures[:5]})


def _verify_operations(seed: int, cases: int) -> dict:
    from .constraints import check_p_uncertainty
    from .states import apply_clifford

    rng = np.random.default_rng(seed)
    grid = [1.0, 2.0, 3.0, math.inf]
    failures = []
    for _ in range(cases):
        n = int(rng.integers(1, 4))
        p = grid[int(rng.integers(0, len(grid)))]
        state = random_valid_state(n, p, rng)
        image = apply_clifford(random_circuit(n, rng), state)
        report = check_p_uncertainty(image, p)
        if not report.passed:
            failures.append({"p": p, "n": n, "margin": report.margin})
    return _report("operations", not failures, cases, {"failures": failures[:5]})


def pr_box_coefficient_state() -> CoefficientState:
    """The perfectly correlated X/Z two-system state in coefficient form."""
    keys = {
        "XX": 1.0,
        "XZ": 1.0,
        "ZX": 1.0,
        "ZZ": -1.0,
    }
    return CoefficientState(
        2, {PauliString.from_text(k).basis_key(): v for k, v in keys.items()}
    )


def _verify_pbox_counterexample(seed: int, cases: int) -> dict:
    """Search for a box-level state whose CNOT image breaks a local check.

    The deterministic first candidate is the perfectly correlated X/Z
    state; random box-level states follow.  The discovered witness is
    frozen as a fixture in the test suite.
    """
    from .constraints import check_local_moments, check_p_uncertainty
    from .states import apply_clifford

    rng = np.random.default_rng(seed)
    candidates = [pr_box_coefficient_state()]
    for _ in range(cases):
        candidates.append(random_valid_state(2, math.inf, rng))
    circuit = CliffordCircuit(2, (("CNOT", (0, 1)),))
    for state in candidates:
        if not check_p_uncertainty(state, math.inf).passed:
            continue
        if not check_local_moments(state).passed:
            continue
        image = apply_clifford(circuit, state)
        local = check_local_moments(image)
        if not local.passed:
            return _report(
                "operations-pbox-counterexample",
                True,
                len(candidates),
                {
                    "witness": state.to_json_dict(),
                    "image_margin": local.margin,
                    "worst_set": list(local.worst_set),
                },
            )
    return _report("operations-pbox-counterexample", False, len(candidates))


def _verify_tensor(seed: int, cases: int) -> dict:
    from .constraints import check_p_uncertainty
    from .states import tensor_product

    rng = np.random.default_rng(seed)
    grid = [1.0, 2.0, 3.0, math.inf]
    shapes = [(1, 1), (1, 2), (2, 1), (1, 1, 1)]
    failures = []
    for _ in range(cases):
        p = grid[int(rng.integers(0, len(grid)))]
        shape = shapes[int(rng.integers(0, len(shapes)))]
        parts = [random_valid_state(k, p, rng) for k in shape]
        joint = parts[0]
        for part in parts[1:]:
            joint = tensor_product(joint, part)
        report = check_p_uncertainty(joint, p)
        if not report.passed:
            failures.append({"p": p, "shape": shape, "margin": report.margin})
    return _report("tensor", not failures, cases, {"failures": failures[:5]})


def _verify_rac(claim: str, seed: int, cases: int) -> dict:
    from . import rac
    from .constraints import check_local_moments, check_p_uncertainty

    theory = _RAC_CLAIMS[claim]
    rng = np.random.default_rng(seed)
    failures: list[dict] = []
    checked = 0
    for _ in range(cases):
        n = int(rng.integers(1, 3))
        p = [1.0, 2.0, 3.0][int(rng.integers(0, 3))]
        params = rac.rac_params(theory, n, math.inf if theory == "gnst" else p)
        bits = tuple(int(v) for v in rng.integers(0, 2, size=params.encoded_bits))
        state = rac.rac_encode(theory, bits, n, p)
        if theory != "gnst" and not check_p_uncertainty(state, p).passed:
            failures.append({"n": n, "p": p, "reason": "uncertainty"})
        if theory == "p-box" and not check_local_moments(state).passed:
            failures.append({"n": n, "p": p, "reason": "local-moments"})
        for j in range(1, len(bits) + 1):
            decoded, q = rac.rac_decode(state, j)
            checked += 1
            if decoded != bits[j - 1] or abs(q - params.recovery) > 1e-12:
                failures.append({"n": n, "p": p, "j": j})
    return _report(claim, not failures, checked, {"failures": failures[:5]})


def _verify_chsh(seed: int, cases: int) -> dict:
    from . import games

    checks = []
    for p in (1.0, 2.0, 3.0, 10.0, math.inf):
        expected = games.chsh_win_probability(p)
        state = games.chsh_optimal_state(p)
        value = games.chsh_value(state, games.CHSH_XY_PAIRS)
        checks.append(abs(0.5 + value / 8.0 - expected) <= 1e-12)
        gnst = games.pgnst_chsh_state(p)
        value2 = games.chsh_value(gnst, games.CHSH_XZ_PAIRS)
        checks.append(abs(0.5 + value2 / 8.0 - expected) <= 1e-12)
    result = games.tsirelson_optimize()
    checks.append(abs(result.value - 2.0 * math.sqrt(2.0)) <= 1e-9)
    checks.append(grid_max_chsh(1000) <= result.value + 1e-6)
    return _report("chsh", all(checks), len(checks))


_CLAIMS = {
    "inclusion": _verify_inclusion,
    "operations": _verify_operations,
    "operations-pbox-counterexample": _verify_pbox_counterexample,
    "tensor": _verify_tensor,
    "chsh": _verify_chsh,
}

_RAC_CLAIMS = {
    "pgnstRAC": "gnst",
    "pRAC": "p-gnst",
    "pbinRAC": "p-bin",
    "pnonlocalRAC": "p-box",
}


def exhaustive_verify(claim: str, seed: int = 0, cases: int = 50) -> dict:
    """Run the brute-force verifier for one named claim.

    Returns a report dict with at least ``claim``, ``passed`` and
    ``cases``; failed runs include a sample of failing configurations.

    Raises:
        DomainError: on an unknown claim or fewer than one case.
    """
    if cases < 1:
        raise DomainError(f"need at least one case, got {cases}")
    if claim in _CLAIMS:
        return _CLAIMS[claim](seed, cases)
    if claim in _RAC_CLAIMS:
        return _verify_rac(claim, seed, cases)
    raise DomainError(
        f"unknown claim {claim!r}; choose from "
        f"{sorted(list(_CLAIMS) + list(_RAC_CLAIMS))}"
    )
