"""End-to-end acceptance gate.

One test per numbered criterion; each prints a single PASS or FAIL
line so the verbose run reads as a checklist.
"""

import itertools
import math
import sys
from contextlib import contextmanager

import numpy as np

from boxworld import constraints, games, infotasks, oracle, rac
from boxworld.pauli import PauliString, pauli_product, symplectic_form
from boxworld.states import MomentTable, apply_clifford


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}", file=sys.stderr)
        raise
    print(f"PASS criterion {number}: {label}")


EXPONENTS = (1.0, 2.0, 3.0, 10.0, math.inf)


def test_criterion_01_chsh_values():
    with criterion(1, "CHSH win probabilities across exponents"):
        for p in EXPONENTS:
            closed_form = 0.5 + 1.0 / (2.0 * 2.0 ** (1.0 / p))
            win = games.chsh_win_probability(p)
            assert abs(win - closed_form) <= 1e-9
            from_state = 0.5 + games.chsh_value(games.chsh_optimal_state(p)) / 8.0
            assert abs(from_state - closed_form) <= 1e-9
            from_table = 0.5 + games.chsh_value(
                games.pgnst_chsh_state(p), games.CHSH_XZ_PAIRS
            ) / 8.0
            assert abs(from_table - win) <= 1e-12
        assert abs(games.chsh_win_probability(2) - 0.8535534) <= 1e-7
        assert games.chsh_win_probability(math.inf) == 1.0


def test_criterion_02_tsirelson_optimum():
    with criterion(2, "Tsirelson optimization against the grid search"):
        result = games.tsirelson_optimize()
        root_half = math.sqrt(0.5)
        assert abs(result.value - 2.0 * math.sqrt(2.0)) <= 1e-8
        assert abs(result.x - root_half) <= 1e-6
        assert abs(result.y - root_half) <= 1e-6
        grid = oracle.grid_max_chsh(1000)
        assert grid <= result.value + 1e-6


def test_criterion_03_moment_matrix_iff():
    with criterion(3, "moment-matrix positivity iff probability validity"):
        rng = np.random.default_rng(303)
        for m in (1, 2, 3):
            collection = [PauliString.single(m, i, "Z") for i in range(m)]
            products = constraints._collection_products(collection)
            b = oracle.hadamard_sign_matrix(m)
            size = 1 << m
            psd_seen = nonpsd_seen = 0
            for _ in range(200):
                mu = np.empty(size)
                mu[0] = 1.0
                mu[1:] = rng.uniform(-1.0, 1.0, size=size - 1)
                probs = b @ mu / math.sqrt(size)
                values = {
                    s.basis_key(): s.hermitian_sign() * mu[mask]
                    for mask, s in enumerate(products)
                    if not s.is_identity
                }
                table = MomentTable(m, values, strict=True)
                k = constraints.moment_matrix(collection, table, scaled=True)
                valid = probs.min() >= -1e-9
                assert constraints.check_psd(k, tol=1e-9).passed == valid
                assert np.abs(k - b @ np.diag(probs) @ b.T).max() <= 1e-12
                if valid:
                    psd_seen += 1
                else:
                    nonpsd_seen += 1
            assert psd_seen > 0
            if m > 1:
                assert nonpsd_seen > 0
        # closed-form spectrum of the two-measurement matrix
        rng = np.random.default_rng(33)
        for _ in range(20):
            a, b_, c = rng.uniform(-1.0, 1.0, size=3)
            closed = constraints.two_measurement_eigenvalues(a, b_, c)
            dense = np.linalg.eigvalsh(
                constraints.two_measurement_moment_matrix(a, b_, c)
            )
            assert max(abs(x - y) for x, y in zip(closed, dense)) <= 1e-10


def test_criterion_04_perfect_rac():
    with criterion(4, "perfect table code at full strength"):
        for bits in itertools.product((0, 1), repeat=3):
            state = rac.rac_encode_gnst(bits, 1)
            for j in range(1, 4):
                bit, q = rac.rac_decode(state, j)
                assert bit == bits[j - 1] and q == 1.0
        for bits in itertools.product((0, 1), repeat=9):
            state = rac.rac_encode_gnst(bits, 2)
            for j in range(1, 10):
                bit, q = rac.rac_decode(state, j)
                assert bit == bits[j - 1] and q == 1.0
        rng = np.random.default_rng(404)
        for _ in range(1000):
            bits = [int(b) for b in rng.integers(0, 2, size=27)]
            state = rac.rac_encode_gnst(bits, 3)
            for j in range(1, 28):
                bit, q = rac.rac_decode(state, j)
                assert bit == bits[j - 1] and q == 1.0


def test_criterion_05_pgnst_rac_recovery():
    with criterion(5, "finite-p recovery probability and repetition boosting"):
        for n in (1, 2, 3):
            for p in (1.0, 2.0, 3.0, math.inf):
                expected = 0.5 + 0.5 * (2 * n + 1) ** (-1.0 / p)
                bits = [0] * 3**n
                bits[1] = 1
                state = rac.rac_encode_pgnst(bits, n, p)
                for j in (1, 2):
                    bit, q = rac.rac_decode(state, j)
                    assert bit == bits[j - 1]
                    assert abs(q - expected) <= 1e-12
        trials = 100_000
        success = rac.rac_repetition_decode(
            [0] * 27, 3, 1, 5, trials=trials, seed=0
        )
        epsilon = 2.0 * math.exp(-0.5 * 7.0)
        sigma = math.sqrt(epsilon * (1.0 - epsilon) / trials)
        assert 1.0 - success <= epsilon + 3.0 * sigma


def test_criterion_06_hierarchy_separation():
    with criterion(6, "hierarchy witness and the entangling counterexample"):
        witness = rac.rac_encode_pbin([0] * 15, 2, 2)
        assert constraints.check_p_uncertainty(witness, 2).passed
        assert constraints.check_local_moments(witness).passed
        commuting = constraints.check_commuting_moments(witness)
        assert not commuting.passed
        assert commuting.margin < 0
        assert oracle.min_eigenvalue(oracle.dense(witness)) < 0
        report = oracle.exhaustive_verify("operations-pbox-counterexample", seed=0)
        assert report["passed"]
        assert report["image_margin"] < 0


def test_criterion_07_claim_property_suites():
    with criterion(7, "five property suites at 500 seeded cases each"):
        for claim in ("inclusion", "operations", "tensor"):
            report = oracle.exhaustive_verify(claim, seed=0, cases=500)
            assert report["passed"], claim
            assert report["cases"] >= 500
        # commuting-moment positivity survives Clifford conjugation
        rng = np.random.default_rng(707)
        for _ in range(500):
            state = oracle.random_quantum_state(2, rng)
            assert constraints.check_commuting_moments(state).passed
            circuit = oracle.random_circuit(2, rng, length=8)
            image = apply_clifford(circuit, state)
            assert constraints.check_commuting_moments(image).passed
        # symplectic form and string products against dense algebra
        rng = np.random.default_rng(717)
        for _ in range(500):
            n = int(rng.integers(1, 4))
            s = PauliString.hermitian(
                n, int(rng.integers(0, 2**n)), int(rng.integers(0, 2**n))
            )
            t = PauliString.hermitian(
                n, int(rng.integers(0, 2**n)), int(rng.integers(0, 2**n))
            )
            ds, dt = oracle.dense(s), oracle.dense(t)
            anti = np.abs(ds @ dt + dt @ ds).max()
            comm = np.abs(ds @ dt - dt @ ds).max()
            if symplectic_form(s, t) == 1:
                assert anti <= 1e-12
            else:
                assert comm <= 1e-12
            product = pauli_product(s, t)
            assert np.abs(oracle.dense(product) - ds @ dt).max() <= 1e-12


def test_criterion_08_unique_xor_games():
    with criterion(8, "certain victory for unique XOR games"):
        for game in games.chsh_type_games():
            _, strategy = games.build_xor_game_state(game, math.inf)
            assert abs(games.xor_game_value(game, strategy) - 1.0) <= 1e-9
        for seed in range(50):
            game = games.random_xor_game(3, 3, seed)
            _, strategy = games.build_xor_game_state(game, math.inf)
            assert abs(games.xor_game_value(game, strategy) - 1.0) <= 1e-9


def test_criterion_09_communication_and_pir():
    with criterion(9, "inner-product protocol and private retrieval"):
        for n in (1, 2, 3, 4):
            for x in itertools.product((0, 1), repeat=n):
                for y in itertools.product((0, 1), repeat=n):
                    decoded = infotasks.simulate_ip_protocol(list(x), list(y))
                    assert decoded == infotasks.inner_product(x, y)
        rng = np.random.default_rng(909)
        for _ in range(1000):
            x = [int(b) for b in rng.integers(0, 2, size=10)]
            y = [int(b) for b in rng.integers(0, 2, size=10)]
            assert infotasks.simulate_ip_protocol(x, y) == infotasks.inner_product(x, y)
        for n in range(1, 13):
            expected = math.ceil(n * math.log(2) / math.log(3))
            assert infotasks.ip_oneway_cost(n, math.inf).carriers == expected
        database = [1, 0, 1, 1, 0, 0, 1, 0, 1]
        for i in range(1, 10):
            bit, cost = infotasks.pir_simulate(database, i)
            assert bit == database[i - 1]
            assert cost == 2


def test_criterion_10_learnability_calculators():
    with criterion(10, "learnability bounds and the monotone sweep"):
        assert rac.rac_learning_params(100, 2, 0.25) == 3
        bound = infotasks.sample_complexity_lower_bound(27, 0.25, 0.1, 0.01)
        log_term = math.log(4.0 * 27 / 0.25**2)
        first_hand = (27 / (2.0 * log_term**2) - 1.0) / (32.0 * 0.1)
        second_hand = math.log(100.0) / 0.1
        assert abs(bound.first_branch - first_hand) <= 1e-6
        assert abs(bound.second_branch - second_hand) <= 1e-6
        assert abs(bound.value - max(first_hand, second_hand)) <= 1e-6
        assert abs(bound.value - 46.0517018598809) <= 1e-6
        assert not bound.precondition_ok
        big = infotasks.sample_complexity_lower_bound(3**10, 0.25, 0.1, 0.01)
        assert big.precondition_ok
        thresholds = [
            infotasks.learnability_threshold(budget, 2, 0.25, 0.1, 0.05).threshold
            for budget in (60, 100, 200, 400, 800)
        ]
        assert thresholds == sorted(thresholds)
