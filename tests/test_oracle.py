import math

import numpy as np
import pytest

from boxworld import constraints, oracle
from boxworld.errors import DimensionError, DomainError, ResourceError
from boxworld.pauli import PauliString
from boxworld.states import CliffordCircuit, CoefficientState
from boxworld.constraints import check_commuting_moments, check_p_uncertainty


class TestDense:
    def test_identity_string(self):
        assert np.array_equal(oracle.dense(PauliString.identity(1)), np.eye(2))

    def test_single_letters(self):
        x = oracle.dense(PauliString.from_text("X"))
        y = oracle.dense(PauliString.from_text("Y"))
        z = oracle.dense(PauliString.from_text("Z"))
        assert np.array_equal(x, np.array([[0, 1], [1, 0]]))
        assert np.allclose(y, np.array([[0, -1j], [1j, 0]]))
        assert np.array_equal(z, np.diag([1, -1]))
        assert np.allclose(x @ z, -z @ x)

    def test_state_trace_one(self, rng):
        state = CoefficientState(2, {(1, 0): 0.4, (2, 3): -0.2})
        rho = oracle.dense(state)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.allclose(rho, rho.conj().T)

    def test_expectation_agrees_with_trace(self, rng):
        for n in (1, 2, 3):
            for _ in range(10):
                keys = {
                    (int(rng.integers(1, 2**n)), int(rng.integers(0, 2**n))): float(
                        rng.uniform(-0.3, 0.3)
                    )
                    for _ in range(3)
                }
                state = CoefficientState(n, keys)
                rho = oracle.dense(state)
                for _ in range(4):
                    s = PauliString.hermitian(
                        n, int(rng.integers(0, 2**n)), int(rng.integers(0, 2**n))
                    )
                    trace = float(np.trace(oracle.dense(s) @ rho).real)
                    assert abs(state.value(s) - trace) < 1e-12

    def test_circuit_unitary(self):
        circuit = CliffordCircuit(2, (("H", (0,)), ("CNOT", (0, 1))))
        u = oracle.dense(circuit)
        assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)

    def test_unsupported_object(self):
        with pytest.raises(DomainError):
            oracle.dense("XZ")

    def test_size_gate(self):
        state = CoefficientState(7, {(1, 0): 0.1})
        with pytest.raises(ResourceError):
            oracle.dense(state)


class TestEigenvalues:
    def test_identity(self):
        assert np.allclose(oracle.eigenvalues(np.eye(3)), np.ones(3))

    def test_matches_lapack_on_random_symmetric(self, rng):
        for _ in range(10):
            a = rng.normal(size=(6, 6))
            sym = (a + a.T) / 2
            assert np.allclose(
                oracle.eigenvalues(sym), np.linalg.eigvalsh(sym), atol=1e-10
            )

    def test_complex_hermitian_embedding(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        herm = (a + a.conj().T) / 2
        assert np.allclose(
            oracle.eigenvalues(herm), np.linalg.eigvalsh(herm), atol=1e-10
        )

    def test_non_hermitian_rejected(self):
        with pytest.raises(DomainError):
            oracle.eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_square_rejected(self):
        for matrix in (np.zeros((2, 3)), np.zeros(4), np.zeros((2, 2, 2))):
            with pytest.raises(DomainError, match="need a square matrix"):
                oracle.eigenvalues(matrix)

    def test_size_limit_is_checked_before_iterating(self, monkeypatch):
        def refuse(matrix):
            raise AssertionError("the Jacobi iteration ran")

        monkeypatch.setattr(oracle, "_jacobi_real_symmetric", refuse)
        size = oracle.MAX_JACOBI_DIM + 1
        with pytest.raises(ResourceError, match="limited to 512x512"):
            oracle.eigenvalues(np.zeros((size, size)))

    def test_one_by_one_is_its_entry(self):
        assert oracle.eigenvalues(np.array([[-2.5]])).tolist() == [-2.5]

    def test_min_and_psd(self):
        assert oracle.min_eigenvalue(np.diag([3.0, -1.0])) == pytest.approx(-1.0)
        assert oracle.is_psd(np.diag([3.0, 1.0]))
        assert not oracle.is_psd(np.diag([3.0, -1.0]))


class TestHadamardStructure:
    @pytest.mark.parametrize("m", [1, 2, 3, 6])
    def test_sign_matrix_is_orthogonal(self, m):
        b = oracle.hadamard_sign_matrix(m)
        assert np.abs(b @ b.T - np.eye(1 << m)).max() <= 1e-12

    def test_subset_moments_of_uniform(self):
        mu = oracle.subset_moment_vector([0.25] * 4, 2)
        assert mu[0] == pytest.approx(1.0)
        assert np.allclose(mu[1:], 0.0)

    def test_subset_moments_of_point_mass(self):
        # all outcomes +1: every subset moment is 1
        mu = oracle.subset_moment_vector([1.0, 0.0, 0.0, 0.0], 2)
        assert np.allclose(mu, 1.0)

    def test_subset_vector_shape(self):
        with pytest.raises(DimensionError):
            oracle.subset_moment_vector([0.5, 0.5], 2)

    def test_factorization_on_correlated_pair(self):
        collection = [PauliString.from_text("XI"), PauliString.from_text("IX")]
        ok, deviation = oracle.hadamard_factorization_check(
            collection, [0.5, 0.0, 0.0, 0.5]
        )
        assert ok
        assert deviation <= 1e-12

    def test_factorization_gate(self):
        n = 7
        collection = [PauliString.single(n, i, "Z") for i in range(n)]
        with pytest.raises(ResourceError):
            oracle.hadamard_factorization_check(collection, [0.0] * 128)


class TestChshSearch:
    def test_grid_stays_below_quantum_bound(self):
        value = oracle.grid_max_chsh(200)
        assert value <= 2.0 * math.sqrt(2.0) + 1e-9
        assert value > 2.8

    def test_grid_converges(self):
        coarse = oracle.grid_max_chsh(100)
        fine = oracle.grid_max_chsh(500)
        assert fine >= coarse - 1e-12


class TestRandomStates:
    def test_random_quantum_state_is_consistent(self, rng):
        for _ in range(5):
            state = oracle.random_quantum_state(2, rng)
            assert oracle.is_psd(oracle.dense(state))
            assert check_commuting_moments(state).passed

    def test_random_valid_state_obeys_uncertainty(self, rng):
        for p in (1.0, 2.0, math.inf):
            state = oracle.random_valid_state(2, p, rng)
            assert check_p_uncertainty(state, p).passed

    def test_random_valid_state_at_four_systems(self, rng):
        for p in (1.5, 2.0, 3.0):
            state = oracle.random_valid_state(4, p, rng)
            assert state.n == 4
            assert check_p_uncertainty(state, p).passed

    def test_random_valid_state_needs_a_certified_scale(self, rng, monkeypatch):
        """Only a finished search certifies the scale; one stopped at its
        cap refuses, and p = infinity needs no search."""
        monkeypatch.setattr(constraints, "_SEARCH_SETS", 1)
        with pytest.raises(ResourceError, match="stopped at its cap"):
            oracle.random_valid_state(3, 2.0, rng)
        assert oracle.random_valid_state(3, math.inf, rng).n == 3

    def test_random_valid_state_at_five_systems(self, rng):
        state = oracle.random_valid_state(5, 2.0, rng)
        report = check_p_uncertainty(state, 2.0)
        assert report.passed and report.detail["mode"] == "exhaustive"

    def test_random_circuit_shape(self, rng):
        circuit = oracle.random_circuit(2, rng)
        assert circuit.n == 2
        assert len(circuit.gates) == 12


class TestClaimVerifiers:
    @pytest.mark.parametrize(
        "claim",
        [
            "inclusion",
            "operations",
            "operations-pbox-counterexample",
            "tensor",
            "chsh",
            "pgnstRAC",
            "pRAC",
            "pbinRAC",
            "pnonlocalRAC",
        ],
    )
    def test_all_claims_pass(self, claim):
        report = oracle.exhaustive_verify(claim, seed=0, cases=25)
        assert report["claim"] == claim
        assert report["passed"]
        assert report["cases"] > 0

    def test_prac_claim_is_a_proof(self, monkeypatch):
        # every uncertainty check behind the claim enumerates all families
        modes = []
        check = constraints.check_p_uncertainty

        def recording(*args, **kwargs):
            report = check(*args, **kwargs)
            modes.append(report.detail["mode"])
            return report

        monkeypatch.setattr(constraints, "check_p_uncertainty", recording)
        assert oracle.exhaustive_verify("pRAC", cases=20)["passed"]
        assert len(modes) == 20
        assert set(modes) == {"exhaustive"}

    def test_unknown_claim(self):
        with pytest.raises(DomainError):
            oracle.exhaustive_verify("halting-problem")

    @pytest.mark.parametrize("cases", [0, -3])
    def test_no_cases_is_no_pass(self, cases):
        with pytest.raises(DomainError):
            oracle.exhaustive_verify("inclusion", cases=cases)

    def test_counterexample_is_deterministic(self):
        report = oracle.exhaustive_verify("operations-pbox-counterexample")
        assert report["image_margin"] == pytest.approx(-1.0)
        assert set(report["worst_set"]) == {"+1 XI", "+1 IZ"}
        coeffs = {t["pauli"]: t["coeff"] for t in report["witness"]["terms"]}
        assert coeffs == {"XX": 1.0, "XZ": 1.0, "ZX": 1.0, "ZZ": -1.0}
