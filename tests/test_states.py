import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxworld import oracle
from boxworld.constraints import validate_gnst
from boxworld.errors import (
    DimensionError,
    DomainError,
    IncompleteMomentError,
    InconsistencyError,
    NoSignalingError,
    ValidationError,
)
from boxworld.pauli import PauliString, full_support_strings
from boxworld.states import (
    CliffordCircuit,
    CoefficientState,
    FiducialSetting,
    GnstState,
    MomentTable,
    all_outcomes,
    all_settings,
    apply_clifford,
    conjugate_pauli,
    marginalize,
    moments_from_probabilities,
    outcome_product,
    pr_box_state,
    probabilities_from_moments,
    tensor_product,
)


def random_state(rng, n, scale=0.3, count=4):
    keys = {}
    for _ in range(count):
        a = int(rng.integers(0, 2**n))
        b = int(rng.integers(0, 2**n))
        if a == b == 0:
            continue
        keys[(a, b)] = float(rng.uniform(-scale, scale))
    return CoefficientState(n, keys)


class TestOutcomes:
    def test_all_outcomes_order(self):
        assert list(all_outcomes(1)) == [(1,), (-1,)]
        assert list(all_outcomes(2))[:2] == [(1, 1), (1, -1)]
        assert len(list(all_outcomes(3))) == 8

    def test_outcome_product(self):
        assert outcome_product((1, -1, -1)) == 1
        assert outcome_product((-1, 1, 1)) == -1


class TestFiducialSetting:
    def test_labels_validated(self):
        with pytest.raises(DomainError):
            FiducialSetting((0, 1))
        with pytest.raises(DomainError):
            FiducialSetting((4,))

    def test_pauli_letters(self):
        s = FiducialSetting((1, 2, 3))
        assert s.pauli().letters() == "XZY"
        assert s.n == 3

    def test_subset_pauli(self):
        s = FiducialSetting((1, 2, 3))
        assert s.subset_pauli([0, 2]).letters() == "XIY"
        assert s.subset_pauli([1]).letters() == "IZI"

    def test_all_settings_lexicographic(self):
        labels = [s.labels for s in all_settings(2)]
        assert labels[:4] == [(1, 1), (1, 2), (1, 3), (2, 1)]
        assert len(labels) == 9

    def test_all_settings_is_cached(self):
        assert all_settings(3) is all_settings(3)
        assert all_settings.cache_info().maxsize is not None

    def test_all_settings_follow_compact_sign_order(self):
        state = GnstState.compact(3, 1.0, [1] * 27)
        positions = [state._setting_index(s) for s in all_settings(3)]
        assert positions == list(range(27))

    def test_setting_has_slots(self):
        s = FiducialSetting((1, 2))
        assert not hasattr(s, "__dict__")
        with pytest.raises(AttributeError):
            s.labels = (2, 1)


class TestCoefficientState:
    def test_identity_key_rejected(self):
        with pytest.raises(ValidationError):
            CoefficientState(1, {(0, 0): 0.5})

    def test_magnitude_capped(self):
        with pytest.raises(ValidationError):
            CoefficientState(1, {(1, 0): 1.5})

    def test_zero_coefficients_dropped(self):
        state = CoefficientState(1, {(1, 0): 0.0, (0, 1): 0.25})
        assert state.keys() == ((0, 1),)
        assert state.coefficient(1, 0) == 0.0

    def test_full_support_needs_every_key_on_all_systems(self):
        assert CoefficientState(2, {(3, 0): 0.5, (1, 2): 0.5}).has_full_support
        assert not CoefficientState(2, {(3, 0): 0.5, (1, 0): 0.5}).has_full_support
        assert not CoefficientState(2, {}).has_full_support

    def test_expectation_reads_coefficients(self):
        state = CoefficientState(1, {(1, 0): 0.5})
        x = PauliString.single(1, 0, "X")
        assert state.expectation(x) == 0.5
        assert state.expectation(-x) == -0.5
        assert state.expectation(PauliString.identity(1)) == 1.0

    def test_expectation_dimension_mismatch(self):
        state = CoefficientState(1, {(1, 0): 0.5})
        with pytest.raises(DimensionError):
            state.expectation(PauliString.identity(2))

    def test_expectation_non_hermitian_rejected(self):
        state = CoefficientState(1, {(1, 0): 0.5})
        with pytest.raises(DomainError):
            state.expectation(PauliString(1, 1, 1, 0))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_expectation_matches_dense_trace(self, rng, n):
        for _ in range(20):
            state = random_state(rng, n)
            rho = oracle.dense(state)
            for s in [
                PauliString.hermitian(
                    n, int(rng.integers(0, 2**n)), int(rng.integers(0, 2**n))
                )
                for _ in range(6)
            ]:
                expected = float(np.trace(oracle.dense(s) @ rho).real)
                assert abs(state.expectation(s) - expected) < 1e-12

    def test_json_round_trip(self):
        state = CoefficientState(2, {(1, 2): -0.5, (3, 3): 0.25})
        again = CoefficientState.from_json(state.to_json())
        assert again == state
        data = state.to_json_dict()
        assert data["kind"] == "coeff"

    def test_from_json_rejects_other_kinds(self):
        with pytest.raises(ValidationError):
            CoefficientState.from_json_dict({"kind": "gnst", "n": 1})


class TestTensorProduct:
    def test_system_counts_add(self):
        left = CoefficientState(1, {(1, 0): 0.5})
        right = CoefficientState(2, {(1, 1): 0.5})
        joint = tensor_product(left, right)
        assert joint.n == 3

    def test_first_factor_is_leftmost(self):
        left = CoefficientState(1, {(1, 0): 0.5})
        right = CoefficientState(1, {(0, 1): 0.5})
        joint = tensor_product(left, right)
        terms = {s.letters(): v for s, v in joint.terms()}
        assert terms == {"XI": 0.5, "IZ": 0.5, "XZ": 0.25}

    def test_matches_dense_kron(self, rng):
        for _ in range(15):
            left = random_state(rng, 1)
            right = random_state(rng, 2)
            joint = tensor_product(left, right)
            direct = oracle.dense(joint)
            kron = np.kron(oracle.dense(left), oracle.dense(right))
            assert np.allclose(direct, kron, atol=1e-12)

    @given(st.floats(0.05, 0.45), st.floats(0.05, 0.45))
    def test_expectation_multiplies(self, u, v):
        left = CoefficientState(1, {(1, 0): u})
        right = CoefficientState(1, {(0, 1): v})
        joint = tensor_product(left, right)
        xz = PauliString.from_text("XZ")
        assert abs(joint.expectation(xz) - u * v) < 1e-12


class TestClifford:
    def test_gate_validation(self):
        with pytest.raises(DomainError):
            CliffordCircuit(1, (("T", (0,)),))
        with pytest.raises(DomainError):
            CliffordCircuit(2, (("CNOT", (1, 1)),))
        with pytest.raises(DimensionError):
            CliffordCircuit(1, (("H", (1,)),))

    def test_from_ops(self):
        circuit = CliffordCircuit.from_ops(2, ("H", 0), ("CNOT", 0, 1))
        assert circuit.gates == (("H", (0,)), ("CNOT", (0, 1)))

    def test_known_cnot_images(self):
        cnot = CliffordCircuit(2, (("CNOT", (0, 1)),))
        assert conjugate_pauli(cnot, PauliString.from_text("XI")).letters() == "XX"
        assert conjugate_pauli(cnot, PauliString.from_text("IZ")).letters() == "ZZ"
        assert conjugate_pauli(cnot, PauliString.from_text("IX")).letters() == "IX"
        assert conjugate_pauli(cnot, PauliString.from_text("ZI")).letters() == "ZI"

    def test_hadamard_swaps_x_and_z(self):
        h = CliffordCircuit(1, (("H", (0,)),))
        assert conjugate_pauli(h, PauliString.from_text("X")).letters() == "Z"
        y_image = conjugate_pauli(h, PauliString.from_text("Y"))
        assert y_image.letters() == "Y"
        assert y_image.hermitian_sign() == -1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_conjugation_matches_dense(self, rng, n):
        for _ in range(10):
            circuit = oracle.random_circuit(n, rng, length=6)
            u = oracle.dense(circuit)
            s = PauliString.hermitian(
                n, int(rng.integers(0, 2**n)), int(rng.integers(0, 2**n))
            )
            image = conjugate_pauli(circuit, s)
            assert np.allclose(
                oracle.dense(image), u @ oracle.dense(s) @ u.conj().T, atol=1e-10
            )

    def test_apply_clifford_matches_dense(self, rng):
        for n in (1, 2):
            for _ in range(10):
                state = random_state(rng, n)
                circuit = oracle.random_circuit(n, rng, length=6)
                u = oracle.dense(circuit)
                image = apply_clifford(circuit, state)
                assert np.allclose(
                    oracle.dense(image), u @ oracle.dense(state) @ u.conj().T, atol=1e-10
                )


class TestGnstState:
    def test_direct_construction_blocked(self):
        with pytest.raises(TypeError):
            GnstState(1, {})

    def test_compact_shape(self):
        state = GnstState.compact(1, 0.5, (1, -1, 1))
        assert state.is_compact
        assert state.lam == 0.5
        assert len(state.settings()) == 3

    def test_compact_sign_length_checked(self):
        with pytest.raises(ValidationError):
            GnstState.compact(1, 0.5, (1, -1))
        with pytest.raises(ValidationError):
            GnstState.compact(1, 0.5, (1, -1, 2))
        with pytest.raises(ValidationError):
            GnstState.compact(1, 1.5, (1, -1, 1))

    def test_compact_probabilities(self):
        state = GnstState.compact(1, 0.5, (1, -1, 1))
        probs = state.probabilities(FiducialSetting((1,)))
        assert probs == (0.75, 0.25)
        probs = state.probabilities(FiducialSetting((2,)))
        assert probs == (0.25, 0.75)

    def test_compact_subset_moments(self):
        state = GnstState.compact(2, 0.25, tuple([1] * 9))
        setting = FiducialSetting((1, 2))
        assert state.subset_moment(setting, (0, 1)) == 0.25
        assert state.subset_moment(setting, (0,)) == 0.0
        assert state.setting_moment(setting) == 0.25

    def test_from_table_requires_complete_vectors(self):
        with pytest.raises(ValidationError):
            GnstState.from_table(1, {(1,): (0.6, 0.3)})

    def test_from_table_flags_signaling(self):
        table = {
            (1, 1): (0.5, 0.0, 0.0, 0.5),
            (1, 2): (0.9, 0.0, 0.0, 0.1),
        }
        pair = r"differs between settings \(1, 1\) and \(1, 2\)"
        with pytest.raises(NoSignalingError, match=r"systems \(0,\) " + pair):
            GnstState.from_table(2, table)
        # marginalize and validate_gnst name the same pair of settings
        state = GnstState.from_table(2, table, check=False)
        with pytest.raises(NoSignalingError, match=r"systems \[0\] " + pair):
            marginalize(state, [0])
        checks = validate_gnst(state).detail["checks"]
        signaling = next(c for c in checks if c["constraint"] == "no-signaling")
        assert signaling["worst_set"] == ["(1, 1)", "(1, 2)"]
        assert signaling["margin"] == pytest.approx(-0.4)

    def test_pr_box_moments(self):
        box = pr_box_state()
        assert box.setting_moment(FiducialSetting((1, 1))) == 1.0
        assert box.setting_moment(FiducialSetting((2, 2))) == -1.0
        assert box.subset_moment(FiducialSetting((1, 1)), (0,)) == 0.0

    def test_has_setting(self):
        box = pr_box_state()
        assert box.has_setting(FiducialSetting((1, 2)))
        assert not box.has_setting(FiducialSetting((3, 3)))

    def test_json_round_trip_both_kinds(self):
        compact = GnstState.compact(1, 0.5, (1, -1, 1))
        assert GnstState.from_json(compact.to_json()) == compact
        box = pr_box_state()
        assert GnstState.from_json(box.to_json()) == box

    def test_marginalize_pr_box_is_unbiased(self):
        single = marginalize(pr_box_state(), [0])
        assert single.n == 1
        for labels in ((1,), (2,)):
            if single.has_setting(FiducialSetting(labels)):
                assert abs(single.setting_moment(FiducialSetting(labels))) < 1e-12

    def test_marginalize_validates_systems(self):
        with pytest.raises(DomainError):
            marginalize(pr_box_state(), [])
        with pytest.raises(DimensionError):
            marginalize(pr_box_state(), [3])


class TestMomentTable:
    def test_strict_lookup(self):
        table = MomentTable(1, {(1, 0): 0.5})
        x = PauliString.single(1, 0, "X")
        assert table.value(x) == 0.5
        assert table.value(-x) == -0.5
        with pytest.raises(IncompleteMomentError):
            table.value(PauliString.single(1, 0, "Z"))

    def test_lenient_lookup(self):
        table = MomentTable(1, {(1, 0): 0.5}, strict=False)
        assert table.value(PauliString.single(1, 0, "Z")) == 0.0

    def test_identity_always_one(self):
        table = MomentTable(1, {})
        ident = PauliString.identity(1)
        assert table.value(ident) == 1.0
        assert table.value(-ident) == -1.0

    def test_value_of_collection_requires_commuting(self):
        table = MomentTable(1, {}, strict=False)
        x = PauliString.single(1, 0, "X")
        z = PauliString.single(1, 0, "Z")
        with pytest.raises(DomainError):
            table.value_of_collection([x, z])

    def test_rejects_keys_beyond_the_system_count(self):
        with pytest.raises(DimensionError):
            MomentTable(2, {(4, 0): 0.9})
        with pytest.raises(DimensionError):
            MomentTable(1, {(0, 2): 0.9}, strict=False)

    def test_rejects_the_identity_key(self):
        with pytest.raises(ValidationError):
            MomentTable(1, {(0, 0): -1.0})

    def test_from_coefficient_state(self):
        state = CoefficientState(2, {(1, 0): 0.5, (2, 2): -0.25})
        table = MomentTable.from_coefficient_state(state)
        assert not table.strict
        for s, coeff in state.terms():
            assert table.value(s) == coeff


class TestMomentConversions:
    def test_pr_box_moment_table(self):
        table = moments_from_probabilities(pr_box_state())
        assert table.value(PauliString.from_text("XX")) == 1.0
        assert table.value(PauliString.from_text("ZZ")) == -1.0
        assert table.value(PauliString.from_text("XI")) == 0.0

    def test_compact_state_moment_table(self):
        state = GnstState.compact(1, 0.25, (1, 1, -1))
        table = moments_from_probabilities(state)
        assert table.value(PauliString.from_text("X")) == 0.25
        assert table.value(PauliString.from_text("Y")) == -0.25

    def test_probabilities_round_trip(self):
        table = moments_from_probabilities(pr_box_state())
        collection = [PauliString.from_text("XI"), PauliString.from_text("IX")]
        probs = probabilities_from_moments(table, collection)
        assert abs(probs[(1, 1)] - 0.5) < 1e-12
        assert abs(probs[(1, -1)]) < 1e-12
        assert abs(sum(probs.values()) - 1.0) < 1e-12

    def test_probabilities_need_full_moments(self):
        table = MomentTable(2, {(1, 0): 0.5})
        collection = [PauliString.from_text("XI"), PauliString.from_text("IX")]
        with pytest.raises(IncompleteMomentError):
            probabilities_from_moments(table, collection)

    def test_inconsistent_moments_flagged(self):
        table = MomentTable(1, {(1, 0): 1.5})
        with pytest.raises(InconsistencyError):
            probabilities_from_moments(table, [PauliString.single(1, 0, "X")])

    def test_noncommuting_collection_rejected(self):
        table = MomentTable(1, {(1, 0): 0.5, (0, 1): 0.5}, strict=False)
        with pytest.raises(DomainError):
            probabilities_from_moments(
                table,
                [PauliString.single(1, 0, "X"), PauliString.single(1, 0, "Z")],
            )


class TestFullSupportConsistency:
    def test_setting_paulis_enumerate_full_support(self):
        settings = [s.pauli().letters() for s in all_settings(2)]
        full = [s.letters() for s in full_support_strings(2)]
        assert settings == full
