import itertools

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
    ResourceError,
    ValidationError,
)
from boxworld.pauli import PauliString, full_support_strings, maximal_commuting_sets, product_of
from boxworld.states import (
    MAX_COLLECTION_SIZE,
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

    @pytest.mark.parametrize("systems", [(0, 5), (5,), (-1,)])
    def test_subset_moment_rejects_foreign_systems(self, systems):
        compact = GnstState.compact(2, 0.25, tuple([1] * 9))
        for state in (compact, pr_box_state()):
            with pytest.raises(DimensionError):
                state.subset_moment(FiducialSetting((1, 2)), systems)

    def test_subset_moment_rejects_foreign_settings(self):
        for n, labels in ((2, (3, 3, 3)), (3, (3, 3))):
            state = GnstState.compact(n, 0.25, tuple([1] * 3**n))
            with pytest.raises(DimensionError):
                state.subset_moment(FiducialSetting(labels), range(len(labels)))
        with pytest.raises(DimensionError):
            pr_box_state().setting_moment(FiducialSetting((1,)))

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


def quantum_table(state, settings):
    """A quantum state's outcome table under ``settings``: each outcome
    has probability 2**-n times the sum, over subsets of systems, of the
    subset string's expectation times the subset's outcome product."""
    n = state.n
    subsets = [c for r in range(n + 1) for c in itertools.combinations(range(n), r)]
    table = {}
    for setting in settings:
        moments = [state.expectation(setting.subset_pauli(c)) for c in subsets]
        table[setting.labels] = [
            sum(m * outcome_product([o[i] for i in c]) for m, c in zip(moments, subsets)) / 2**n
            for o in all_outcomes(n)
        ]
    return GnstState.from_table(n, table)


def loop_probabilities(moments, collection):
    """The inversion as a double loop over outcomes and member subsets,
    member i in bit i of a subset mask."""
    m = len(collection)
    subset_values = []
    for mask in range(1 << m):
        members = [collection[i] for i in range(m) if mask >> i & 1]
        subset_values.append(moments.value(product_of(members, n=moments.n)))
    result = {}
    for outcome in itertools.product((1, -1), repeat=m):
        total = 0.0
        for mask, mu in enumerate(subset_values):
            weight = 1
            for i in range(m):
                if mask >> i & 1:
                    weight *= outcome[i]
            total += mu * weight
        result[outcome] = total / (1 << m)
    return result


class TestMomentTransform:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_table_moments_match_oracle(self, n, rng):
        settings = all_settings(n)
        quantum = oracle.random_quantum_state(n, rng)
        half = sorted(rng.choice(len(settings), size=max(1, len(settings) // 2), replace=False))
        corpus = [quantum_table(quantum, settings), quantum_table(quantum, [settings[i] for i in half])]
        if n == 2:
            corpus.append(pr_box_state())
        for state in corpus:
            table = moments_from_probabilities(state)
            assert table.strict
            keys = set()
            for setting in state.settings():
                # Entry k of the oracle's vector is the moment over the
                # systems i whose bit n - 1 - i is set in k.
                mu = oracle.subset_moment_vector(state.probabilities(setting), n)
                for r in range(1, n + 1):
                    for subset in itertools.combinations(range(n), r):
                        string = setting.subset_pauli(subset)
                        keys.add(string.basis_key())
                        expected = mu[sum(1 << n - 1 - i for i in subset)]
                        assert abs(table.value(string) - expected) <= 1e-15
                        assert abs(state.subset_moment(setting, subset) - expected) <= 1e-15
            assert set(table.keys()) == keys

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_compact_keys_are_setting_strings(self, n, rng):
        signs = [int(s) for s in rng.choice((-1, 1), size=3**n)]
        table = moments_from_probabilities(GnstState.compact(n, 0.375, signs))
        assert not table.strict
        assert table.keys() == tuple(sorted(s.pauli().basis_key() for s in all_settings(n)))
        for setting, sign in zip(all_settings(n), signs):
            assert table.value(setting.pauli()) == sign * 0.375

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_inversion_matches_loop_formula(self, m, rng):
        collections = maximal_commuting_sets(3)
        for _ in range(10):
            table = MomentTable.from_coefficient_state(oracle.random_quantum_state(3, rng))
            members = collections[int(rng.integers(len(collections)))]
            collection = [
                members[i] if rng.integers(2) else -members[i]
                for i in rng.choice(len(members), size=m, replace=False)
            ]
            expected = loop_probabilities(table, collection)
            probs = probabilities_from_moments(table, collection)
            assert list(probs) == list(expected)
            assert max(abs(probs[o] - expected[o]) for o in probs) <= 1e-15

    def test_inversion_size_gate(self):
        n = MAX_COLLECTION_SIZE + 1
        table = MomentTable(n, {}, strict=False)
        with pytest.raises(ResourceError):
            probabilities_from_moments(table, [PauliString.single(n, i, "Z") for i in range(n)])

    @pytest.mark.parametrize(
        "n, probs, message",
        [
            (
                2,
                {(1, 1): (0.5, 0.5, 0.0, 0.0), (1, 2): (0.25,) * 4, (2, 1): (0.25,) * 4},
                "moment of XI is 1.0 under setting (1, 1) but 0.0 under (1, 2)",
            ),
            (
                3,
                {(2, 3, 1): [0.125] * 8, (1, 3, 1): [0.25, 0.0, 0.25, 0.0] * 2},
                "moment of IIX is 1.0 under setting (1, 3, 1) but 0.0 under (2, 3, 1)",
            ),
        ],
    )
    def test_conflict_names_the_first_pair(self, n, probs, message):
        state = GnstState.from_table(n, probs, check=False)
        with pytest.raises(ValidationError) as caught:
            moments_from_probabilities(state)
        assert str(caught.value) == message

    def test_unnormalized_table_rejected(self):
        with pytest.raises(ValidationError) as caught:
            moments_from_probabilities({(1, 1): (0.5, 0.0, 0.0, 0.6)})
        assert str(caught.value) == "probabilities for (1, 1) sum to 1.1"

    def test_empty_mapping_rejected(self):
        with pytest.raises(ValidationError, match="needs at least one setting"):
            moments_from_probabilities({})


class TestFullSupportConsistency:
    def test_setting_paulis_enumerate_full_support(self):
        settings = [s.pauli().letters() for s in all_settings(2)]
        full = [s.letters() for s in full_support_strings(2)]
        assert settings == full
