import itertools
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
    ResourceError,
    ValidationError,
)
from boxworld.pauli import (
    PauliString,
    digit_masks,
    full_support_strings,
    maximal_commuting_sets,
    product_of,
)
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
    _characters,
    _column,
    _marginals,
    _reading_json,
    _setting_keys,
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
        assert s.subset_pauli(range(s.n)).letters() == "XZY"
        assert s.n == 3

    def test_subset_pauli(self):
        s = FiducialSetting((1, 2, 3))
        assert s.subset_pauli([0, 2]).letters() == "XIY"
        assert s.subset_pauli([1]).letters() == "IZI"

    @pytest.mark.parametrize("system", [5, -1])
    def test_subset_pauli_out_of_range(self, system):
        with pytest.raises(DimensionError):
            FiducialSetting((1, 2, 3)).subset_pauli([system])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_labels_are_digits(self, n):
        for setting in all_settings(n):
            assert setting.subset_pauli(range(n)).basis_key() == digit_masks(setting.labels)

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
        assert state.value(x) == 0.5
        assert state.value(-x) == -0.5
        assert state.value(PauliString.identity(1)) == 1.0

    def test_expectation_dimension_mismatch(self):
        state = CoefficientState(1, {(1, 0): 0.5})
        with pytest.raises(DimensionError):
            state.value(PauliString.identity(2))

    def test_expectation_non_hermitian_rejected(self):
        state = CoefficientState(1, {(1, 0): 0.5})
        with pytest.raises(DomainError):
            state.value(PauliString(1, 1, 1, 0))

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
                assert abs(state.value(s) - expected) < 1e-12

    def test_json_round_trip(self):
        state = CoefficientState(2, {(1, 2): -0.5, (3, 3): 0.25})
        text = json.dumps(state.to_json_dict(), sort_keys=True)
        again = CoefficientState.from_json_dict(json.loads(text))
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
        assert abs(joint.value(xz) - u * v) < 1e-12


class TestClifford:
    def test_gate_validation(self):
        with pytest.raises(DomainError):
            CliffordCircuit(1, (("T", (0,)),))
        with pytest.raises(DomainError):
            CliffordCircuit(2, (("CNOT", (1, 1)),))
        with pytest.raises(DimensionError):
            CliffordCircuit(1, (("H", (1,)),))

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

    @pytest.mark.parametrize("n", [1, 2])
    def test_each_gate_alone_matches_dense(self, n):
        singles = [(name, (q,)) for name in ("I", "X", "Y", "Z", "H") for q in range(n)]
        pairs = [("CNOT", pair) for pair in itertools.permutations(range(n), 2)]
        for gate in singles + pairs:
            circuit = CliffordCircuit(n, (gate,))
            u = oracle.dense(circuit)
            for a, b, phase in itertools.product(range(1 << n), range(1 << n), range(4)):
                s = PauliString(n, a, b, phase)
                image = conjugate_pauli(circuit, s)
                assert np.allclose(
                    oracle.dense(image), u @ oracle.dense(s) @ u.conj().T, atol=1e-12
                ), (gate, s.text())

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

    def test_compact_rejects_non_finite_lambda(self):
        with pytest.raises(ValidationError, match="not finite"):
            GnstState.compact(1, float("nan"), (1, 1, 1))

    @pytest.mark.parametrize("check", [True, False])
    def test_table_rejects_non_finite_probabilities(self, check):
        with pytest.raises(ValidationError, match="not finite"):
            GnstState.from_table(1, {(1,): (float("nan"), 0.5)}, check=check)

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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_compact_and_explicit_table_agree_on_every_subset(self, n, rng):
        signs = [int(s) for s in rng.choice((-1, 1), size=3**n)]
        compact = GnstState.compact(n, 0.6, signs)
        table = GnstState.from_table(
            n, {s.labels: compact.probabilities(s) for s in all_settings(n)}
        )
        for setting in all_settings(n):
            for r in range(n + 1):
                for subset in itertools.combinations(range(n), r):
                    assert table.subset_moment(setting, subset) == pytest.approx(
                        compact.subset_moment(setting, subset), abs=1e-12
                    ), (setting.labels, subset)
        assert compact.subset_moment(all_settings(n)[0], ()) == 1.0

    @pytest.mark.parametrize("systems", [(0, 5), (5,), (-1,)])
    def test_subset_moment_rejects_foreign_systems(self, systems):
        compact = GnstState.compact(2, 0.25, tuple([1] * 9))
        for state in (compact, pr_box_state()):
            with pytest.raises(DimensionError):
                state.subset_moment(FiducialSetting((1, 2)), systems)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_subset_moment_reads_one_transform_row(self, n, rng):
        """Each subset moment equals the dot product with its row of the
        full character matrix, to the last bit."""
        settings = [all_settings(n)[i] for i in rng.choice(3**n, size=min(3**n, 3), replace=False)]
        table = {}
        for setting in settings:
            probs = rng.random(1 << n)
            table[setting.labels] = (probs / probs.sum()).tolist()
        state = GnstState.from_table(n, table, check=False)
        characters = _characters(1 << n)
        for setting in settings:
            probs = state.probabilities(setting)
            for column in range(1 << n):
                chosen = [i for i in range(n) if column >> n - 1 - i & 1]
                assert _column(n, chosen) == column
                expected = float(np.dot(probs, characters[column]))
                assert state.subset_moment(setting, chosen) == expected

    def test_subset_moment_rejects_foreign_settings(self):
        for n, labels in ((2, (3, 3, 3)), (3, (3, 3))):
            state = GnstState.compact(n, 0.25, tuple([1] * 3**n))
            with pytest.raises(DimensionError):
                state.subset_moment(FiducialSetting(labels), range(len(labels)))
        with pytest.raises(DimensionError):
            pr_box_state().setting_moment(FiducialSetting((1,)))

    def test_first_setting_violation_is_raised_first(self):
        # (1,) has a negative entry and (2,) sums to 1.2: settings are
        # checked in turn, so (1,)'s positivity is raised before (2,)'s sum.
        table = {(1,): (1.25, -0.25), (2,): (0.6, 0.6), (3,): (0.5, 0.5)}
        with pytest.raises(ValidationError) as caught:
            GnstState.from_table(1, table)
        assert str(caught.value) == "negative probability -0.25 under (1,)"

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

    def test_json_round_trip_both_kinds(self):
        compact = GnstState.compact(1, 0.5, (1, -1, 1))
        box = pr_box_state()
        for state in (compact, box):
            text = json.dumps(state.to_json_dict(), sort_keys=True)
            assert GnstState.from_json_dict(json.loads(text)) == state

    def test_marginalize_pr_box_is_unbiased(self):
        single = marginalize(pr_box_state(), [0])
        assert single.n == 1
        for labels in ((1,), (2,)):
            if FiducialSetting(labels) in single.settings():
                assert abs(single.setting_moment(FiducialSetting(labels))) < 1e-12

    def test_marginalize_validates_systems(self):
        with pytest.raises(DomainError):
            marginalize(pr_box_state(), [])
        with pytest.raises(DimensionError):
            marginalize(pr_box_state(), [3])


def reference_marginals(state, keep):
    """Each setting's marginal on ``keep`` by the oracle's Python sum,
    its source's index and its largest entrywise difference from it."""
    settings = state.settings()
    marginals = [oracle.marginal_vector(state.probabilities(s), state.n, keep) for s in settings]
    first = {}
    for i, setting in enumerate(settings):
        source = first.setdefault(tuple(setting.labels[j] for j in keep), i)
        deviation = max(abs(x - y) for x, y in zip(marginals[i], marginals[source]))
        yield marginals[i], source, deviation


def random_tables(n, rng):
    """Signaling and non-signaling tables on all settings and on random
    subsets of them."""
    settings = [s.labels for s in all_settings(n)]
    # Non-signaling: system i answers label k with +1 at rate[i, k], alone.
    rate = rng.uniform(0.0, 1.0, (n, 4))
    product = {
        labels: [
            math.prod(rate[i, k] if o > 0 else 1 - rate[i, k] for i, k, o in zip(range(n), labels, out))
            for out in all_outcomes(n)
        ]
        for labels in settings
    }
    code = GnstState.compact(n, 0.7, rng.choice([-1, 1], 3**n).tolist())
    correlated = {s.labels: code.probabilities(s) for s in code.settings()}
    signaling = {labels: rng.dirichlet(np.ones(2**n)) for labels in settings}
    for table in (product, correlated, signaling):
        yield table
        chosen = rng.choice(len(settings), int(rng.integers(1, len(settings) + 1)), replace=False)
        yield {settings[i]: table[settings[i]] for i in sorted(chosen)}


class TestMarginals:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_routine_matches_the_python_sum(self, n, rng):
        keeps = [k for r in range(1, n + 1) for k in itertools.combinations(range(n), r)]
        for table in random_tables(n, rng):
            state = GnstState.from_table(n, table, check=False)
            for keep, (marginals, source, deviation) in zip(keeps, _marginals(state, keeps)):
                expected = list(reference_marginals(state, keep))
                assert marginals.tolist() == [list(m) for m, _, _ in expected]
                assert source.tolist() == [s for _, s, _ in expected]
                assert deviation.tolist() == [d for _, _, d in expected]

    def test_signaling_order(self):
        """The check raises at the first violation in (keep, setting)
        order; the report names the first largest one."""
        uniform = [1 / 8] * 8
        # (1, 1, 2) and (1, 1, 3) bias system 0: 0.05 and 0.1 on keep (0,).
        biased = [(0.55 if a > 0 else 0.45) / 4 for a, _, _ in all_outcomes(3)]
        more = [(0.6 if a > 0 else 0.4) / 4 for a, _, _ in all_outcomes(3)]
        # (2, 1, 1) and (3, 1, 1) correlate systems 1 and 2: 0.2 on keep (1, 2).
        correlated = [(1 + 0.8 * b * c) / 8 for _, b, c in all_outcomes(3)]
        table = {
            (1, 1, 1): uniform,
            (1, 1, 2): biased,
            (1, 1, 3): more,
            (2, 1, 1): correlated,
            (3, 1, 1): correlated,
        }
        pair = r"differs between settings \(1, 1, 1\) and \(1, 1, 2\)"
        with pytest.raises(NoSignalingError, match=r"systems \(0,\) " + pair):
            GnstState.from_table(3, table)
        state = GnstState.from_table(3, table, check=False)
        with pytest.raises(NoSignalingError, match=r"systems \[0\] " + pair):
            marginalize(state, [0])
        worst = r"systems \[1, 2\] differs between settings \(1, 1, 1\) and \(2, 1, 1\)"
        with pytest.raises(NoSignalingError, match=worst):
            marginalize(state, [2, 1])
        checks = {c["constraint"]: c for c in validate_gnst(state).detail["checks"]}
        for name, margin in (("no-signaling", -0.2), ("overlap-consistency", -0.8)):
            assert checks[name]["worst_set"] == ["(1, 1, 1)", "(2, 1, 1)"]
            assert checks[name]["margin"] == pytest.approx(margin)

    def test_marginalize_compact_code(self):
        code = GnstState.compact(3, 5**-0.5, [(-1) ** i for i in range(27)])
        pair = marginalize(code, [2, 0])
        assert [s.labels for s in pair.settings()] == [s.labels for s in all_settings(2)]
        for setting in code.settings():
            labels = (setting.labels[0], setting.labels[2])
            expected = oracle.marginal_vector(code.probabilities(setting), 3, [0, 2])
            assert pair.probabilities(FiducialSetting(labels)) == expected
            assert expected == pytest.approx([0.25] * 4, abs=1e-15)

    @pytest.mark.parametrize("keep", [[0], [1, 2], [0, 2], [0, 1, 2]])
    def test_marginalize_partial_table(self, keep, rng):
        product, *_ = random_tables(3, rng)
        settings = [all_settings(3)[i] for i in rng.choice(27, 12, replace=False)]
        state = GnstState.from_table(3, {s.labels: product[s.labels] for s in settings})
        marginal = marginalize(state, keep)
        first = {}
        for setting in state.settings():
            sub = tuple(setting.labels[j] for j in keep)
            first.setdefault(sub, oracle.marginal_vector(state.probabilities(setting), 3, keep))
        assert {s.labels: marginal.probabilities(s) for s in marginal.settings()} == first

    @pytest.mark.parametrize("keep", [[0], [1, 2], [0, 2]])
    def test_marginalize_builds_its_result_unchecked(self, keep, rng, monkeypatch):
        product, *_ = random_tables(3, rng)
        state = GnstState.from_table(3, product)
        checked = []
        monkeypatch.setattr(GnstState, "_validate", lambda self, tol: checked.append(self))
        marginal = marginalize(state, keep)
        assert checked == []
        monkeypatch.undo()
        table = {s.labels: marginal.probabilities(s) for s in marginal.settings()}
        assert marginal == GnstState.from_table(len(keep), table)

    def test_marginalize_keeps_an_unchecked_table_as_it_is(self):
        state = GnstState.from_table(2, {(1, 1): (0.5, 0.0, 0.0, 0.6)}, check=False)
        marginal = marginalize(state, [0])
        assert marginal.probabilities(FiducialSetting((1,))) == (0.5, 0.6)
        with pytest.raises(ValidationError, match=r"probabilities for \(1,\) sum to 1.1"):
            GnstState.from_table(1, {(1,): (0.5, 0.6)})


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

    def test_rejects_keys_beyond_the_system_count(self):
        with pytest.raises(DimensionError):
            MomentTable(2, {(4, 0): 0.9})
        with pytest.raises(DimensionError):
            MomentTable(1, {(0, 2): 0.9}, strict=False)

    def test_rejects_the_identity_key(self):
        with pytest.raises(ValidationError):
            MomentTable(1, {(0, 0): -1.0})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_values(self, bad):
        """NaN passes every ``x > bound`` test, so it is refused outright."""
        with pytest.raises(ValidationError, match="not finite"):
            MomentTable(1, {(0, 1): bad})
        with pytest.raises(ValidationError, match="not finite"):
            CoefficientState(1, {(1, 0): bad})

    def test_from_coefficient_state(self):
        """A coefficient state is the lenient table of its coefficients."""
        coefficients = {(1, 0): 0.5, (2, 2): -0.25}
        state = CoefficientState(2, coefficients)
        assert isinstance(state, MomentTable)
        assert not state.strict
        table = MomentTable(2, coefficients, strict=False)
        assert state.keys() == table.keys()
        assert np.array_equal(state.vector(), table.vector())
        for s, coeff in state.terms():
            assert state.value(s) == coeff

    def test_vector_is_cached_and_read_only(self):
        for table in (
            MomentTable(2, {(1, 0): 0.5, (2, 3): -0.25}),
            MomentTable(2, {(1, 0): 0.5}, strict=False),
        ):
            vector = table.vector()
            assert table.vector() is vector
            assert not vector.flags.writeable
            with pytest.raises(ValueError):
                vector[1] = 0.0
            assert vector[1] == 0.5

    def test_vector_converts_every_value_to_float64(self):
        table = MomentTable(1, {(1, 0): 1, (0, 1): np.float32(0.5), (1, 1): -(10**20)}, strict=False)
        vector = table.vector()
        assert vector.dtype == np.float64
        assert vector.tolist() == [1.0, 1.0, 0.5, -1e20]
        strict = MomentTable(2, {(3, 1): True})
        assert np.array_equal(strict.vector(), [1.0] + [np.nan] * 6 + [1.0] + [np.nan] * 8, equal_nan=True)

    def test_vector_sees_the_coefficients_after_construction(self):
        """Zeros are dropped after the table is set up, so the vector is
        built on first use, not during construction."""
        state = CoefficientState(1, {(1, 0): 0.0, (0, 1): 0.5, (1, 1): -0.0})
        assert state.keys() == ((0, 1),)
        assert state.vector().tolist() == [1.0, 0.0, 0.5, 0.0]

    @pytest.mark.parametrize(
        "build",
        [
            lambda: MomentTable(-2, {}),
            lambda: MomentTable(0, {}, strict=False),
            lambda: CoefficientState(-1, {}),
            lambda: CoefficientState(0, {}),
            lambda: GnstState.compact(0, 1.0, [1]),
        ],
    )
    def test_system_count_below_one(self, build):
        with pytest.raises(DomainError, match="at least one system"):
            build()


class TestStateJson:
    """Malformed state JSON raises ValidationError naming the key or value;
    the package's own errors keep their type and text."""

    @pytest.mark.parametrize(
        "data, error, message",
        [
            ({"kind": "coeff", "n": 2}, ValidationError, "lacks the key 'terms'"),
            ({"kind": "coeff", "n": 1, "terms": [{"pauli": "X"}]}, ValidationError, "key 'coeff'"),
            ({"kind": "coeff", "n": "two", "terms": []}, ValidationError, "'two'"),
            ({"kind": "coeff", "n": 1, "terms": 5}, ValidationError, "not iterable"),
            ({"kind": "gnst", "n": 1, "lambda": "x", "signs": [1, 1, 1]}, ValidationError, "'x'"),
            ({"kind": "gnst", "n": 1, "lambda": 0.5}, ValidationError, "lacks the key 'signs'"),
            ({"kind": "gnst-table", "n": 1, "settings": [{"k": [1]}]}, ValidationError, "key 'p'"),
            ({"kind": "coeff", "n": -1, "terms": []}, DomainError, "at least one system"),
            ({"kind": "gnst", "n": 0, "lambda": 1.0, "signs": [1]}, DomainError, "one system"),
            ({"kind": "coeff", "n": 1, "terms": [{"pauli": "Q", "coeff": 1}]}, DomainError, "'Q'"),
            (
                {"kind": "coeff", "n": 2, "terms": [{"pauli": "X", "coeff": 1}]},
                DimensionError,
                "term length",
            ),
            (
                {"kind": "gnst-table", "n": 1, "settings": [{"k": [4], "p": [1]}]},
                DomainError,
                "labels must lie",
            ),
        ],
    )
    def test_from_json_dict_errors(self, data, error, message):
        cls = CoefficientState if data["kind"] == "coeff" else GnstState
        with pytest.raises(error, match=message) as info:
            cls.from_json_dict(data)
        assert type(info.value) is error

    @pytest.mark.parametrize("error", [IncompleteMomentError, NoSignalingError, DomainError])
    def test_reader_keeps_key_and_value_error_subclasses(self, error):
        with pytest.raises(error, match="^'?kept'?$") as info:
            with _reading_json():
                raise error("kept")
        assert type(info.value) is error


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
        moments = [state.value(setting.subset_pauli(c)) for c in subsets]
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

    def test_compact_keys_are_kept_per_n(self):
        assert _setting_keys(3) is _setting_keys(3)
        assert _setting_keys(2) == tuple(digit_masks(s.labels) for s in all_settings(2))
        assert 0 < _setting_keys.cache_info().maxsize <= 16

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_compact_keys_are_setting_strings(self, n, rng):
        signs = [int(s) for s in rng.choice((-1, 1), size=3**n)]
        table = moments_from_probabilities(GnstState.compact(n, 0.375, signs))
        assert not table.strict
        strings = [s.subset_pauli(range(n)) for s in all_settings(n)]
        assert table.keys() == tuple(sorted(s.basis_key() for s in strings))
        for string, sign in zip(strings, signs):
            assert table.value(string) == sign * 0.375

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_inversion_matches_loop_formula(self, m, rng):
        collections = maximal_commuting_sets(3)
        for _ in range(10):
            table = oracle.random_quantum_state(3, rng)
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
            moments_from_probabilities(
                GnstState.from_table(2, {(1, 1): (0.5, 0.0, 0.0, 0.6)}, check=False)
            )
        assert str(caught.value) == "probabilities for (1, 1) sum to 1.1"

    def test_empty_mapping_rejected(self):
        with pytest.raises(ValidationError, match="needs at least one setting"):
            moments_from_probabilities(GnstState.from_table(1, {}, check=False))


class TestFullSupportConsistency:
    def test_setting_paulis_enumerate_full_support(self):
        settings = [s.subset_pauli(range(2)).letters() for s in all_settings(2)]
        full = [s.letters() for s in full_support_strings(2)]
        assert settings == full
