import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxworld import constraints, oracle
from boxworld.constraints import (
    MAX_COLLECTION_SIZE,
    check_commuting_moments,
    check_local_moments,
    check_p_uncertainty,
    check_psd,
    classify_state,
    collection_moment_vector,
    disjoint_support_collections,
    maximal_commuting_sets,
    moment_matrix,
    two_measurement_eigenvalues,
    two_measurement_moment_matrix,
    two_measurement_sylvester,
    uncertainty_margin,
    validate_exponent,
    validate_gnst,
)
from boxworld.errors import DomainError, IncompleteMomentError, ResourceError
from boxworld.pauli import (
    PauliString,
    commutes,
    maximal_anticommuting_sets,
    pauli_product,
    product_of,
)
from boxworld.rac import rac_encode_pbin, rac_encode_pgnst
from boxworld.states import (
    DEFAULT_TOL,
    CliffordCircuit,
    CoefficientState,
    GnstState,
    MomentTable,
    all_settings,
    apply_clifford,
    moments_from_probabilities,
    pr_box_state,
)

unit = st.floats(-1.0, 1.0, allow_nan=False)


class TestExponent:
    def test_accepts_one_and_infinity(self):
        assert validate_exponent(1) == 1.0
        assert validate_exponent(math.inf) == math.inf

    @pytest.mark.parametrize("bad", [0.5, 0, -1, math.nan])
    def test_rejects_below_one(self, bad):
        with pytest.raises(DomainError):
            validate_exponent(bad)


def canonical_margin(state, p):
    """1 - the worst power sum over the canonical families, the search
    beyond four systems, at any n."""
    table = constraints._moment_table(state)
    families = constraints._canonical_families(table.n)
    return 1.0 - max(sum(abs(table.value(s)) ** p for s in f) for f in families)


class TestUncertainty:
    def test_single_string_saturates(self):
        state = CoefficientState(1, {(1, 0): 1.0})
        report = check_p_uncertainty(state, 2)
        assert report.passed
        assert abs(report.margin) < 1e-12

    def test_two_full_moments_violate(self):
        state = CoefficientState(1, {(1, 0): 1.0, (0, 1): 1.0})
        report = check_p_uncertainty(state, 2)
        assert not report.passed
        assert report.margin == pytest.approx(-1.0)
        assert "+1 X" in report.worst_set and "+1 Z" in report.worst_set

    def test_infinite_p_checks_each_string(self):
        state = CoefficientState(1, {(1, 0): 0.9, (0, 1): 0.9})
        report = check_p_uncertainty(state, math.inf)
        assert report.passed
        assert report.margin == pytest.approx(0.1)
        state = CoefficientState(1, {(1, 0): 1.0 - 1e-15, (0, 1): 0.0})
        assert check_p_uncertainty(state, math.inf).margin == pytest.approx(0.0)

    def test_canonical_cannot_beat_exhaustive(self, rng):
        for _ in range(10):
            keys = {}
            for _ in range(3):
                a = int(rng.integers(0, 4))
                b = int(rng.integers(0, 4))
                if (a, b) != (0, 0):
                    keys[(a, b)] = float(rng.uniform(-0.5, 0.5))
            if not keys:
                continue
            state = CoefficientState(2, keys)
            full = check_p_uncertainty(state, 2)
            assert full.detail["mode"] == "exhaustive"
            assert canonical_margin(state, 2) >= full.margin - 1e-12

    def test_exhaustive_pass_implies_canonical_pass(self):
        state = CoefficientState(1, {(1, 0): 0.6, (0, 1): 0.7})
        assert check_p_uncertainty(state, 2).passed
        assert canonical_margin(state, 2) >= -DEFAULT_TOL

    def test_exhaustive_alphabet_gate(self):
        keys = {}
        n = 5
        for a in range(2**n):
            for b in range(2**n):
                if (a, b) != (0, 0) and len(keys) < 120:
                    keys[(a, b)] = 1e-3
        state = CoefficientState(n, keys)
        assert check_p_uncertainty(state, 2).detail["mode"] == "canonical"

    def test_clique_search_finds_what_canonical_misses(self):
        quantum = oracle.random_quantum_state(4, np.random.default_rng(0))
        scaled = {k: 2.28 * quantum.coefficient(*k) for k in quantum.keys()}
        table = MomentTable(4, scaled, strict=False)
        result = classify_state(table, 1.5)
        assert result.level == "invalid"
        assert result.reports[0].detail["mode"] == "exhaustive"
        assert result.reports[0].margin == pytest.approx(-0.2003, abs=1e-4)
        assert canonical_margin(table, 1.5) == pytest.approx(0.3426, abs=1e-4)

    def test_margin_wrapper(self):
        state = CoefficientState(1, {(1, 0): 0.5})
        report = check_p_uncertainty(state, 3)
        assert uncertainty_margin(state, 3) == report.margin

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_search_is_a_proof_up_to_four_systems(self, n, rng):
        for state in ladder_families(n, rng):
            for p in (1.5, 2.0, 3.0):
                assert check_p_uncertainty(state, p).detail["mode"] == "exhaustive"
            assert check_p_uncertainty(state, math.inf).detail["mode"] == "max"

    def test_search_is_canonical_at_five_systems(self, rng):
        for state in ladder_families(5, rng):
            assert check_p_uncertainty(state, 2.0).detail["mode"] == "canonical"
            assert check_p_uncertainty(state, math.inf).detail["mode"] == "max"

    def test_five_system_canonical_report(self):
        state = oracle.random_quantum_state(5, np.random.default_rng(0))
        report = check_p_uncertainty(state, 1.5)
        assert report.margin == pytest.approx(0.9029716425432698, abs=1e-12)
        assert report.worst_set == (
            "+1 XIIII", "+1 ZIIII", "+1 YXIII", "+1 YZIXI", "+1 YYXXX", "+1 YYZXI",
            "+1 YZYYX", "+1 YYYIX", "+1 YZYZI", "+1 YZXZY", "+1 YZXZZ",
        )
        assert report.detail == {"p": 1.5, "mode": "canonical", "sets": 46, "strings": 1023}
        assert canonical_margin(state, 1.5) == report.margin

    def test_works_on_probability_tables(self):
        report = check_p_uncertainty(pr_box_state(), math.inf)
        assert report.passed


class TestMomentMatrix:
    def test_two_string_layout(self):
        state = CoefficientState(
            2, {(2, 0): 0.3, (1, 0): 0.4, (3, 0): 0.3 * 0.4}
        )
        collection = [PauliString.from_text("XI"), PauliString.from_text("IX")]
        k = moment_matrix(collection, state)
        assert k.shape == (4, 4)
        assert np.allclose(np.diag(k), 1.0)
        assert k[0, 1] == pytest.approx(0.3)
        assert k[0, 2] == pytest.approx(0.4)
        assert k[0, 3] == pytest.approx(0.12)
        assert np.allclose(k, k.T)

    def test_scaled_matrix_halves(self):
        state = CoefficientState(1, {(1, 0): 0.5})
        collection = [PauliString.from_text("X")]
        k = moment_matrix(collection, state)
        assert np.allclose(moment_matrix(collection, state, scaled=True), k / 2)

    def test_noncommuting_collection_rejected(self):
        state = CoefficientState(1, {(1, 0): 0.5})
        with pytest.raises(DomainError):
            moment_matrix(
                [PauliString.from_text("X"), PauliString.from_text("Z")], state
            )

    def test_empty_collection_rejected(self):
        state = CoefficientState(1, {(1, 0): 0.5})
        with pytest.raises(DomainError):
            collection_moment_vector([], state)

    def test_size_gate(self):
        n = MAX_COLLECTION_SIZE + 1
        state = CoefficientState(n, {(0, 1): 0.1})
        collection = [PauliString.single(n, i, "Z") for i in range(n)]
        with pytest.raises(ResourceError):
            moment_matrix(collection, state)

    def test_strict_table_raises_on_missing(self):
        table = MomentTable(2, {(1, 0): 0.5, (2, 0): 0.5})
        collection = [PauliString.from_text("XI"), PauliString.from_text("IX")]
        with pytest.raises(IncompleteMomentError):
            collection_moment_vector(collection, table)


class TestPsd:
    def test_reports_minimum_eigenvalue(self):
        report = check_psd(np.diag([2.0, 0.5]))
        assert report.passed
        assert report.margin == pytest.approx(0.5)

    def test_negative_eigenvalue_fails(self):
        report = check_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert not report.passed
        assert report.margin == pytest.approx(-1.0)

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            check_psd(np.ones((2, 3)))
        with pytest.raises(DomainError):
            check_psd(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_complex_hermitian_input(self):
        report = check_psd(np.array([[1.0, 0.5j], [-0.5j, 1.0]]))
        assert report.margin == pytest.approx(0.5)
        with pytest.raises(DomainError):
            check_psd(np.array([[1.0, 0.5j], [0.5j, 1.0]]))


class TestLocalAndCommuting:
    def test_pr_box_satisfies_local(self):
        report = check_local_moments(pr_box_state())
        assert report.passed
        assert report.detail["collections"] > 0

    def test_local_gate(self):
        state = CoefficientState(6, {(1, 0): 0.1})
        with pytest.raises(ResourceError):
            check_local_moments(state)

    def test_disjoint_collections_cover_singletons(self):
        collections = list(disjoint_support_collections(2))
        # one full-support partition {0,1} and the 9 pairs over {0},{1}
        letters = {tuple(s.letters() for s in c) for c in collections}
        assert ("XI", "IX") in letters or ("IX", "XI") in letters
        for c in collections:
            supports = [s.support() for s in c]
            flat = [i for sup in supports for i in sup]
            assert len(flat) == len(set(flat)) == 2

    def test_commuting_sets_are_commuting_and_maximal_size(self):
        for members in maximal_commuting_sets(2):
            assert len(members) == 3
            for s, t in [(members[0], members[1]), (members[0], members[2])]:
                assert commutes(s, t)

    def test_commuting_set_counts(self):
        assert len(maximal_commuting_sets(1)) == 3
        assert len(maximal_commuting_sets(2)) == 15

    def test_commuting_gate(self):
        with pytest.raises(ResourceError):
            maximal_commuting_sets(5)

    def test_rac_state_fails_commuting_check(self):
        witness = rac_encode_pbin([0] * 15, 2, 2)
        report = check_commuting_moments(witness)
        assert not report.passed
        assert report.margin == pytest.approx(-0.3416407864998736)
        assert set(report.worst_set) == {"+1 XX", "+1 ZZ", "+1 YY"}

    def test_pr_box_table_skips_undetermined_collections(self):
        # the table fixes only X/Z moments, so Y-bearing collections skip
        report = check_commuting_moments(pr_box_state())
        assert report.passed
        assert report.detail["skipped"] > 0

    def test_zero_filled_pr_box_fails_commuting_check(self):
        table = moments_from_probabilities(pr_box_state())
        coeff = CoefficientState(
            2, {k: table.value(PauliString.hermitian(2, *k)) for k in table.keys()}
        )
        report = check_commuting_moments(coeff)
        assert not report.passed
        assert report.margin == pytest.approx(-1.0)


def pairwise_commuting_reference(state):
    """The commuting rung with one matrix row per element (the identity
    and every member), each entry the moment of a pairwise product.

    Returns (margin, evaluated collections, skipped collections).
    """
    table = constraints._moment_table(state)
    worst, evaluated, skipped = math.inf, 0, 0
    for members in maximal_commuting_sets(table.n):
        elements = (PauliString.identity(table.n),) + members
        try:
            k = np.array(
                [[table.value(pauli_product(s, t)) for t in elements] for s in elements]
            )
        except IncompleteMomentError:
            skipped += 1
            continue
        evaluated += 1
        worst = min(worst, float(np.linalg.eigvalsh(k)[0]))
    return (1.0 if evaluated == 0 else worst), evaluated, skipped


def ladder_families(n, rng):
    """Quantum states, the same scaled x1.6, p-bin codes (unrestricted
    and restricted to letter tensors), p-gnst tables and the PR box."""
    bits = lambda count: [int(b) for b in rng.integers(0, 2, size=count)]
    for p in (1.5, 2.0, 3.0, math.inf):
        quantum = oracle.random_quantum_state(n, rng)
        yield quantum
        scaled = {k: 1.6 * quantum.coefficient(*k) for k in quantum.keys()}
        yield MomentTable(n, scaled, strict=False)
        yield rac_encode_pbin(bits(4**n - 1), n, p)
        yield rac_encode_pbin(bits(3**n), n, p, restrict_to_xyz=True)
        yield rac_encode_pgnst(bits(3**n), n, p)
    if n == 2:
        yield pr_box_state()


def independent_members(members):
    """Members outside the span of those before them: generators of the
    group, up to sign, that a maximal commuting collection forms."""
    span, out = {(0, 0)}, []
    for s in members:
        if s.basis_key() not in span:
            out.append(s)
            span |= {(a ^ s.a, b ^ s.b) for a, b in span}
    return out


_RUNG_COLLECTIONS = {}


def rung_collections(rung, n):
    """(worst-set text, subset products) of every collection of a rung,
    one collection at a time through ``_collection_products``."""
    if (rung, n) not in _RUNG_COLLECTIONS:
        if rung == "local":
            pairs = [(c, c) for c in disjoint_support_collections(n)]
        else:
            pairs = [(m, independent_members(m)) for m in maximal_commuting_sets(n)]
        _RUNG_COLLECTIONS[rung, n] = [
            (tuple(s.text() for s in named), constraints._collection_products(gens))
            for named, gens in pairs
        ]
    return _RUNG_COLLECTIONS[rung, n]


def oracle_rung(rung, state):
    """Smallest moment-matrix eigenvalue of every determined collection,
    keyed by its worst-set text, and the number skipped: the Jacobi
    oracle up to n = 3, LAPACK at n = 4."""
    table = constraints._moment_table(state)
    if table.n <= 3:
        smallest = oracle.min_eigenvalue
    else:
        smallest = lambda k: float(np.linalg.eigvalsh(k)[0])
    eigs, skipped = {}, 0
    for name, products in rung_collections(rung, table.n):
        try:
            mu = np.array([table.value(s) for s in products])
        except IncompleteMomentError:
            skipped += 1
            continue
        idx = np.arange(len(mu))
        eigs[name] = smallest(mu[idx[:, None] ^ idx[None, :]])
    return eigs, skipped


def dropped_setting_tables(n, rng):
    """Strict tables of a quantum state's moments under a random half of
    the fiducial settings: what a table measured on those settings holds."""
    settings = all_settings(n)
    for _ in range(2):
        quantum = oracle.random_quantum_state(n, rng)
        values = {}
        for i in rng.choice(len(settings), size=max(1, len(settings) // 2), replace=False):
            for r in range(1, n + 1):
                for subset in itertools.combinations(range(n), r):
                    key = settings[i].subset_pauli(subset).basis_key()
                    values[key] = quantum.coefficient(*key)
        yield MomentTable(n, values, strict=True)


class TestBatchedRungs:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rungs_match_oracle(self, n, rng):
        corpus = [*ladder_families(n, rng), *dropped_setting_tables(n, rng)]
        for state in corpus:
            for rung, check in (
                ("local", check_local_moments),
                ("commuting", check_commuting_moments),
            ):
                report = check(state)
                eigs, skipped = oracle_rung(rung, state)
                assert report.detail == {"collections": len(eigs), "skipped": skipped}
                assert abs(report.margin - min(eigs.values(), default=1.0)) <= 1e-12
                if eigs:
                    assert abs(eigs[report.worst_set] - report.margin) <= 1e-12
                else:
                    assert report.worst_set == ()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_packed_groups_match_string_products(self, n):
        for plan, collections in (
            (constraints._local_plan(n), list(disjoint_support_collections(n))),
            (constraints._commuting_plan(n), maximal_commuting_sets(n)),
        ):
            assert plan.named == tuple(tuple(s.a | s.b << n for s in c) for c in collections)
            for members, packed in zip(collections, plan.named):
                gens = independent_members(members)
                elements = [
                    product_of([g for k, g in enumerate(gens) if i >> k & 1], n=n)
                    for i in range(1 << len(gens))
                ]
                keys, signs = constraints._group(packed, n)
                assert keys == [e.a | e.b << n for e in elements]
                assert signs == [e.hermitian_sign() for e in elements]

    def test_pr_box_counts(self):
        report = check_local_moments(pr_box_state())
        assert report.detail == {"collections": 8, "skipped": 10}
        assert report.margin == 0.0

    def test_reference_matrix_is_moment_matrix(self, rng):
        state = oracle.random_quantum_state(3, rng)
        table = constraints._moment_table(state)
        for members in maximal_commuting_sets(3)[:5]:
            gens = independent_members(members)
            mu = np.array([table.value(s) for s in constraints._collection_products(gens)])
            idx = np.arange(len(mu))
            assert np.array_equal(mu[idx[:, None] ^ idx[None, :]], moment_matrix(gens, state))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_walsh_hadamard_spectrum(self, m, rng):
        size = 1 << m
        characters = constraints._characters(size)
        assert np.array_equal(characters, np.sign(oracle.hadamard_sign_matrix(m)))
        idx = np.arange(size)
        for _ in range(5):
            mu = rng.uniform(-1.0, 1.0, size)
            expected = np.linalg.eigvalsh(mu[idx[:, None] ^ idx[None, :]])
            through_oracle = math.sqrt(size) * oracle.hadamard_sign_matrix(m) @ mu
            assert np.allclose(np.sort(mu @ characters), expected, rtol=0, atol=1e-12)
            assert np.allclose(np.sort(through_oracle), expected, rtol=0, atol=1e-12)


def sparse_states(n, rng, count):
    """Quantum states keeping about 30% of their coefficients, scaled
    x1.4 so that some break the relation."""
    for _ in range(count):
        quantum = oracle.random_quantum_state(n, rng)
        kept = [k for k in quantum.keys() if rng.random() < 0.3]
        yield MomentTable(n, {k: 1.4 * quantum.coefficient(*k) for k in kept}, strict=False)


class TestCliqueSearch:
    def assert_matches_maximal_sets(self, state, exponents):
        """Against the worst power sum over every maximal anti-commuting
        set of the non-zero alphabet, enumerated by Bron-Kerbosch."""
        table = constraints._moment_table(state)
        alphabet = [s for s in table.strings() if table.value(s) != 0.0]
        sets = maximal_anticommuting_sets(alphabet) if alphabet else ()
        for p in exponents:
            power_sum = lambda members: sum(abs(table.value(s)) ** p for s in members)
            report = check_p_uncertainty(state, p)
            assert report.detail["mode"] == "exhaustive"
            expected = max(map(power_sum, sets), default=0.0)
            assert abs(report.margin - (1.0 - expected)) <= 1e-12
            members = [PauliString.from_text(t) for t in report.worst_set]
            for s, t in itertools.combinations(members, 2):
                assert not commutes(s, t)
            assert [s.basis_key() for s in members] == sorted(s.basis_key() for s in members)
            assert abs(power_sum(members) - (1.0 - report.margin)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_ladder_families_match_maximal_sets(self, n, rng):
        for state in [*ladder_families(n, rng), *dropped_setting_tables(n, rng)]:
            self.assert_matches_maximal_sets(state, (1.0, 1.5, 2.0, 3.0))

    def test_n4_alphabets_match_maximal_sets(self, rng):
        bits = lambda: [int(b) for b in rng.integers(0, 2, size=81)]
        for p in (1.5, 2.0, 3.0):
            self.assert_matches_maximal_sets(rac_encode_pgnst(bits(), 4, p), (p,))
            restricted = rac_encode_pbin(bits(), 4, p, restrict_to_xyz=True)
            self.assert_matches_maximal_sets(restricted, (p,))
        for state in sparse_states(4, rng, count=4):
            assert len(state.keys()) <= 100
            self.assert_matches_maximal_sets(state, (1.5, 2.0, 3.0))

    def test_empty_alphabet(self):
        report = check_p_uncertainty(MomentTable(3, {}, strict=True), 2)
        assert (report.margin, report.worst_set) == (1.0, ())
        assert report.detail == {"p": 2.0, "mode": "exhaustive", "sets": 0, "strings": 0}


class TestLadderPaths:
    @pytest.mark.parametrize("n", [2, 3])
    def test_generator_matrix_matches_pairwise_products(self, n, rng):
        for state in ladder_families(n, rng):
            report = check_commuting_moments(state)
            margin, evaluated, skipped = pairwise_commuting_reference(state)
            assert abs(report.margin - margin) <= 1e-12
            assert report.detail == {"collections": evaluated, "skipped": skipped}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_density_rung_matches_oracle(self, n, rng):
        state = oracle.random_quantum_state(n, rng)
        report = classify_state(state, 2).reports[-1]
        assert report.constraint == "density-psd"
        assert report.detail == {"dim": 1 << n}
        expected = oracle.min_eigenvalue(oracle.dense(state))
        assert abs(report.margin - expected) <= 1e-12

    def test_density_rung_matches_oracle_on_pr_box(self):
        result = classify_state(pr_box_state(), math.inf)
        assert result.level == "p-nonlocal"
        dense = oracle.dense(oracle.pr_box_coefficient_state())
        assert abs(result.reports[-1].margin - oracle.min_eigenvalue(dense)) <= 1e-12

    def test_probability_table_read_once(self, monkeypatch):
        calls = []
        convert = constraints.moments_from_probabilities

        def counting(state, *args, **kwargs):
            calls.append(state)
            return convert(state, *args, **kwargs)

        monkeypatch.setattr(constraints, "moments_from_probabilities", counting)
        result = classify_state(pr_box_state(), math.inf)
        assert len(result.reports) == 4
        assert len(calls) == 1


class TestClassification:
    def test_uncertainty_violation_is_invalid(self):
        state = CoefficientState(1, {(1, 0): 1.0, (0, 1): 1.0})
        result = classify_state(state, 2)
        assert result.level == "invalid"
        assert len(result.reports) == 1

    def test_local_violation_is_p_bin(self):
        table = moments_from_probabilities(pr_box_state())
        coeff = CoefficientState(2, {k: table.value(PauliString.hermitian(2, *k)) for k in table.keys()})
        circuit = CliffordCircuit.from_ops(2, ("CNOT", 0, 1))
        image = apply_clifford(circuit, coeff)
        result = classify_state(image, math.inf)
        assert result.level == "p-bin"
        assert not result.reports[-1].passed

    def test_commuting_violation_is_p_box(self):
        witness = rac_encode_pbin([0] * 15, 2, 2)
        result = classify_state(witness, 2)
        assert result.level == "p-box"
        assert [r.constraint for r in result.reports] == [
            "p-uncertainty",
            "local-moments",
            "commuting-moments",
        ]

    def test_negative_density_is_p_nonlocal(self):
        state = CoefficientState(1, {(1, 0): 0.9, (0, 1): 0.9})
        result = classify_state(state, math.inf)
        assert result.level == "p-nonlocal"
        assert result.reports[-1].constraint == "density-psd"
        assert result.reports[-1].margin < 0

    def test_bloch_vector_inside_ball_is_quantum(self):
        state = CoefficientState(1, {(1, 0): 0.6, (0, 1): 0.8})
        result = classify_state(state, 2)
        assert result.level == "quantum-consistent"
        assert all(r.passed for r in result.reports)

    def test_json_shape(self):
        state = CoefficientState(1, {(1, 0): 0.5})
        data = classify_state(state, 2).to_json_dict()
        assert data["level"] == "quantum-consistent"
        assert all("constraint" in r for r in data["reports"])


class TestTwoMeasurement:
    def test_matrix_rows(self):
        k = two_measurement_moment_matrix(0.2, 0.3, 0.4)
        assert k[0].tolist() == [1.0, 0.2, 0.3, 0.4]
        assert k[1].tolist() == [0.2, 1.0, 0.4, 0.3]
        assert np.allclose(k, k.T)

    def test_known_spectra(self):
        assert two_measurement_eigenvalues(1, 1, 1) == (0.0, 0.0, 0.0, 4.0)
        eigs = two_measurement_eigenvalues(1, 1, -1)
        assert eigs[0] == pytest.approx(-2.0)

    @given(unit, unit, unit)
    def test_closed_form_matches_dense(self, a, b, c):
        closed = two_measurement_eigenvalues(a, b, c)
        dense = np.linalg.eigvalsh(two_measurement_moment_matrix(a, b, c))
        assert max(abs(x - y) for x, y in zip(closed, dense)) < 1e-10

    @given(unit, unit, unit)
    def test_sylvester_matches_psd(self, a, b, c):
        report = two_measurement_sylvester(a, b, c, tol=1e-9)
        dense_ok = np.linalg.eigvalsh(two_measurement_moment_matrix(a, b, c))[0] >= -1e-9
        if report.passed:
            assert np.linalg.eigvalsh(two_measurement_moment_matrix(a, b, c))[0] >= -1e-7
        if dense_ok:
            assert report.passed

    def test_determinant_condition_is_load_bearing(self):
        a, b, c = -0.9, -0.3, 0.1
        report = two_measurement_sylvester(a, b, c)
        assert report.box_ok and report.cubic_ok
        assert not report.det_ok
        assert not report.passed
        assert np.linalg.eigvalsh(two_measurement_moment_matrix(a, b, c))[0] < 0


class TestGnstValidation:
    def test_pr_box_is_structurally_valid(self):
        report = validate_gnst(pr_box_state())
        assert report.passed
        names = [c["constraint"] for c in report.to_json_dict()["detail"]["checks"]]
        assert names == [
            "normalization",
            "positivity",
            "no-signaling",
            "overlap-consistency",
        ]

    def test_signaling_table_fails(self):
        table = {
            (1, 1): (0.5, 0.0, 0.0, 0.5),
            (1, 2): (0.9, 0.0, 0.0, 0.1),
        }
        state = GnstState.from_table(2, table, check=False)
        report = validate_gnst(state)
        assert not report.passed
        failed = [
            c["constraint"]
            for c in report.to_json_dict()["detail"]["checks"]
            if not c["passed"]
        ]
        assert "no-signaling" in failed

    def test_unnormalized_table_fails(self):
        state = GnstState.from_table(1, {(1,): (0.6, 0.3)}, check=False)
        report = validate_gnst(state)
        assert not report.passed
        assert report.margin == pytest.approx(-0.1)

    @pytest.mark.parametrize("n", [2, 3])
    def test_overlap_margin_matches_oracle_moments(self, n, rng):
        settings = all_settings(n)
        table = {}
        for i in rng.choice(len(settings), size=len(settings) // 2, replace=False):
            probs = rng.uniform(0.0, 1.0, 2**n)
            table[settings[i].labels] = probs / probs.sum()
        state = GnstState.from_table(n, table, check=False)
        gap = 0.0
        for r in range(1, n):
            for keep in itertools.combinations(range(n), r):
                # Entry k of the oracle's vector is the moment over the
                # systems i whose bit n - 1 - i is set in k.
                column = sum(1 << n - 1 - i for i in keep)
                first = {}
                for setting in state.settings():
                    value = oracle.subset_moment_vector(state.probabilities(setting), n)[column]
                    reference = first.setdefault(tuple(setting.labels[i] for i in keep), value)
                    gap = max(gap, abs(value - reference))
        checks = validate_gnst(state).detail["checks"]
        overlap = next(c for c in checks if c["constraint"] == "overlap-consistency")
        assert gap > 0.0
        assert abs(overlap["margin"] + gap) <= 1e-15
