import itertools
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxworld import constraints, oracle, states
from boxworld.constraints import (
    check_commuting_moments,
    check_local_moments,
    check_p_uncertainty,
    check_psd,
    classify_state,
    disjoint_support_collections,
    moment_matrix,
    two_measurement_eigenvalues,
    two_measurement_moment_matrix,
    two_measurement_sylvester,
    validate_gnst,
)
from boxworld.errors import (
    DomainError,
    IncompleteMomentError,
    ResourceError,
    ValidationError,
    validate_exponent,
)
from boxworld.pauli import (
    MAX_COMMUTING_SYSTEMS,
    PauliString,
    commutes,
    gamma_set,
    maximal_commuting_sets,
    pauli_product,
    product_of,
)
from boxworld.rac import rac_encode_pbin, rac_encode_pgnst
from boxworld.states import (
    DEFAULT_TOL,
    MAX_COLLECTION_SIZE,
    CliffordCircuit,
    CoefficientState,
    GnstState,
    MomentTable,
    all_settings,
    apply_clifford,
    conjugate_pauli,
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
    """1 - the power sum over the paper's canonical ladder set
    (:func:`~boxworld.pauli.gamma_set`), one anti-commuting set of
    2n + 1 strings, at any n."""
    table = constraints._moment_table(state)
    return 1.0 - sum(abs(table.value(s)) ** p for s in gamma_set(table.n))


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
        """Equal weights leave the 2n + 1 bound little to prune: the
        search over 120 strings at n = 5 stops at its cap."""
        keys = {}
        n = 5
        for a in range(2**n):
            for b in range(2**n):
                if (a, b) != (0, 0) and len(keys) < 120:
                    keys[(a, b)] = 1e-3
        state = CoefficientState(n, keys)
        detail = check_p_uncertainty(state, 2).detail
        assert (detail["mode"], detail["sets"]) == ("budgeted", constraints._SEARCH_SETS)

    def test_clique_search_finds_what_canonical_misses(self):
        quantum = oracle.random_quantum_state(4, np.random.default_rng(0))
        scaled = {k: 2.28 * quantum.coefficient(*k) for k in quantum.keys()}
        table = MomentTable(4, scaled, strict=False)
        result = classify_state(table, 1.5)
        assert result.level == "invalid"
        assert result.reports[0].detail["mode"] == "exhaustive"
        assert result.reports[0].margin == pytest.approx(-0.2003, abs=1e-4)
        assert canonical_margin(table, 1.5) == pytest.approx(0.5802, abs=1e-4)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_search_is_a_proof_up_to_four_systems(self, n, rng):
        for state in ladder_families(n, rng):
            for p in (1.5, 2.0, 3.0):
                assert check_p_uncertainty(state, p).detail["mode"] == "exhaustive"
            assert check_p_uncertainty(state, math.inf).detail["mode"] == "max"

    def test_search_is_capped_at_five_systems(self, rng):
        for state in itertools.islice(ladder_families(5, rng), 5):  # one state per family
            detail = check_p_uncertainty(state, 2.0).detail
            assert detail["mode"] in ("exhaustive", "budgeted")
            assert detail["sets"] <= constraints._SEARCH_SETS
            if detail["mode"] == "budgeted":
                assert detail["sets"] == constraints._SEARCH_SETS
            assert check_p_uncertainty(state, math.inf).detail["mode"] == "max"

    def test_equal_weights_outrun_the_cap_at_four_systems(self):
        """The 108 weight-3 strings at n = 4, at one magnitude: a finished
        search takes 43,906 sets, so the capped one stops, budgeted, with
        the same eight strings (found by its 43rd set)."""
        values = {(a, b): 0.1 for a in range(16) for b in range(16) if bin(a | b).count("1") == 3}
        report = check_p_uncertainty(MomentTable(4, values, strict=False), 2.0)
        assert report.detail == {"p": 2.0, "mode": "budgeted", "sets": constraints._SEARCH_SETS, "strings": 108}
        assert abs(report.margin - 0.92) <= 1e-12
        assert report.worst_set == (
            "+1 IXZZ", "+1 YIXZ", "+1 ZXXI", "+1 IXYZ", "+1 XXXI", "+1 YXIX", "+1 IZXX", "+1 IYXX",
        )

    def test_search_that_ends_at_the_cap_is_exhaustive(self, rng, monkeypatch):
        """Only a set past the cap makes a search budgeted: one whose last
        unpruned set is the cap's finishes, with ``sets`` equal to it."""
        state = oracle.random_quantum_state(2, rng)
        sets = check_p_uncertainty(state, 2.0).detail["sets"]
        for cap, mode in ((sets, "exhaustive"), (sets - 1, "budgeted")):
            constraints._uncertainty_profile.cache_clear()
            monkeypatch.setattr(constraints, "_SEARCH_SETS", cap)
            assert check_p_uncertainty(state, 2.0).detail == {"p": 2.0, "mode": mode, "sets": cap, "strings": 15}

    def test_five_system_report(self):
        """The search finishes on a random quantum state's 1023 moments
        and finds a heavier set than the paper's ladder set."""
        state = oracle.random_quantum_state(5, np.random.default_rng(0))
        report = check_p_uncertainty(state, 1.5)
        assert report.margin == pytest.approx(0.8308528282431961, abs=1e-12)
        assert report.worst_set == (
            "+1 YYIZI", "+1 IYZXI", "+1 IYIYZ", "+1 ZZXYZ", "+1 XXYYZ", "+1 YZXZY",
            "+1 IXXZY", "+1 XZIXX", "+1 IYZYY", "+1 XXZXX", "+1 YYIYX",
        )
        assert report.detail == {"p": 1.5, "mode": "exhaustive", "sets": 3607, "strings": 1023}
        assert canonical_margin(state, 1.5) > report.margin

    def test_five_system_code_outruns_the_cap(self):
        """A p = 2 p-gnst code's 243 equal moments at n = 5: the search
        stops at its cap with nine strings, 1 - 9/11 at p = 2 (pinned in
        :class:`TestStoredMoments`; the anti-commuting clique number of
        the full-support strings is 9 at n = 5), and the same nine break
        the relation at p = 1.5."""
        code = rac_encode_pgnst([j % 3 % 2 for j in range(3**5)], 5, 2.0)
        result = classify_state(code, 1.5)
        assert result.level == "invalid"
        assert result.reports[0].detail == {"p": 1.5, "mode": "budgeted", "sets": constraints._SEARCH_SETS, "strings": 243}
        assert abs(result.reports[0].margin - (1.0 - 9 * 11**-0.75)) <= 1e-12  # -0.490

    def test_works_on_probability_tables(self):
        report = check_p_uncertainty(pr_box_state(), math.inf)
        assert report.passed

    @pytest.mark.parametrize(
        "n, values, mode",
        [
            (2, {(a, b): 1e308 for a in range(4) for b in range(4) if a or b}, "exhaustive"),
            (5, {(1, 0): 1e200}, "exhaustive"),  # X on system 0, past the one-byte keys
        ],
    )
    def test_powers_past_the_float_range_fail(self, n, values, mode):
        table = MomentTable(n, values, strict=False)
        report = check_p_uncertainty(table, 2)
        assert (report.passed, report.margin, report.detail["mode"]) == (False, -math.inf, mode)
        assert classify_state(table, 2).level == "invalid"


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
            moment_matrix([], state)

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
            moment_matrix(collection, table)


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

    @pytest.mark.parametrize(
        "matrix",
        [
            [[math.nan, 0.0], [0.0, 1.0]],  # LAPACK reads this as [0, -0]
            [[1.0, math.inf], [math.inf, 1.0]],
            [[1.0, complex(0.0, math.nan)], [0.0, 1.0]],
            np.zeros((0, 0)),
        ],
        ids=["nan", "inf", "complex-nan", "empty"],
    )
    def test_refuses_non_finite_and_empty_input(self, matrix):
        with pytest.raises(DomainError, match="finite|non-empty"):
            check_psd(matrix)


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_packed_groups_match_string_products(self, n):
        for plan, collections in (
            (constraints._local_plan(n), list(disjoint_support_collections(n))),
            (constraints._commuting_plan(n), maximal_commuting_sets(n)),
        ):
            assert plan.named == tuple(tuple(s.a | s.b << n for s in c) for c in collections)
            covered, sizes = [], []
            for rows, idx, signs, characters in plan.groups:
                assert (rows.dtype, idx.dtype, signs.dtype) == (np.intp, np.intp, np.float64)
                assert np.array_equal(characters, constraints._characters(idx.shape[1]))
                covered += rows.tolist()
                sizes.append(idx.shape[1])
                for row, keys, row_signs in zip(rows, idx, signs):
                    gens = independent_members(collections[row])
                    elements = [
                        product_of([g for k, g in enumerate(gens) if i >> k & 1], n=n)
                        for i in range(1 << len(gens))
                    ]
                    assert keys.tolist() == [e.a | e.b << n for e in elements]
                    assert row_signs.tolist() == [e.hermitian_sign() for e in elements]
            assert sorted(covered) == list(range(len(collections)))
            assert sizes == sorted(set(sizes))

    def test_plans_are_built_gather_ready_past_seven_systems(self):
        """Y on system 7 of eight: its packed key needs 16 bits, past int16."""
        k = 1 << 7 | 1 << 15
        ((rows, idx, signs, _),) = constraints._plan(((k,),), [[k]], 8).groups
        assert (rows.dtype, idx.dtype, signs.dtype) == (np.intp, np.intp, np.float64)
        assert (rows.tolist(), idx.tolist(), signs.tolist()) == ([0], [[0, k]], [[1.0, 1.0]])

    @pytest.mark.parametrize("plan, n, mib", [("_local_plan", 5, 2.0), ("_commuting_plan", 4, 0.625)])
    def test_plans_stay_small(self, plan, n, mib):
        """The intp and float64 plans at each rung's system limit hold
        1.79 and 0.58 MiB of arrays."""
        groups = getattr(constraints, plan)(n).groups
        assert sum(array.nbytes for group in groups for array in group) <= mib * 2**20

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
        strings = [PauliString.hermitian(table.n, a, b) for a, b in table.keys()]
        alphabet = [s for s in strings if table.value(s) != 0.0]
        sets = oracle.maximal_anticommuting_sets(alphabet) if alphabet else ()
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

    def test_five_system_alphabets_match_subset_search(self, rng):
        """Packed keys reach 1023 at n = 5 and 4095 at n = 6, two bytes
        each, and the adjacency must see the top systems' bits.  Read
        through the rung at p = 1, whose weights are the magnitudes."""
        for n in (5, 6):
            low = (1 << n) - 1
            for size in (12, 13, 14, 15, 16):
                keys = [int(k) for k in rng.choice(np.arange(1, 4**n), size=size, replace=False)]
                weight = dict(zip(keys, rng.random(size).tolist()))
                strings = {k: PauliString.hermitian(n, k & low, k >> n) for k in keys}
                best, best_members = 0.0, []

                def grow(members, candidates, total):
                    # Every pairwise anti-commuting subset, one member at a time.
                    nonlocal best, best_members
                    if total > best:
                        best, best_members = total, members
                    for i, k in enumerate(candidates):
                        rest = [c for c in candidates[i + 1 :] if not commutes(strings[k], strings[c])]
                        grow([*members, k], rest, total + weight[k])

                grow([], keys, 0.0)
                table = MomentTable(n, {(k & low, k >> n): m for k, m in weight.items()}, strict=False)
                report = check_p_uncertainty(table, 1.0)
                assert report.detail["mode"] == "exhaustive"
                assert abs(report.margin - (1.0 - best)) <= 1e-12
                assert sorted(report.worst_set) == sorted(strings[k].text() for k in best_members)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_adjacency_matches_commutes(self, n, rng):
        """Keys take two bytes from n = 5 on; every bit of the row the
        tables give each key, and up to three systems every other string,
        is checked against :func:`~boxworld.pauli.commutes`."""
        low = (1 << n) - 1
        for size in (1, 2, 4, min(4**n, 40)):
            keys = [int(k) for k in rng.choice(np.arange(4**n), size=size, replace=False)]
            strings = [PauliString.hermitian(n, k & low, k >> n) for k in keys]
            tables = constraints._anticommuting_masks(n, keys)
            assert [len(t) for t in tables] == [1 << min(8, 2 * n - 8 * c) for c in range(len(tables))]
            assert len(tables) == (2 * n + 7) // 8
            for k in range(4**n) if n <= 3 else keys:
                s = PauliString.hermitian(n, k & low, k >> n)
                expected = sum(1 << j for j, t in enumerate(strings) if not commutes(s, t))
                row = 0
                for c, table in enumerate(tables):
                    row ^= table[k >> 8 * c & 255]
                assert row == expected

    def test_adjacency_of_no_keys(self):
        assert constraints._anticommuting_masks(3, []) == [[0] * 64]

    def test_one_term_far_past_the_byte_keys(self):
        """The tables grow with the keys and with n, not with 2**n: a
        one-term state at n = 40 needs 10 tables of 256 one-bit masks."""
        state = CoefficientState(40, {(1, 1 << 39): 0.5})
        tracemalloc.start()
        try:
            report = check_p_uncertainty(state, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.detail == {"p": 2.0, "mode": "exhaustive", "sets": 1, "strings": 1}
        assert report.margin == 0.75
        assert peak < 2**20

    def test_dense_search_keeps_no_mask_per_key(self):
        """A dense n = 7 product: 16,383 strings, whose masks, one per key,
        would take 37 MB; the search reads each neighbourhood per visit
        from two tables, of 256 and 64 masks."""
        rng = np.random.default_rng(0)
        state = states.tensor_product(oracle.random_quantum_state(3, rng), oracle.random_quantum_state(4, rng))
        tracemalloc.start()
        try:
            report = check_p_uncertainty(state, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.detail["mode"] == "exhaustive" and report.detail["strings"] == 4**7 - 1
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_margin_is_the_python_power_sum_heaviest_first(self, n, rng):
        """The margin is 1 minus the Python ``abs(m) ** p`` of the worst
        set's moments, added heaviest first, to the last bit; a numpy
        power rounds some of them differently."""
        for state in [*ladder_families(n, rng), *dropped_setting_tables(n, rng)]:
            table = constraints._moment_table(state)
            for p in (1.5, 2.0, 3.0):
                report = check_p_uncertainty(state, p)
                powers = [
                    abs(float(table.value(PauliString.from_text(t)))) ** p for t in report.worst_set
                ]
                assert report.margin == 1.0 - sum(sorted(powers, reverse=True))

    def test_empty_alphabet(self):
        report = check_p_uncertainty(MomentTable(3, {}, strict=True), 2)
        assert (report.margin, report.worst_set) == (1.0, ())
        assert report.detail == {"p": 2.0, "mode": "exhaustive", "sets": 0, "strings": 0}


def dumped(reports):
    return [json.dumps(r.to_json_dict()) for r in reports]


class TestProfileCache:
    """The uncertainty rung reads only |m|, so a repeated magnitude
    profile is answered from a bounded cache."""

    def test_sign_flips_search_once(self, rng, monkeypatch):
        calls = []
        search = constraints._heaviest_anticommuting_set

        def counting(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(constraints, "_heaviest_anticommuting_set", counting)
        reports = []
        for _ in range(32):
            bits = [int(b) for b in rng.integers(0, 2, size=27)]
            reports.append(check_p_uncertainty(rac_encode_pgnst(bits, 3, 2.0), 2.0))
        assert len(calls) == 1
        assert dumped(reports) == dumped(reports[:1]) * 32

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cached_reports_match_fresh_searches(self, n, rng):
        corpus = [*ladder_families(n, rng), *dropped_setting_tables(n, rng)]
        cache = constraints._uncertainty_profile
        for p in (1.5, 2.0, 3.0, math.inf):
            served = [check_p_uncertainty(state, p) for state in corpus]
            hits = cache.cache_info().hits
            again = [check_p_uncertainty(state, p) for state in corpus]
            assert cache.cache_info().hits == hits + len(corpus)
            fresh = []
            for state in corpus:
                cache.cache_clear()
                fresh.append(check_p_uncertainty(state, p))
            assert dumped(served) == dumped(fresh)
            assert dumped(again) == dumped(fresh)

    def test_tolerance_is_read_per_call(self):
        # Margin 1 - 2 * 0.8**2 = -0.28.
        state = MomentTable(1, {(1, 0): 0.8, (0, 1): 0.8}, strict=False)
        flipped = MomentTable(1, {(1, 0): -0.8, (0, 1): 0.8}, strict=False)
        assert check_p_uncertainty(state, 2, tol=0.3).passed
        assert not check_p_uncertainty(flipped, 2, tol=0.2).passed
        assert not check_p_uncertainty(state, 2, tol=0.2).passed
        assert check_p_uncertainty(flipped, 2, tol=0.3).passed
        assert constraints._uncertainty_profile.cache_info().hits == 3

    def test_detail_is_fresh_per_report(self, rng):
        state = oracle.random_quantum_state(2, rng)
        first = check_p_uncertainty(state, 2)
        expected = dict(first.detail)
        first.detail.clear()
        assert check_p_uncertainty(state, 2).detail == expected

    def test_integer_exponent_reads_as_float(self, rng):
        state = oracle.random_quantum_state(3, rng)
        for order in ((2, 2.0), (2.0, 2)):
            constraints._uncertainty_profile.cache_clear()
            reports = [check_p_uncertainty(state, p) for p in order]
            assert dumped(reports[:1]) == dumped(reports[1:])
            assert reports[0].detail["p"] == 2.0 and isinstance(reports[0].detail["p"], float)

    def test_cache_is_gated_on_its_key_width(self, rng, monkeypatch):
        """The cache packs one byte per key, so it holds no n = 5 profile,
        whatever the commuting rung's system limit."""
        state = oracle.random_quantum_state(5, rng)
        expected = check_p_uncertainty(state, 2).to_json_dict()
        monkeypatch.setattr(constraints, "MAX_COMMUTING_SYSTEMS", 5)
        assert check_p_uncertainty(state, 2).to_json_dict() == expected
        assert constraints._uncertainty_profile.cache_info().currsize == 0


def tied_table(n):
    """Two largest moments of equal size, the later one in ascending key
    order stored first."""
    top = (1 << n) - 1
    return CoefficientState(n, {(3, 1): -0.4, (top, 0): 0.3, (1, 2): 0.4, (0, 5): 0.1, (0, top): -0.2})


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_max_names_the_first_largest_moment(n):
    """Read from the moment vector (n <= 4) or the stored moments (n > 4),
    the p = infinity rung names the first largest |m| in ascending key
    order."""
    report = check_p_uncertainty(tied_table(n), math.inf)
    assert report.margin == 0.6
    assert report.worst_set == ("+1 XZ" + "I" * (n - 2),)
    assert report.detail == {"p": "inf", "mode": "max", "strings": 5}


class TestStoredMoments:
    """The uncertainty rung reads only the stored moments, never the
    4**n moment vector."""

    @pytest.mark.parametrize(
        "n,p,margin,worst,sets,strings",
        [
            (5, 2.0, 0.18181818181818166, "XYZZX YZXZX ZXYZX ZZZXX YXZYX XZYYX ZYXYX XXXXX "
             "YYYXX", 10_000, 243),
            (6, 2.0, 0.3076923076923077, "YYZYXZ YZYZZX YZYZYX YYXZXX YZZXXX YYZYXY ZXXXXX "
             "XXXXXX YXYYXX", 10_000, 729),
            (5, math.inf, 0.6, "XZIII", None, 5),
            (6, math.inf, 0.6, "XZIIII", None, 5),
        ],
        ids=["n5-p2", "n6-p2", "n5-inf", "n6-inf"],
    )
    def test_reports_without_the_vector(self, n, p, margin, worst, sets, strings, monkeypatch):
        def refuse(self):
            raise AssertionError("the rung read the moment vector")

        monkeypatch.setattr(MomentTable, "vector", refuse)
        if p == 2.0:
            state = rac_encode_pgnst([j % 3 % 2 for j in range(3**n)], n, p)
            detail = {"p": p, "mode": "budgeted", "sets": sets, "strings": strings}
        else:
            state = tied_table(n)
            detail = {"p": "inf", "mode": "max", "strings": strings}
        assert check_p_uncertainty(state, p).to_json_dict() == {
            "constraint": "p-uncertainty",
            "passed": True,
            "margin": margin,
            "worst_set": ["+1 " + text for text in worst.split()],
            "detail": detail,
        }

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_small_systems_read_no_vector(self, n, rng, monkeypatch):
        """Up to four systems too, through the profile cache."""

        def refuse(self):
            raise AssertionError("the rung read the moment vector")

        corpus = [*ladder_families(n, rng), *dropped_setting_tables(n, rng)]
        tables = [constraints._moment_table(state) for state in corpus]
        monkeypatch.setattr(MomentTable, "vector", refuse)
        for table in tables:
            for p in (1.5, 2.0, 3.0, math.inf):
                report = check_p_uncertainty(table, p)
                assert report.detail["strings"] == sum(1 for m in table._values.values() if m)


class TestLadderPaths:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_full_strict_table_reads_as_lenient(self, n, rng):
        """Only strict tables run the unknown-moment (NaN) passes; on a
        strict table that stores every moment they change no report."""
        low = (1 << n) - 1
        for state in ladder_families(n, rng):
            lenient = constraints._moment_table(state)
            if lenient.strict:  # the PR box leaves moments unmeasured
                continue
            vec = lenient.vector()
            strict = MomentTable(n, {(k & low, k >> n): float(vec[k]) for k in range(1, 4**n)})
            text = lambda report: json.dumps(report.to_json_dict())
            for check in (check_local_moments, check_commuting_moments):
                assert text(check(strict)) == text(check(lenient))
            for p in (1.5, 2.0, 3.0, math.inf):
                expected = text(check_p_uncertainty(lenient, p))
                misses = constraints._uncertainty_profile.cache_info().misses
                assert text(check_p_uncertainty(strict, p)) == expected
                # Equal profiles have equal bytes: the strict table's is a cache hit.
                assert constraints._uncertainty_profile.cache_info().misses == misses
                assert text(classify_state(strict, p)) == text(classify_state(lenient, p))
            assert np.array_equal(constraints._density_matrix(strict), constraints._density_matrix(lenient))

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

    def test_density_rung_matches_oracle_at_five_systems(self, rng):
        """The walk stops before the density rung at n = 5, so the rung
        is called directly."""
        bits = [int(b) for b in rng.integers(0, 2, size=4**5 - 1)]
        for state in (oracle.random_quantum_state(5, rng), rac_encode_pbin(bits, 5, 2)):
            margin = check_psd(constraints._density_matrix(state)).margin
            assert abs(margin - oracle.min_eigenvalue(oracle.dense(state))) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_positivity_rungs_are_bounded_by_the_density_matrix(self, n, rng):
        """Every collection's group-matrix eigenvalue is 2**m tr(rho Pi)
        for a projector Pi of rank 2**(n - m), so on complete tables
        local >= commuting >= 2**n lambda_min(rho)."""
        for state in ladder_families(n, rng):
            table = constraints._moment_table(state)
            if np.isnan(table.vector()).any():
                continue
            local = check_local_moments(table).margin
            commuting = check_commuting_moments(table).margin
            density = check_psd(constraints._density_matrix(table)).margin
            assert local >= commuting - 1e-12
            assert commuting >= (1 << n) * density - 1e-12

    def test_density_rung_matches_oracle_on_pr_box(self):
        result = classify_state(pr_box_state(), math.inf)
        assert result.level == "p-nonlocal"
        dense = oracle.dense(oracle.pr_box_coefficient_state())
        assert abs(result.reports[-1].margin - oracle.min_eigenvalue(dense)) <= 1e-12

    @staticmethod
    def _count_conversions(monkeypatch) -> list:
        calls = []
        convert = states.moments_from_probabilities

        def counting(state, *args, **kwargs):
            calls.append(state)
            return convert(state, *args, **kwargs)

        monkeypatch.setattr(states, "moments_from_probabilities", counting)
        return calls

    def test_probability_table_read_once(self, monkeypatch):
        calls = self._count_conversions(monkeypatch)
        result = classify_state(pr_box_state(), math.inf)
        assert len(result.reports) == 4
        assert len(calls) == 1

    @pytest.mark.parametrize("rung", [check_local_moments, check_commuting_moments, check_p_uncertainty])
    def test_direct_rung_calls_convert_a_table_once(self, rung, monkeypatch):
        calls = self._count_conversions(monkeypatch)
        state = pr_box_state()
        args = (2.0,) if rung is check_p_uncertainty else ()
        first, second = rung(state, *args), rung(state, *args)
        assert len(calls) == 1
        assert first == second
        # The kept table is no part of the state's value.
        assert state == pr_box_state()
        assert json.dumps(state.to_json_dict(), sort_keys=True) == json.dumps(
            pr_box_state().to_json_dict(), sort_keys=True
        )

    def test_tol_reaches_the_table_conversion(self):
        """A table one part in 10**6 off normalization converts at the
        rungs' own ``tol``, not at the default."""
        table = {(1,): [0.5 + 1e-6, 0.5], (2,): [0.5, 0.5], (3,): [0.5, 0.5]}
        state = GnstState.from_table(1, table, check=False)
        result = classify_state(state, 2.0, tol=1e-3)
        assert result.level == "quantum-consistent"
        for rung in (check_local_moments, check_commuting_moments):
            assert rung(state, tol=1e-3).passed
        assert check_p_uncertainty(state, 2.0, tol=1e-3).passed
        with pytest.raises(ValidationError, match="sum to 1.000001"):
            classify_state(state, 2.0)

    @pytest.mark.parametrize(
        "state",
        [
            pr_box_state(),
            oracle.random_quantum_state(3, np.random.default_rng(0)),
            MomentTable(2, {(1, 0): 0.3, (2, 1): -0.2}, strict=True),
        ],
        ids=["probability-table", "coefficient-state", "strict-table"],
    )
    def test_classify_builds_the_vector_once(self, state, monkeypatch):
        builds, reads = [], []
        vector = MomentTable.vector

        def counting(table):
            if table._vector is None:
                builds.append(table)
            reads.append(vector(table))
            return reads[-1]

        monkeypatch.setattr(MomentTable, "vector", counting)
        result = classify_state(state, math.inf)
        assert len(result.reports) == 4
        assert len(builds) == 1
        # The uncertainty rung reads the stored moments; the other three the vector.
        assert len(reads) == 3 and all(read is reads[0] for read in reads)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_reports_match_single_rungs(self, n, rng):
        """Each report of the walk equals its rung run alone on a fresh
        copy of the state, with no moment vector shared between them."""

        def fresh(state):
            if isinstance(state, GnstState):
                return state  # read into a new table by every rung
            values = {k: state.value(PauliString.hermitian(n, *k)) for k in state.keys()}
            if isinstance(state, CoefficientState):
                return CoefficientState(n, values)
            return MomentTable(n, values, strict=state.strict)

        rungs = (
            lambda state, p: check_p_uncertainty(fresh(state), p),
            lambda state, p: check_local_moments(fresh(state)),
            lambda state, p: check_commuting_moments(fresh(state)),
            lambda state, p: replace(
                check_psd(constraints._density_matrix(constraints._moment_table(fresh(state)))),
                constraint="density-psd",
            ),
        )
        for state in [*ladder_families(n, rng), *dropped_setting_tables(n, rng)]:
            for p in (1.5, 2.0, 3.0, math.inf):
                result = classify_state(state, p)
                assert result.stopped is None
                alone = [rung(state, p) for rung in rungs[: len(result.reports)]]
                expected = [r.to_json_dict() for r in alone]
                assert [r.to_json_dict() for r in result.reports] == expected


def swap_circuit(n, pairs):
    """System transpositions, each as three CNOTs."""
    gates = [("CNOT", pair) for i, j in pairs for pair in ((i, j), (j, i), (i, j))]
    return CliffordCircuit(n, tuple(gates))


class TestCliffordInvariance:
    """The uncertainty, commuting and density rungs read only what a
    Clifford conjugation keeps: the moments up to sign, the commutation
    pattern and the spectrum.  So random circuits and system swaps leave
    their verdicts alone, the uncertainty margin to the bit (it sums the
    same magnitudes) and the two eigenvalue margins to rounding."""

    @staticmethod
    def reports(state, p):
        return (
            check_p_uncertainty(state, p),
            check_commuting_moments(state),
            check_psd(constraints._density_matrix(state)),
        )

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_three_rungs_are_invariant(self, n, p):
        rng = np.random.default_rng([14, n, int(2 * p)])
        bits = [int(b) for b in rng.integers(0, 2, size=4**n - 1)]
        for state in (
            oracle.random_quantum_state(n, rng),
            rac_encode_pbin(bits, n, p),
            oracle.random_valid_state(n, p, rng),
        ):
            swaps = [tuple(int(i) for i in rng.choice(n, size=2, replace=False)) for _ in range(n)]
            circuits = (oracle.random_circuit(n, rng), oracle.random_circuit(n, rng), swap_circuit(n, swaps))
            before = self.reports(state, p)
            for circuit in circuits:
                after = self.reports(apply_clifford(circuit, state), p)
                assert [r.passed for r in after] == [r.passed for r in before]
                assert after[0].margin == before[0].margin
                for image, base in zip(after[1:], before[1:]):
                    assert abs(image.margin - base.margin) <= 1e-12

    def test_swap_circuit_permutes_systems(self):
        circuit = swap_circuit(3, [(0, 2)])
        image = conjugate_pauli(circuit, PauliString.from_text("XZY"))
        assert image == PauliString.from_text("YZX")


class TestCoefficientStatesAreMomentTables:
    def test_read_in_place(self):
        state = oracle.random_quantum_state(2, np.random.default_rng(0))
        assert constraints._moment_table(state) is state

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_classified_as_their_lenient_table(self, n, rng):
        corpus = [s for s in ladder_families(n, rng) if isinstance(s, CoefficientState)]
        if n < 4:
            corpus += [oracle.random_valid_state(n, p, rng) for p in (1.5, 2.0, 3.0, math.inf)]
        for state in corpus:
            table = MomentTable(n, {k: state.coefficient(*k) for k in state.keys()}, strict=False)
            for p in (1.5, 2.0, 3.0, math.inf):
                assert classify_state(state, p).to_json_dict() == classify_state(table, p).to_json_dict()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_density_skips_unknown_moments(self, n, rng):
        for strict in dropped_setting_tables(n, rng):
            known = {k: strict.value(PauliString.hermitian(n, *k)) for k in strict.keys()}
            lenient = MomentTable(n, known, strict=False)
            margin = lambda t: check_psd(constraints._density_matrix(t)).margin
            assert margin(strict) == margin(lenient)


class TestClassification:
    def test_uncertainty_violation_is_invalid(self):
        state = CoefficientState(1, {(1, 0): 1.0, (0, 1): 1.0})
        result = classify_state(state, 2)
        assert result.level == "invalid"
        assert len(result.reports) == 1

    def test_local_violation_is_p_bin(self):
        table = moments_from_probabilities(pr_box_state())
        coeff = CoefficientState(2, {k: table.value(PauliString.hermitian(2, *k)) for k in table.keys()})
        circuit = CliffordCircuit(2, (("CNOT", (0, 1)),))
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
        assert set(data) == {"level", "reports"}
        assert data["level"] == "quantum-consistent"
        assert all("constraint" in r for r in data["reports"])

    def test_commuting_limit_stops_the_walk(self):
        state = oracle.random_quantum_state(5, np.random.default_rng(0))
        result = classify_state(state, 2)
        assert result.level == "p-box"
        assert [r.constraint for r in result.reports] == ["p-uncertainty", "local-moments"]
        assert result.reports[0].detail["mode"] == "exhaustive"
        assert all(r.passed for r in result.reports)
        assert result.stopped == (
            "commuting-moments",
            f"commuting-set enumeration is limited to n <= {MAX_COMMUTING_SYSTEMS}",
        )
        assert result.to_json_dict()["stopped"] == {
            "constraint": "commuting-moments",
            "reason": result.stopped[1],
        }

    def test_local_limit_stops_the_walk(self):
        result = classify_state(CoefficientState(6, {(1, 0): 0.1}), 2)
        assert result.level == "p-bin"
        assert [r.constraint for r in result.reports] == ["p-uncertainty"]
        assert result.stopped[0] == "local-moments"


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
