import itertools
import math

import numpy as np
import pytest

from boxworld import oracle
from boxworld.constraints import check_p_uncertainty
from boxworld.errors import DimensionError, DomainError, ResourceError, ValidationError
from boxworld.pauli import full_support_strings, hermitian_basis
from boxworld.rac import (
    IndexMap,
    _default_coefficient_address,
    RacParams,
    binary_entropy,
    nayak_bound,
    rac_decode,
    rac_encode,
    rac_encode_gnst,
    rac_encode_pbin,
    rac_encode_pgnst,
    rac_learning_params,
    rac_params,
    rac_repetition_decode,
    rac_repetition_params,
)
from boxworld.states import MomentTable, all_settings


class TestParams:
    def test_table_code_full_strength(self):
        params = rac_params("gnst", 2)
        assert params.encoded_bits == 9
        assert params.carriers == 2
        assert params.recovery == 1.0

    def test_table_code_requires_infinite_p(self):
        with pytest.raises(DomainError):
            rac_params("gnst", 2, p=2)

    def test_finite_p_recovery(self):
        params = rac_params("p-gnst", 1, 2)
        assert params.recovery == pytest.approx(0.5 + 0.5 * 3.0**-0.5)
        assert rac_params("p-box", 1, 2).recovery == params.recovery

    def test_coefficient_code_packs_more(self):
        assert rac_params("p-bin", 2, 2).encoded_bits == 15
        assert rac_params("p-box", 2, 2).encoded_bits == 9

    def test_unknown_theory(self):
        with pytest.raises(DomainError):
            rac_params("quantum", 1)

    def test_dataclass_validation(self):
        with pytest.raises(DomainError):
            RacParams(0, 1, 1.0, math.inf, "gnst")
        with pytest.raises(DomainError):
            RacParams(3, 1, 0.4, math.inf, "gnst")
        with pytest.raises(DomainError):
            RacParams(3, 1, 1.0, math.inf, "spin")

    def test_boundary_recovery_constructs(self):
        assert RacParams(3, 1, 0.5, 1.0, "p-gnst").recovery == 0.5


class TestIndexMap:
    def test_settings_map_order(self):
        index_map = IndexMap.settings_map(1)
        assert [index_map.address_of(j).labels for j in (1, 2, 3)] == [(1,), (2,), (3,)]

    def test_validation(self):
        with pytest.raises(DomainError):
            IndexMap(())
        with pytest.raises(ValidationError):
            IndexMap((1, 1))
        m = IndexMap.settings_map(1)
        with pytest.raises(DomainError):
            m.address_of(0)
        with pytest.raises(DomainError):
            m.address_of(4)


class TestTableEncoding:
    def test_exhaustive_single_carrier(self):
        for bits in itertools.product((0, 1), repeat=3):
            state = rac_encode_gnst(list(bits), 1)
            for j in range(1, 4):
                bit, q = rac_decode(state, j)
                assert bit == bits[j - 1]
                assert q == 1.0

    def test_finite_p_strength(self):
        state = rac_encode_pgnst([0, 1, 0], 1, 2)
        lam = 3.0**-0.5
        assert state.lam == pytest.approx(lam)
        bit, q = rac_decode(state, 2)
        assert bit == 1
        assert q == pytest.approx(rac_params("p-gnst", 1, 2).recovery)

    def test_moment_signs_follow_bits(self):
        bits = [0, 1, 1, 0, 1, 0, 0, 1, 1]
        state = rac_encode_pgnst(bits, 2, 3)
        for j, setting in enumerate(all_settings(2), start=1):
            moment = state.setting_moment(setting)
            assert (moment < 0) == bool(bits[j - 1])

    @pytest.mark.parametrize("n,margin,size", [(1, 0.0, 3), (2, 2 / 5, 3), (3, 3 / 7, 4), (4, 0.0, 9)])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_uncertainty_margin(self, n, margin, size, p):
        """The code saturates the power-sum relation at n = 1 and 4; at
        n = 2 and 3 no 2n+1 full-support strings pairwise anti-commute."""
        bits = [j % 3 % 2 for j in range(3**n)]
        report = check_p_uncertainty(rac_encode_pgnst(bits, n, p), p)
        assert abs(report.margin - margin) <= 1e-12
        assert len(report.worst_set) == size
        if n <= 3:
            sets = oracle.maximal_anticommuting_sets(full_support_strings(n))
            assert max(map(len, sets)) == size

    def test_input_validation(self):
        with pytest.raises(DimensionError):
            rac_encode_gnst([0, 1], 1)
        with pytest.raises(ValidationError):
            rac_encode_gnst([0, 1, 2], 1)
        with pytest.raises(DimensionError):
            rac_encode_pgnst([0] * 4, 1, 2)
        with pytest.raises(ValidationError):
            rac_encode_pgnst([0, 1, 2], 1, 2)
        with pytest.raises(ValidationError):
            rac_encode_pgnst([0, -1, 1], 1, math.inf)


class TestIdentityDefaultMap:
    """Each table code has one layout, the identity on the signs: bit j
    is the sign of the j-th setting in ``all_settings`` order."""

    @staticmethod
    def _samples(n):
        rng = np.random.default_rng(n)
        yield [0] * 3**n
        yield [1] * 3**n
        for _ in range(3):
            yield [int(b) for b in rng.integers(0, 2, size=3**n)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_gnst_default_equals_settings_map(self, n):
        index_map = IndexMap.settings_map(n)
        assert tuple(index_map.address_of(j) for j in range(1, 3**n + 1)) == all_settings(n)
        for bits in self._samples(n):
            state = rac_encode_gnst(bits, n)
            assert state.signs == tuple(1 - 2 * b for b in bits)
            assert [state.setting_moment(s) for s in all_settings(n)] == list(state.signs)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("p", [1, 2, math.inf])
    def test_pgnst_default_equals_settings_map(self, n, p):
        for bits in self._samples(n):
            assert rac_encode_pgnst(bits, n, p).signs == tuple(1 - 2 * b for b in bits)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_default_decode_equals_settings_map(self, n):
        bits = list(self._samples(n))[-1]
        for state in (rac_encode_gnst(bits, n), rac_encode_pgnst(bits, n, 2)):
            for j in range(1, 3**n + 1):
                sign = state.signs[j - 1]
                assert rac_decode(state, j) == ((1 - sign) // 2, 0.5 * (1.0 + state.lam))


class TestOneEncoder:
    """``rac_encode`` maps each theory to its public encoder."""

    ENCODERS = {
        "gnst": lambda bits, n, p: rac_encode_gnst(bits, n),
        "p-gnst": rac_encode_pgnst,
        "p-bin": rac_encode_pbin,
        "p-box": lambda bits, n, p: rac_encode_pbin(bits, n, p, restrict_to_xyz=True),
    }

    @pytest.mark.parametrize("theory", sorted(ENCODERS))
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("p", [1, 2, 3, math.inf])
    def test_dispatch_matches_public_encoder(self, theory, n, p):
        size = rac_params(theory, n, math.inf if theory == "gnst" else p).encoded_bits
        bits = [int(b) for b in np.random.default_rng(n).integers(0, 2, size=size)]
        assert rac_encode(theory, bits, n, p) == self.ENCODERS[theory](bits, n, p)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_strength_is_the_table_code_at_infinity(self, n):
        bits = [int(b) for b in np.random.default_rng(n).integers(0, 2, size=3**n)]
        expected = rac_encode_pgnst(bits, n, math.inf)
        assert rac_encode_gnst(bits, n) == expected
        assert expected.lam == 1.0

    def test_unknown_theory(self):
        with pytest.raises(DomainError, match="unknown theory 'p-nonlocal'"):
            rac_encode("p-nonlocal", [0, 1, 0], 1)

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize("theory", sorted(ENCODERS))
    def test_system_count_below_one(self, theory, n):
        with pytest.raises(DomainError, match="at least one carrier"):
            rac_encode(theory, [0, 1, 0], n, 2)


class TestCoefficientEncoding:
    def test_exhaustive_single_carrier(self):
        for bits in itertools.product((0, 1), repeat=3):
            state = rac_encode_pbin(list(bits), 1, 2)
            for j in range(1, 4):
                bit, q = rac_decode(state, j)
                assert bit == bits[j - 1]
                assert q == pytest.approx(0.5 + 0.5 * 3.0**-0.5)

    def test_unrestricted_addresses_every_string(self):
        bits = [0] * 15
        state = rac_encode_pbin(bits, 2, 2)
        lam = 5.0**-0.5
        for s in hermitian_basis(2):
            assert state.value(s) == pytest.approx(lam)

    def test_restricted_layout(self):
        bits = [1] * 9
        state = rac_encode_pbin(bits, 2, 2, restrict_to_xyz=True)
        assert len(state.keys()) == 9
        for s in full_support_strings(2):
            assert state.value(s) == pytest.approx(-(5.0**-0.5))
        # decode auto-detects the restricted map
        bit, _ = rac_decode(state, 1)
        assert bit == 1

    def test_bit_count_tracks_layout(self):
        with pytest.raises(DimensionError):
            rac_encode_pbin([0] * 9, 2, 2)
        with pytest.raises(DimensionError):
            rac_encode_pbin([0] * 15, 2, 2, restrict_to_xyz=True)
        with pytest.raises(ValidationError):
            rac_encode_pbin([0, 1, 7], 1, 2)

    @pytest.mark.parametrize("restrict", [False, True])
    def test_default_address_equals_standard_map(self, restrict):
        for n in range(1, 5):
            standard = full_support_strings(n) if restrict else tuple(hermitian_basis(n))
            bits = [j % 2 for j in range(len(standard))]
            state = rac_encode_pbin(bits, n, 2, restrict_to_xyz=restrict)
            for j in range(1, len(standard) + 1):
                assert _default_coefficient_address(state, j) == standard[j - 1]
                assert rac_decode(state, j)[0] == bits[j - 1]
            for j in (0, len(standard) + 1):
                with pytest.raises(DomainError, match=f"index {j} outside 1..{len(standard)}"):
                    rac_decode(state, j)

    def test_decode_needs_a_code_state(self):
        with pytest.raises(DomainError, match="cannot decode from MomentTable"):
            rac_decode(MomentTable(1, {(1, 0): 0.5}), 1)


class TestRepetition:
    def test_infinite_p_single_copy(self):
        assert rac_repetition_params(3, math.inf) == (1, 0.0)

    def test_copy_count_is_odd(self):
        for n, p in [(1, 1.0), (1, 2.0), (2, 2.0), (3, 1.5)]:
            copies, failure = rac_repetition_params(n, p)
            assert copies % 2 == 1
            assert failure > 0.0

    def test_known_values(self):
        assert rac_repetition_params(1, 2).copies == 7
        params = rac_repetition_params(1, 1)
        assert params.copies == 27
        assert params.failure_bound == pytest.approx(2.0 * math.exp(-1.5))

    def test_carrier_validation(self):
        with pytest.raises(DomainError):
            rac_repetition_params(0, 2)

    def test_decode_is_seeded(self):
        a = rac_repetition_decode([0, 1, 0], 1, 1, 1, trials=500, seed=5)
        b = rac_repetition_decode([0, 1, 0], 1, 1, 1, trials=500, seed=5)
        assert a == b

    def test_success_beats_failure_bound(self):
        success = rac_repetition_decode([0, 1, 0], 1, 1, 2, trials=2000, seed=0)
        _, failure = rac_repetition_params(1, 1)
        assert success >= 1.0 - failure

    def test_trial_validation(self):
        with pytest.raises(DomainError):
            rac_repetition_decode([0, 1, 0], 1, 1, 1, trials=0)

    def test_size_limit_precedes_encoding(self):
        # No codeword is needed to refuse: the limit is checked first.
        with pytest.raises(ResourceError, match="limited to n <= 12"):
            rac_repetition_decode([], 13, 2, 1)


class TestLearningParams:
    def test_known_value(self):
        assert rac_learning_params(100, 2, 0.25) == 3

    def test_budget_minimum(self):
        with pytest.raises(DomainError):
            rac_learning_params(8, 2, 0.25)

    def test_gamma_domain(self):
        for gamma in (0.0, 0.5, -0.1, 0.9):
            with pytest.raises(DomainError):
                rac_learning_params(100, 2, gamma)

    def test_monotone_in_budget(self):
        values = [rac_learning_params(b, 2, 0.25) for b in (50, 100, 400, 1600)]
        assert values == sorted(values)


class TestInformationBounds:
    def test_entropy_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_entropy_domain(self):
        with pytest.raises(DomainError):
            binary_entropy(1.5)

    def test_nayak_extremes(self):
        assert nayak_bound(9, 1.0) == 9.0
        assert nayak_bound(9, 0.5) == 0.0

    def test_nayak_monotone_in_recovery(self):
        values = [nayak_bound(100, q) for q in (0.5, 0.7, 0.9, 1.0)]
        assert values == sorted(values)
        with pytest.raises(DomainError):
            nayak_bound(9, 0.4)
