import itertools
import math

import numpy as np
import pytest

from boxworld.errors import DimensionError, DomainError, ResourceError
from boxworld.infotasks import (
    LearnParams,
    fat_shattering_lower_bound,
    inner_product,
    ip_oneway_cost,
    learnability_threshold,
    pir_simulate,
    sample_complexity_lower_bound,
    shattering_witness_check,
    simulate_ip_protocol,
)
from boxworld.rac import RacParams, rac_params


class TestOnewayCost:
    def test_table_cost_is_log_of_table_size(self):
        result = ip_oneway_cost(10, math.inf)
        assert result.carriers == 7
        assert result.correctness == 1.0
        assert result.exact

    def test_string_code_halves_the_carriers(self):
        assert ip_oneway_cost(10, 2, "p-bin").carriers == 5
        assert ip_oneway_cost(1, 2, "p-bin").carriers == 1

    def test_single_bit(self):
        assert ip_oneway_cost(1, math.inf).carriers == 1

    def test_finite_p_degrades_correctness(self):
        result = ip_oneway_cost(4, 2)
        assert not result.exact
        assert 0.5 < result.correctness < 1.0
        assert "p = inf" in result.note

    def test_theory_validation(self):
        with pytest.raises(DomainError):
            ip_oneway_cost(4, 2, "carrier-pigeon")
        with pytest.raises(DomainError):
            ip_oneway_cost(0, 2)

    @pytest.mark.parametrize("p, theory", [(math.inf, "p-nonlocal"), (2, "gnst")])
    def test_follows_the_rac_theory_rule(self, p, theory):
        with pytest.raises(DomainError):
            rac_params(theory, 1, p)
        with pytest.raises(DomainError):
            ip_oneway_cost(4, p, theory)

    def test_json_record(self):
        data = ip_oneway_cost(3, math.inf).to_json_dict()
        assert data["task"] == "inner-product"
        assert data["input_bits"] == 3


class TestInnerProduct:
    def test_values(self):
        assert inner_product([1, 1], [1, 1]) == 0
        assert inner_product([1, 0], [1, 1]) == 1
        assert inner_product([0, 0], [1, 1]) == 0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            inner_product([1], [1, 0])


class TestProtocolSimulation:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exact_at_infinity(self, n):
        for x in itertools.product((0, 1), repeat=n):
            for y in itertools.product((0, 1), repeat=n):
                assert simulate_ip_protocol(list(x), list(y)) == inner_product(x, y)

    def test_finite_p_is_seeded(self):
        x, y = [1, 0, 1, 1], [0, 1, 1, 0]
        a = simulate_ip_protocol(x, y, p=2, seed=3)
        assert simulate_ip_protocol(x, y, p=2, seed=3) == a
        assert a in (0, 1)

    def test_finite_p_mostly_correct(self):
        x, y = [1, 1, 0], [1, 0, 1]
        truth = inner_product(x, y)
        hits = sum(
            simulate_ip_protocol(x, y, p=1, seed=s) == truth for s in range(200)
        )
        # per-retrieval success is 1/2 + (2*2+1)**(-1)/2 = 0.6
        assert hits > 100

    @pytest.mark.parametrize("n", [11, 12])
    def test_exact_at_infinity_largest_inputs(self, n):
        # 7 and 8 carriers: the largest truth tables the protocol builds.
        rng = np.random.default_rng(1100 + n)
        for _ in range(20):
            x = [int(b) for b in rng.integers(0, 2, size=n)]
            y = [int(b) for b in rng.integers(0, 2, size=n)]
            assert simulate_ip_protocol(x, y) == inner_product(x, y)
        ones = [1] * n
        assert simulate_ip_protocol(ones, ones) == n & 1
        assert simulate_ip_protocol(ones, [0] * n) == 0

    def test_size_gate(self):
        with pytest.raises(ResourceError):
            simulate_ip_protocol([0] * 13, [0] * 13)

    def test_input_validation(self):
        with pytest.raises(DimensionError):
            simulate_ip_protocol([0, 1], [0])
        with pytest.raises(DomainError):
            simulate_ip_protocol([0, 2], [0, 1])


class TestPir:
    def test_nine_entry_database_costs_two_carriers(self):
        db = [1, 0, 1, 1, 0, 0, 1, 0, 1]
        for i in range(1, 10):
            bit, cost = pir_simulate(db, i)
            assert bit == db[i - 1]
            assert cost == 2

    def test_finite_p_cost_counts_copies(self):
        bit, cost = pir_simulate([0] * 27, 5, p=2, seed=1)
        assert bit == 0
        # 3 carriers, ceil(7**1.5) = 19 boosted copies
        assert cost == 57

    def test_validation(self):
        with pytest.raises(DomainError):
            pir_simulate([], 1)
        with pytest.raises(DomainError):
            pir_simulate([0, 1], 3)
        with pytest.raises(DomainError):
            pir_simulate([0, 2], 1)


class TestShattering:
    def test_witness_dimension_is_the_bit_count(self):
        assert fat_shattering_lower_bound(rac_params("gnst", 2)) == 9
        assert fat_shattering_lower_bound(rac_params("p-bin", 2, 2)) == 15

    def test_no_margin_no_witness(self):
        degenerate = RacParams(3, 1, 0.5, 1.0, "p-gnst")
        with pytest.raises(DomainError):
            fat_shattering_lower_bound(degenerate)

    def test_exhaustive_witness_check(self):
        assert shattering_witness_check(1)
        assert shattering_witness_check(1, p=2)

    def test_witness_check_gate(self):
        with pytest.raises(ResourceError):
            shattering_witness_check(3)


class TestSampleComplexity:
    def test_small_dimension_fails_precondition(self):
        bound = sample_complexity_lower_bound(27, 0.25, 0.1, 0.01)
        assert bound.first_branch == pytest.approx(-0.23658613133612746)
        assert bound.second_branch == pytest.approx(math.log(100.0) / 0.1)
        assert not bound.precondition_ok
        assert bound.precondition_threshold == pytest.approx(24.822338952037864)

    def test_large_dimension_passes_precondition(self):
        bound = sample_complexity_lower_bound(3**10, 0.25, 0.1, 0.01)
        assert bound.precondition_ok
        assert bound.value == max(bound.first_branch, bound.second_branch)

    def test_confidence_branch_scales(self):
        loose = sample_complexity_lower_bound(3**10, 0.25, 0.1, 0.1)
        tight = sample_complexity_lower_bound(3**10, 0.25, 0.1, 0.01)
        assert tight.second_branch > loose.second_branch

    def test_validation(self):
        with pytest.raises(DomainError):
            sample_complexity_lower_bound(0, 0.25, 0.1, 0.01)
        with pytest.raises(DomainError):
            sample_complexity_lower_bound(27, 1.5, 0.1, 0.01)
        with pytest.raises(DomainError):
            sample_complexity_lower_bound(27, 0.25, 0.0, 0.01)
        with pytest.raises(DomainError):
            sample_complexity_lower_bound(27, 0.25, 0.1, 0.0)

    @pytest.mark.parametrize(
        "d", [3**643, 3**646, 3**649, math.inf], ids=["3^643", "3^646", "3^649", "inf"]
    )
    def test_log_argument_past_the_float_range_is_refused(self, d):
        with pytest.raises(DomainError, match="1e308"):
            sample_complexity_lower_bound(d, 0.1, 0.1, 0.1)

    def test_largest_learnable_dimension_is_finite(self):
        bound = sample_complexity_lower_bound(3**639, 0.1, 0.1, 0.1)
        assert bound.value == 2.3671702255649374e298


class TestLearnParams:
    def test_regimes(self):
        base = dict(epsilon=0.1, delta=0.05, dimension=27.0, sample_bound=30.0)
        assert LearnParams(0.25, eta=None, **base).regime == "eta unspecified"
        assert "margin-dominant" in LearnParams(0.25, eta=0.1, **base).regime
        assert "accuracy-dominant" in LearnParams(0.1, eta=0.25, **base).regime
        assert "degenerate" in LearnParams(0.25, eta=0.25, **base).regime

    def test_validation(self):
        with pytest.raises(DomainError):
            LearnParams(0.25, 1.5, 0.05, 27.0, 30.0)


class TestLearnabilityThreshold:
    def test_composition(self):
        report = learnability_threshold(100, 2, 0.25, 0.1, 0.05)
        assert report.carriers == 3
        assert report.dimension == 27
        assert report.asymptotic == "O(3^(budget^0.5))"
        assert report.threshold == pytest.approx(29.957322735539908)
        assert report.params.regime == "eta unspecified"

    def test_json_shape(self):
        data = learnability_threshold(100, 2, 0.25, 0.1, 0.05).to_json_dict()
        assert data["threshold"] == data["bound"]["value"]
        assert data["params"]["dimension"] == 27

    def test_threshold_monotone_in_budget(self):
        thresholds = [
            learnability_threshold(budget, 2, 0.25, 0.1, 0.05).threshold
            for budget in (60, 100, 200, 400, 800)
        ]
        assert thresholds == sorted(thresholds)

    def test_exponent_tracks_p(self):
        assert "0.5" in learnability_threshold(100, 2, 0.25, 0.1, 0.05).asymptotic
        inf_report = learnability_threshold(100, math.inf, 0.25, 0.1, 0.05)
        assert inf_report.asymptotic == "O(3^(budget^1))"
