import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxworld.constraints import check_p_uncertainty, validate_gnst
from boxworld.errors import DimensionError, DomainError, ValidationError
from boxworld.games import (
    CHSH_XZ_PAIRS,
    XorGame,
    build_xor_game_state,
    chsh_game,
    chsh_optimal_state,
    chsh_type_games,
    chsh_value,
    chsh_win_probability,
    equatorial_state,
    pgnst_chsh_state,
    random_xor_game,
    tsirelson_optimize,
    xor_game_value,
)
from boxworld.pauli import PauliString
from boxworld.states import (
    CoefficientState,
    FiducialSetting,
    moments_from_probabilities,
    pr_box_state,
)

EXPONENTS = [1.0, 1.5, 2.0, 3.0, 10.0, math.inf]


class TestWinProbability:
    def test_landmark_values(self):
        assert chsh_win_probability(1) == pytest.approx(0.75)
        assert chsh_win_probability(2) == pytest.approx(0.5 + 2.0**-1.5)
        assert chsh_win_probability(math.inf) == pytest.approx(1.0)

    def test_monotone_in_p(self):
        values = [chsh_win_probability(p) for p in EXPONENTS]
        assert values == sorted(values)

    def test_domain(self):
        with pytest.raises(DomainError):
            chsh_win_probability(0.5)


class TestOptimalState:
    def test_coefficients_at_two(self):
        state = chsh_optimal_state(2)
        mu = 2.0**-0.5
        expected = {"ZZ": 1.0, "XX": mu, "XY": mu, "YX": mu, "YY": -mu}
        for text, value in expected.items():
            assert state.expectation(PauliString.from_text(text)) == pytest.approx(
                value, abs=1e-12
            )
        assert len(state.keys()) == 5

    def test_equatorial_weights(self):
        state = equatorial_state(3)
        mu = 2.0 ** (-1.0 / 3.0)
        assert state.expectation(PauliString.from_text("X")) == pytest.approx(mu)
        assert state.expectation(PauliString.from_text("Y")) == pytest.approx(mu)

    @pytest.mark.parametrize("p", EXPONENTS)
    def test_uncertainty_tight(self, p):
        report = check_p_uncertainty(chsh_optimal_state(p), p)
        assert report.passed
        assert report.margin >= -1e-12


class TestChshValue:
    @pytest.mark.parametrize("p", EXPONENTS)
    def test_optimal_value(self, p):
        assert chsh_value(chsh_optimal_state(p)) == pytest.approx(
            4.0 * 2.0 ** (-1.0 / p)
        )

    @pytest.mark.parametrize("p", EXPONENTS)
    def test_win_probability_identity(self, p):
        value = chsh_value(chsh_optimal_state(p))
        assert value == pytest.approx(8.0 * (chsh_win_probability(p) - 0.5))

    def test_pr_box_reaches_algebraic_maximum(self):
        assert chsh_value(pr_box_state(), CHSH_XZ_PAIRS) == pytest.approx(4.0)

    def test_moment_table_input(self):
        table = moments_from_probabilities(pr_box_state())
        assert chsh_value(table, CHSH_XZ_PAIRS) == pytest.approx(4.0)

    def test_unrelated_state_scores_zero(self):
        state = CoefficientState(2, {(0, 3): 0.5})
        assert chsh_value(state) == 0.0

    def test_needs_two_systems(self):
        with pytest.raises(DimensionError):
            chsh_value(CoefficientState(1, {(1, 0): 0.5}))


class TestPgnst:
    @pytest.mark.parametrize("p", [1.0, 2.0, 10.0])
    def test_correlated_settings(self, p):
        state = pgnst_chsh_state(p)
        lam = 2.0 ** (-1.0 / p)
        assert state.setting_moment(FiducialSetting((1, 1))) == pytest.approx(lam)
        assert state.setting_moment(FiducialSetting((2, 2))) == pytest.approx(-lam)
        assert state.setting_moment(FiducialSetting((1, 3))) == pytest.approx(0.0)

    def test_structurally_valid(self):
        assert validate_gnst(pgnst_chsh_state(2)).passed

    def test_matches_formula(self):
        for p in EXPONENTS:
            value = chsh_value(pgnst_chsh_state(p), CHSH_XZ_PAIRS)
            assert value == pytest.approx(8.0 * (chsh_win_probability(p) - 0.5))

    def test_infinite_p_is_the_nonlocal_box(self):
        state = pgnst_chsh_state(math.inf)
        moments = [
            state.setting_moment(FiducialSetting(labels))
            for labels in ((1, 1), (1, 2), (2, 1), (2, 2))
        ]
        assert moments == [1.0, 1.0, 1.0, -1.0]


class TestTsirelson:
    def test_optimum(self):
        result = tsirelson_optimize()
        assert result.value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-8)
        assert result.x == pytest.approx(math.sqrt(0.5), abs=1e-6)
        assert result.y == pytest.approx(math.sqrt(0.5), abs=1e-6)

    def test_moment_pairing(self):
        result = tsirelson_optimize()
        m = result.moments
        assert m == (result.x, result.y, result.y, -result.x)
        assert abs(result.feasibility_margin) < 1e-6

    def test_tol_validation(self):
        with pytest.raises(DomainError):
            tsirelson_optimize(tol=0.0)


class TestXorGame:
    def test_chsh_table(self):
        game = chsh_game()
        assert game.wins == ((0, 0), (0, 1))
        assert sum(v for row in game.pi for v in row) == pytest.approx(1.0)

    def test_validation(self):
        quarter = ((0.25, 0.25), (0.25, 0.25))
        with pytest.raises(DomainError):
            XorGame(0, 2, (), ())
        with pytest.raises(DimensionError):
            XorGame(2, 2, ((0.5, 0.5),), ((0, 0), (0, 1)))
        with pytest.raises(ValidationError):
            XorGame(2, 2, ((0.5, 0.5), (0.5, 0.5)), ((0, 0), (0, 1)))
        with pytest.raises(ValidationError):
            XorGame(2, 2, ((0.75, 0.75), (-0.25, -0.25)), ((0, 0), (0, 1)))
        with pytest.raises(ValidationError):
            XorGame(2, 2, quarter, ((0, 0), (0, 2)))

    def test_json_round_trip(self):
        game = random_xor_game(2, 3, seed=7)
        data = game.to_json_dict()
        assert set(data) == {"S", "T", "pi", "V"}
        assert XorGame.from_json_dict(data) == game

    def test_sixteen_distinct_two_question_games(self):
        games = chsh_type_games()
        assert len(games) == 16
        assert len({g.wins for g in games}) == 16

    def test_random_game_seeded(self):
        assert random_xor_game(3, 3, 0) == random_xor_game(3, 3, 0)
        assert random_xor_game(3, 3, 0).wins != random_xor_game(3, 3, 1).wins


class TestXorStrategy:
    def test_chsh_at_two_matches_quantum_bound(self):
        state, strategy = build_xor_game_state(chsh_game(), 2)
        assert strategy.win_probability == pytest.approx(0.5 + 2.0**-1.5)
        assert xor_game_value(chsh_game(), strategy) == pytest.approx(
            strategy.win_probability
        )
        assert check_p_uncertainty(state, 2).passed

    def test_any_game_won_outright_at_infinity(self):
        game = random_xor_game(3, 3, seed=2)
        _, strategy = build_xor_game_state(game, math.inf)
        assert xor_game_value(game, strategy) == pytest.approx(1.0)

    @pytest.mark.parametrize("game", chsh_type_games())
    def test_all_two_question_games_at_infinity(self, game):
        _, strategy = build_xor_game_state(game, math.inf)
        assert xor_game_value(game, strategy) == pytest.approx(1.0)

    def test_strategy_must_cover_questions(self):
        _, strategy = build_xor_game_state(chsh_game(), 2)
        bigger = random_xor_game(3, 3, seed=0)
        with pytest.raises(DomainError):
            xor_game_value(bigger, strategy)

    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(0, 50),
        st.sampled_from(EXPONENTS),
    )
    def test_value_is_a_probability(self, s_count, t_count, seed, p):
        game = random_xor_game(s_count, t_count, seed)
        state, strategy = build_xor_game_state(game, p)
        value = xor_game_value(game, strategy)
        assert -1e-12 <= value <= 1.0 + 1e-12
        assert check_p_uncertainty(state, p).passed
