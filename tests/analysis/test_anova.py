"""Unit tests for repro.analysis.anova."""

import math

import numpy as np
import pytest

from repro.analysis.anova import _f_sf, anova_n_way
from repro.errors import ConfigurationError


def balanced_design(rng, effect_a=10.0, effect_b=0.0, n_rep=8):
    """Two factors x two levels each, with configurable main effects."""
    factors = {"a": [], "b": []}
    response = []
    for a_level in ("a0", "a1"):
        for b_level in ("b0", "b1"):
            for _ in range(n_rep):
                factors["a"].append(a_level)
                factors["b"].append(b_level)
                value = rng.normal(0, 1)
                if a_level == "a1":
                    value += effect_a
                if b_level == "b1":
                    value += effect_b
                response.append(value)
    return factors, response


class TestAnova:
    def test_detects_real_effect(self):
        rng = np.random.default_rng(0)
        factors, response = balanced_design(rng, effect_a=10, effect_b=0)
        result = anova_n_way(factors, response)
        assert result.effect("a").p_value < 1e-10
        assert result.effect("b").p_value > 1e-6

    def test_null_effect_not_significant(self):
        rng = np.random.default_rng(1)
        factors, response = balanced_design(rng, effect_a=0, effect_b=0)
        result = anova_n_way(factors, response)
        assert "a" not in result.significant_factors(alpha=1e-3)
        assert "b" not in result.significant_factors(alpha=1e-3)

    def test_degrees_of_freedom(self):
        rng = np.random.default_rng(2)
        factors, response = balanced_design(rng, n_rep=5)
        result = anova_n_way(factors, response)
        assert result.effect("a").df == 1
        assert result.effect("b").df == 1
        assert result.residual_df == 20 - 1 - 2

    def test_sum_of_squares_decomposes(self):
        rng = np.random.default_rng(3)
        factors, response = balanced_design(rng, effect_a=5, effect_b=3)
        result = anova_n_way(factors, response)
        explained = sum(e.sum_squares for e in result.effects)
        assert explained + result.residual_ss == pytest.approx(result.total_ss)

    def test_three_level_factor(self):
        rng = np.random.default_rng(4)
        levels = ["x", "y", "z"]
        factors = {"f": [levels[i % 3] for i in range(60)]}
        response = [
            {"x": 0.0, "y": 5.0, "z": 10.0}[f] + rng.normal(0, 0.5)
            for f in factors["f"]
        ]
        result = anova_n_way(factors, response)
        assert result.effect("f").df == 2
        assert result.effect("f").p_value < 1e-10

    def test_single_level_factor_is_inert(self):
        rng = np.random.default_rng(5)
        factors = {"only": ["same"] * 30, "real": ["a", "b"] * 15}
        response = [
            (10.0 if r == "b" else 0.0) + rng.normal() for r in factors["real"]
        ]
        result = anova_n_way(factors, response)
        assert result.effect("only").df == 0
        assert result.effect("only").p_value == 1.0
        assert result.effect("real").significant()

    def test_unknown_effect_lookup(self):
        rng = np.random.default_rng(6)
        factors, response = balanced_design(rng)
        result = anova_n_way(factors, response)
        with pytest.raises(ConfigurationError, match="no factor"):
            result.effect("ghost")


class TestValidation:
    def test_needs_observations(self):
        with pytest.raises(ConfigurationError, match="observations"):
            anova_n_way({"a": ["x"]}, [1.0])

    def test_needs_factors(self):
        with pytest.raises(ConfigurationError, match="factor"):
            anova_n_way({}, [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError, match="values for"):
            anova_n_way({"a": ["x", "y"]}, [1.0, 2.0, 3.0])

    def test_needs_replication(self):
        # Saturated model: no residual degrees of freedom.
        with pytest.raises(ConfigurationError, match="residual"):
            anova_n_way({"a": ["x", "y", "z"]}, [1.0, 2.0, 3.0])


class TestInteractions:
    @staticmethod
    def crossed_design(rng, interaction=10.0, n_rep=10):
        """a and b have no main effects; only their combination matters."""
        factors = {"a": [], "b": []}
        response = []
        for a_level in ("a0", "a1"):
            for b_level in ("b0", "b1"):
                for _ in range(n_rep):
                    factors["a"].append(a_level)
                    factors["b"].append(b_level)
                    value = rng.normal(0, 0.5)
                    # XOR-shaped effect: pure interaction.
                    if (a_level == "a1") != (b_level == "b1"):
                        value += interaction
                    response.append(value)
        return factors, response

    def test_pure_interaction_detected(self):
        rng = np.random.default_rng(11)
        factors, response = self.crossed_design(rng)
        result = anova_n_way(factors, response, interactions=[("a", "b")])
        assert result.effect("a:b").significant()
        # The main effects carry (almost) nothing.
        assert result.eta_squared("a:b") > 0.8
        assert result.eta_squared("a") < 0.1

    def test_no_interaction_not_flagged(self):
        rng = np.random.default_rng(12)
        factors = {"a": [], "b": []}
        response = []
        for a_level in ("a0", "a1"):
            for b_level in ("b0", "b1"):
                for _ in range(10):
                    factors["a"].append(a_level)
                    factors["b"].append(b_level)
                    response.append(
                        (5.0 if a_level == "a1" else 0.0) + rng.normal(0, 1)
                    )
        result = anova_n_way(factors, response, interactions=[("a", "b")])
        assert result.effect("a").significant()
        assert not result.effect("a:b").significant(alpha=1e-3)

    def test_unknown_interaction_factor(self):
        rng = np.random.default_rng(13)
        factors, response = self.crossed_design(rng)
        with pytest.raises(ConfigurationError, match="unknown factor"):
            anova_n_way(factors, response, interactions=[("a", "ghost")])

    def test_decomposition_still_holds(self):
        rng = np.random.default_rng(14)
        factors, response = self.crossed_design(rng)
        result = anova_n_way(factors, response, interactions=[("a", "b")])
        explained = sum(e.sum_squares for e in result.effects)
        assert explained + result.residual_ss == pytest.approx(result.total_ss)

    def test_eta_squared_sums_below_one(self):
        rng = np.random.default_rng(15)
        factors, response = self.crossed_design(rng)
        result = anova_n_way(factors, response, interactions=[("a", "b")])
        total = sum(result.eta_squared(e.name) for e in result.effects)
        assert 0 < total <= 1.0


class TestFSurvival:
    """The pure-Python F tail behind every ANOVA p-value."""

    @pytest.mark.parametrize("d2", [1, 4, 17, 120, 1900])
    @pytest.mark.parametrize("f", [0.01, 0.5, 1.0, 3.0, 40.0, 200.0, 1e4])
    def test_two_numerator_df_closed_form(self, f, d2):
        # For d1 = 2 the tail is elementary: (1 + 2F/d2)^(-d2/2); at
        # d2 = 1900, F = 200 it is ~1e-79, far below 2e-16.
        expected = (1.0 + 2.0 * f / d2) ** (-d2 / 2.0)
        assert _f_sf(f, 2, d2) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("d1,d2", [(1, 5), (3, 1900), (30, 50)])
    def test_edges(self, d1, d2):
        assert _f_sf(0.0, d1, d2) == 1.0
        assert _f_sf(-0.0, d1, d2) == 1.0
        assert _f_sf(-3.5, d1, d2) == 1.0
        assert _f_sf(math.inf, d1, d2) == 0.0
        assert _f_sf(math.nan, d1, d2) == 0.0

    @pytest.mark.parametrize("d1,d2", [(1, 5), (2, 30), (3, 1900), (30, 5000)])
    def test_monotone_decreasing_in_f(self, d1, d2):
        values = [_f_sf(f, d1, d2) for f in np.geomspace(1e-3, 1e4, 200)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_matches_scipy_over_grid(self):
        stats = pytest.importorskip("scipy.stats")
        smallest = 1.0
        for d1 in (1, 2, 3, 5, 10, 30):
            for d2 in (5, 20, 100, 500, 1897, 1900, 5000):
                for f in (0.01, 0.1, 0.5, 1, 2, 5, 10, 30, 100, 362.6, 1e3, 1e4):
                    expected = float(stats.f.sf(f, d1, d2))
                    # Near the bottom of the double range the oracle
                    # itself loses digits; compare above it.
                    if expected < 1e-280:
                        continue
                    smallest = min(smallest, expected)
                    assert _f_sf(f, d1, d2) == pytest.approx(
                        expected, rel=1e-10
                    ), (d1, d2, f)
        # The grid covers section 4.3's printed 3.93e-186 regime.
        assert smallest < 1e-186


class TestPValuesMatchScipy:
    """End to end: every ANOVA p-value equals scipy's F tail."""

    @staticmethod
    def assert_p_values_match(result):
        stats = pytest.importorskip("scipy.stats")
        for effect in result.effects:
            if effect.df == 0:
                continue
            expected = float(
                stats.f.sf(effect.f_statistic, effect.df, result.residual_df)
            )
            if expected == 0.0:
                assert effect.p_value == 0.0, effect.name
            else:
                assert effect.p_value == pytest.approx(
                    expected, rel=1e-10
                ), effect.name

    @pytest.mark.parametrize("seed,effect_a,effect_b", [
        (0, 10.0, 0.0), (1, 0.0, 0.0), (3, 5.0, 3.0),
    ])
    def test_balanced(self, seed, effect_a, effect_b):
        rng = np.random.default_rng(seed)
        factors, response = balanced_design(rng, effect_a, effect_b)
        self.assert_p_values_match(anova_n_way(factors, response))

    @pytest.mark.parametrize("seed", [11, 14])
    def test_interaction(self, seed):
        rng = np.random.default_rng(seed)
        factors, response = TestInteractions.crossed_design(rng)
        result = anova_n_way(factors, response, interactions=[("a", "b")])
        self.assert_p_values_match(result)

    def test_underflow_is_exactly_zero(self):
        # An effect 1000 sigma wide: both tails underflow to 0.0.
        rng = np.random.default_rng(7)
        factors, response = balanced_design(rng, effect_a=1000.0, n_rep=50)
        result = anova_n_way(factors, response)
        assert result.effect("a").p_value == 0.0
        self.assert_p_values_match(result)
