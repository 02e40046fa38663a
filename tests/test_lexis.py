"""Dispersion statistics against hand values and exhaustive enumeration."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certiprob import numerics
from certiprob.lexis import (
    CountVector,
    Regime,
    TrialMatrix,
    dispersion_Q,
    dispersion_report,
    empirical_Q_hat,
    expected_D,
    moments_Q_hat,
)

from _oracles import (
    expected_D_three_term,
    expected_q_enumeration,
    q_hat_moments_enumeration,
    q_hat_of_counts,
)


class TestDispersionQ:
    def test_zero_when_counts_sit_at_mean(self):
        counts = CountVector(m=(2, 2, 2), s=4)
        assert dispersion_Q(counts, 0.5) == 0

    def test_hand_value(self):
        counts = CountVector(m=(2, 0), s=2)
        assert dispersion_Q(counts, 0.5) == pytest.approx(2.0)

    def test_monte_carlo_mean_near_one(self):
        # equal-probability case: E(Q) = 1
        rng = np.random.default_rng(321)
        n, s, p = 8, 6, 0.35
        draws = rng.binomial(s, p, size=(4000, n))
        qs = [dispersion_Q(CountVector(m=tuple(row), s=s), p) for row in draws]
        mean = float(np.mean(qs))
        se = float(np.std(qs) / np.sqrt(len(qs)))
        assert abs(mean - 1.0) <= 3 * se

    def test_domain_error(self):
        with pytest.raises(ValueError):
            dispersion_Q(CountVector(m=(1, 2), s=3), 0.0)


class TestExpectedD:
    def test_equal_probabilities_give_one(self):
        trials = TrialMatrix(p=((0.3,) * 4,) * 3)
        D, regime = expected_D(trials)
        assert D == pytest.approx(1.0, abs=1e-12)
        assert regime is Regime.BERNOULLI

    def test_between_series_variation_inflates(self):
        trials = TrialMatrix(p=((0.2,) * 5, (0.8,) * 5))
        D, regime = expected_D(trials)
        assert D > 1
        assert regime is Regime.LEXIS

    def test_within_series_variation_deflates(self):
        trials = TrialMatrix(p=((0.1, 0.9),) * 3)
        D, regime = expected_D(trials)
        assert D < 1
        assert regime is Regime.POISSON

    def test_mixed_regime(self):
        trials = TrialMatrix(p=((0.1, 0.5), (0.7, 0.2)))
        assert expected_D(trials)[1] is Regime.MIXED

    def test_regime_equality_is_exact(self):
        # a 1e-13 gap is a real difference, not rounding noise
        trials = TrialMatrix(p=((0.3, 0.3 + 1e-13),) * 2)
        assert expected_D(trials)[1] is Regime.POISSON

    def test_fraction_equals_its_float(self):
        trials = TrialMatrix(p=((Fraction(1, 2), 0.5),) * 2)
        assert expected_D(trials)[1] is Regime.BERNOULLI

    def test_matches_full_enumeration(self):
        # tiny instances: E(Q) summed over every 0/1 outcome
        rng = random.Random(77)
        for _ in range(4):
            n, s = rng.choice([(2, 2), (2, 3), (3, 2)])
            mat = tuple(
                tuple(Fraction(rng.randint(1, 9), 10) for _ in range(s))
                for _ in range(n)
            )
            D, _ = expected_D(TrialMatrix(p=mat))
            want = expected_q_enumeration(mat)
            assert D == want  # both exact rationals

    def test_three_term_identity(self):
        rng = random.Random(42)
        for _ in range(10):
            n, s = rng.randint(1, 8), rng.randint(1, 8)
            mat = tuple(
                tuple(rng.uniform(0.05, 0.95) for _ in range(s)) for _ in range(n)
            )
            trials = TrialMatrix(p=mat)
            D, _ = expected_D(trials)
            assert D == pytest.approx(expected_D_three_term(trials), abs=1e-12)

    def test_row_permutation_invariance(self):
        rows = ((0.2, 0.4, 0.1), (0.7, 0.9, 0.8), (0.5, 0.5, 0.5))
        base = expected_D(TrialMatrix(p=rows))
        shuffled = expected_D(TrialMatrix(p=(rows[2], rows[0], rows[1])))
        assert base[0] == pytest.approx(shuffled[0], abs=1e-14)
        assert base[1] is shuffled[1]

    def test_degenerate_mean(self):
        with pytest.raises(ValueError):
            expected_D(TrialMatrix(p=((0.0, 0.0),)))

    def test_nonnegative_everywhere(self):
        rng = random.Random(909)
        for _ in range(30):
            n, s = rng.randint(1, 6), rng.randint(1, 6)
            mat = tuple(
                tuple(rng.uniform(0.01, 0.99) for _ in range(s)) for _ in range(n)
            )
            D, _ = expected_D(TrialMatrix(p=mat))
            assert D >= 0

    def test_unity_when_correction_terms_cancel(self):
        # rows (0.7, 0.5) and (0.5, 0.3): between-series term 4a^2 = 0.04
        # exactly offsets within-series term 2(b^2+c^2) = 0.04, so D = 1
        # without the matrix being a constant one
        trials = TrialMatrix(p=((0.7, 0.5), (0.5, 0.3)))
        D, regime = expected_D(trials)
        assert D == pytest.approx(1.0, abs=1e-12)
        assert regime is Regime.MIXED


class TestEmpiricalQHat:
    def test_degenerate_pools(self):
        assert empirical_Q_hat(CountVector(m=(0, 0, 0), s=2)) == 1
        assert empirical_Q_hat(CountVector(m=(2, 2, 2), s=2)) == 1

    def test_equal_counts_give_zero(self):
        assert empirical_Q_hat(CountVector(m=(1, 1, 1), s=2)) == 0

    def test_hand_value(self):
        # 2*3/1 * (0.25 + 0.25) / (3*1) = 1
        assert empirical_Q_hat(CountVector(m=(2, 1), s=2)) == 1

    def test_matches_independent_expression(self):
        rng = random.Random(11)
        for _ in range(20):
            n, s = rng.randint(2, 6), rng.randint(1, 5)
            m = tuple(rng.randint(0, s) for _ in range(n))
            assert empirical_Q_hat(CountVector(m=m, s=s)) == q_hat_of_counts(m, s)

    def test_needs_two_series(self):
        with pytest.raises(ValueError):
            empirical_Q_hat(CountVector(m=(1,), s=2))


class TestMomentsQHat:
    def test_frozen_small_case(self):
        mean, var, bound1, bound2 = moments_Q_hat(2, 2, Fraction(1, 2))
        assert mean == 1
        assert var == Fraction(3, 4)
        assert bound1 == 8
        assert bound2 is None  # n < 5

    def test_matches_enumeration(self):
        for n, s, p in ((2, 2, Fraction(1, 2)), (3, 2, Fraction(3, 10)),
                        (2, 3, Fraction(2, 5)), (4, 2, Fraction(1, 3))):
            mean, var, _, _ = moments_Q_hat(n, s, p)
            e_mean, e_var = q_hat_moments_enumeration(n, s, p)
            assert mean == e_mean == 1
            assert var == e_var

    def test_variance_below_bounds(self):
        for n, s, p in ((2, 2, 0.5), (3, 4, 0.2), (5, 4, 0.3), (7, 3, 0.8)):
            _, var, bound1, bound2 = moments_Q_hat(n, s, p)
            assert var < bound1
            if n >= 5:
                assert bound2 == pytest.approx(2 / (n - 1))
                assert var < bound2

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            moments_Q_hat(2, 1, 0.5)  # N = 2 <= 3
        with pytest.raises(ValueError):
            moments_Q_hat(1, 10, 0.5)  # single series


class TestReportAssembly:
    def test_bernoulli_report(self):
        trials = TrialMatrix(p=((0.5, 0.5), (0.5, 0.5)))
        counts = CountVector(m=(2, 0), s=2)
        report = dispersion_report(trials, counts)
        assert report.regime is Regime.BERNOULLI
        assert report.D == pytest.approx(1.0, abs=1e-12)
        assert report.Q == pytest.approx(2.0)
        assert report.Q_hat == pytest.approx(3.0)  # m=(2,0): 6*2/(2*2)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dispersion_report(
                TrialMatrix(p=((0.5, 0.5),)), CountVector(m=(1, 1), s=2)
            )


class TestValidation:
    def test_matrix_entries_checked(self):
        with pytest.raises(ValueError):
            TrialMatrix(p=((0.5, 1.2),))
        with pytest.raises(ValueError):
            TrialMatrix(p=((0.5, 0.5), (0.5,)))

    @pytest.mark.parametrize("build, message", [
        (lambda: TrialMatrix(p=()), "at least one row and one column"),
        (lambda: CountVector(m=(), s=0), "s must be positive"),
    ], ids=["empty-matrix", "zero-trials"])
    def test_empty_shapes_refused(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_counts_checked(self):
        with pytest.raises(ValueError):
            CountVector(m=(3,), s=2)
        with pytest.raises(ValueError):
            CountVector(m=(-1,), s=2)


class TestMomentsQHatFloatWeights:
    def test_large_board_matches_exact(self, monkeypatch):
        # N = 1200: C(N, M) alone overflows a float, the log-space weights do
        # not; all 1199 come from one lead term and the pmf ratio sweep
        calls = []
        lead = numerics.log_binom_pmf
        monkeypatch.setattr(numerics, "log_binom_pmf", lambda *a: calls.append(a) or lead(*a))
        _, var, _, _ = moments_Q_hat(40, 30, 0.3)
        assert len(calls) == 1
        _, exact, _, _ = moments_Q_hat(40, 30, Fraction(3, 10))
        assert var == pytest.approx(float(exact), rel=1e-12)

    def test_float_p_matches_its_exact_rational(self):
        # the decimal is within 2**-53 relative of the float and keeps the
        # exact twin's denominators small; Fraction(0.35) has one near 2**54
        for n, s, p in ((20, 39, 0.35), (6, 5, 0.4), (12, 12, 0.9)):
            float_moments = moments_Q_hat(n, s, p)
            exact_moments = moments_Q_hat(n, s, Fraction(str(p)))
            for got, want in zip(float_moments, exact_moments):
                if want is None:
                    assert got is None
                else:
                    assert got == pytest.approx(float(want), rel=1e-12)

    def test_certain_outcomes_have_zero_variance(self):
        for p in (0.0, 1.0):
            _, var, _, _ = moments_Q_hat(5, 4, p)
            assert var == moments_Q_hat(5, 4, Fraction(p))[1] == 0

    def test_probability_out_of_range(self):
        # a Fraction p used to pass unchecked: 3/2 gave a variance of 2317.9
        for p in (Fraction(3, 2), Fraction(-1, 2), 1.5, -0.5):
            with pytest.raises(ValueError):
                moments_Q_hat(5, 4, p)


@st.composite
def moment_cases(draw):
    """(n, s, p) with N = n*s from 4 to about 1200 and a dyadic p = a/256,
    which a float holds exactly."""
    N = round(10 ** draw(st.floats(math.log10(4), math.log10(1200))))
    n = draw(st.integers(2, N // 2))
    return n, N // n, Fraction(draw(st.integers(1, 255)), 256)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(moment_cases())
def test_float_moments_match_their_exact_twin(case):
    n, s, p = case
    for got, want in zip(moments_Q_hat(n, s, float(p)), moments_Q_hat(n, s, p)):
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(float(want), rel=1e-12)
