"""Sample-size bound tests: exact alpha, the ceiling, the guarantee."""

import math
from fractions import Fraction

import mpmath
import pytest

from certiprob import lln_bounds
from certiprob.lln_bounds import (
    LlnQuery,
    bernoulli_alpha,
    bernoulli_n_bound,
    bernoulli_n_bound_two_sided,
    cantelli_n,
    upper_count,
)
from certiprob.numerics import binom_tail_exact

from _oracles import lln_alpha_mpmath


def alpha_by_multiplication(p, eps, eta):
    """The defining iteration, as an independent reference."""
    ratio = Fraction(p) / (Fraction(p) + Fraction(eps))
    a, power = 1, ratio
    while power > Fraction(eta):
        power *= ratio
        a += 1
    return a


class TestBernoulliAlpha:
    def test_boundary_case(self):
        assert bernoulli_alpha(LlnQuery(0.5, 0.5, 0.5)) == 1  # (1/2)^1 <= 1/2
        # 3/8 has the denominator of (1/2)^3 but is no power of 1/2
        assert bernoulli_alpha(LlnQuery(0.5, 0.5, Fraction(3, 8))) == 2
        assert bernoulli_alpha(LlnQuery(0.5, 0.5, Fraction(1, 8))) == 3

    def test_frozen_value(self):
        # iterating (5/6)^a below 0.01 takes 26 steps
        assert bernoulli_alpha(LlnQuery(0.5, 0.1, 0.01)) == 26

    def test_exact_rational_case(self):
        q = LlnQuery(Fraction(1, 3), Fraction(1, 6), Fraction(1, 20))
        assert bernoulli_alpha(q) == alpha_by_multiplication(
            Fraction(1, 3), Fraction(1, 6), Fraction(1, 20)
        )

    def test_minimality_characterization(self):
        for p_den, e_den, h_den in ((3, 7, 11), (2, 5, 9), (7, 9, 4)):
            p = Fraction(1, p_den)
            eps = Fraction(1, e_den)
            eta = Fraction(1, h_den)
            if p + eps > 1:
                continue
            a = bernoulli_alpha(LlnQuery(p, eps, eta))
            ratio = p / (p + eps)
            assert ratio**a <= eta
            assert a == 1 or ratio ** (a - 1) > eta

    def test_eta_below_the_float_range(self):
        # float(eta) is 0.0 here; the answer is still pinned exactly
        p, eps, eta = Fraction(1, 2), Fraction(1, 10), Fraction(1, 10**400)
        a = bernoulli_alpha(LlnQuery(p, eps, eta))
        ratio = p / (p + eps)
        assert ratio**a <= eta < ratio ** (a - 1)
        assert a == 5052

    def test_matches_iteration_on_grid(self):
        for p in (0.2, 0.5, 0.8):
            for eps in (0.05, 0.1):
                for eta in (0.5, 0.05, 0.001):
                    if p + eps > 1:
                        continue
                    got = bernoulli_alpha(LlnQuery(p, eps, eta))
                    assert got == alpha_by_multiplication(p, eps, eta)


class TestBernoulliAlphaSmallEps:
    @pytest.mark.parametrize("eps", [1e-5, 1e-6, 1e-7, Fraction(1, 10**7), Fraction(1, 10**20),
                                     1e-40, Fraction(1, 10**40)])
    def test_matches_mpmath(self, eps):
        # alpha runs to 10^5 .. 10^40, past where exact powers are affordable
        q = LlnQuery(Fraction(1, 2), eps, Fraction(1, 10))
        assert bernoulli_alpha(q) == lln_alpha_mpmath(q.p, q.eps, q.eta)

    def test_ln_ratio_rounds_to_zero_at_first(self):
        # at 32 digits the ratio rounds to 1 and its log to 0, which does
        # not bound x; the precision doubles until it does.  150-digit
        # mpmath gives x = ...038006.6587
        q = LlnQuery(Fraction(1, 2), Fraction(1, 10**40), Fraction(1, 10))
        assert bernoulli_alpha(q) == 11512925464970228420089957273421821038007

    @pytest.mark.parametrize("k", [1, 2, 5, 13, 40])
    def test_eta_an_exact_power_of_the_ratio(self, k):
        # ratio^k == eta makes ln eta / ln ratio the integer k itself
        p, eps = Fraction(2, 7), Fraction(1, 7)
        ratio = p / (p + eps)
        nudge = Fraction(1, 10**60)
        assert bernoulli_alpha(LlnQuery(p, eps, ratio**k)) == k
        assert bernoulli_alpha(LlnQuery(p, eps, ratio**k * (1 + nudge))) == k
        assert bernoulli_alpha(LlnQuery(p, eps, ratio**k * (1 - nudge))) == k + 1


class TestBernoulliNBound:
    def test_direct_evaluation(self):
        # alpha = 1: ceil[(1*(1.5) - 0.5) / (0.5 * 1.0)] = 2
        assert bernoulli_n_bound(LlnQuery(0.5, 0.5, 0.5)) == 2

    def test_weakly_decreasing_in_eta(self):
        bounds = [
            bernoulli_n_bound(LlnQuery(0.4, 0.1, eta))
            for eta in (0.01, 0.05, 0.1, 0.3, 0.6, 0.9)
        ]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))

    def test_one_sided_guarantee_spot_checks(self):
        for p, eps, eta in ((0.5, 0.5, 0.5), (0.5, 0.1, 0.05), (0.3, 0.2, 0.1)):
            q = LlnQuery(p, eps, eta)
            N = bernoulli_n_bound(q)
            mu = upper_count(N, q)
            assert binom_tail_exact(N, mu - 1, p) < eta

    def test_invalid_query(self):
        with pytest.raises(ValueError):
            LlnQuery(0.9, 0.2, 0.1)  # p + eps > 1
        with pytest.raises(ValueError, match=r"^eps must lie strictly in \(0, 1\), got 0\.0$"):
            LlnQuery(0.5, 0.0, 0.1)
        with pytest.raises(ValueError, match=r"^p must lie strictly in \(0, 1\), got 1\.1$"):
            LlnQuery(1.1, 0.1, 0.1)  # not the exact 2476979795053773/2251799813685248

    def test_inputs_read_once(self, monkeypatch):
        # the query keeps its inputs as given and their exact values beside
        # them; the bounds compute from those and convert nothing again
        q = LlnQuery(0.3, 0.05, 0.01)
        assert (q.p, q.eps, q.eta) == (0.3, 0.05, 0.01)
        assert q.exact == (Fraction(0.3), Fraction(0.05), Fraction(0.01))
        assert repr(q) == "LlnQuery(p=0.3, eps=0.05, eta=0.01)"
        want = (bernoulli_alpha(q), bernoulli_n_bound(q))
        monkeypatch.setattr(lln_bounds, "_as_fraction", None)
        assert (bernoulli_alpha(q), bernoulli_n_bound(q)) == want
        assert upper_count(want[1], q) == math.ceil(want[1] * (Fraction(0.3) + Fraction(0.05)))


class TestUpperCount:
    def test_ceiling_convention(self):
        # mu - 1 < N(p + eps) <= mu, exact integers included
        q = LlnQuery(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
        assert upper_count(2, q) == 2  # 2 * 1.0 exactly
        q2 = LlnQuery(Fraction(1, 2), Fraction(1, 10), Fraction(1, 2))
        assert upper_count(5, q2) == 3  # 5 * 0.6 = 3 exactly
        assert upper_count(6, q2) == 4  # 6 * 0.6 = 3.6 -> 4


class TestTwoSided:
    def test_requires_eps_below_p(self):
        with pytest.raises(ValueError, match=r"\(p=0\.1, eps=0\.3\)$"):
            bernoulli_n_bound_two_sided(LlnQuery(0.1, 0.3, 0.1))

    def test_covers_both_tails(self):
        q = LlnQuery(0.4, 0.1, 0.1)
        N = bernoulli_n_bound_two_sided(q)
        assert N >= bernoulli_n_bound(LlnQuery(0.4, 0.1, 0.05))
        assert N >= bernoulli_n_bound(LlnQuery(0.6, 0.1, 0.05))


class TestCantelli:
    def test_frozen_value(self):
        # 200 ln(4000) + 2 = 1660.81..., smallest strictly greater integer
        assert cantelli_n(0.1, 0.1) == 1661

    def test_direct_evaluation(self):
        want = math.floor(8 * math.log(32) + 2) + 1
        assert cantelli_n(0.5, 0.5) == want == 30

    def test_monotone_in_eta(self):
        assert cantelli_n(0.1, 0.05) > cantelli_n(0.1, 0.1)

    def test_dominates_single_trial_chebyshev(self):
        # Chebyshev at a single trial count needs n >= pq/(eps^2 eta); the
        # all-following-trials bound must exceed it on this moderate-eta
        # grid (for very small eta the comparison genuinely reverses)
        for eps in (0.05, 0.1, 0.3):
            for eta in (0.05, 0.1, 0.3, 0.5):
                n_cheb = math.ceil(0.25 / (eps**2 * eta))
                assert cantelli_n(eps, eta) >= n_cheb

    def test_domain(self):
        with pytest.raises(ValueError):
            cantelli_n(0.0, 0.5)
        with pytest.raises(ValueError):
            cantelli_n(0.5, 1.0)
        with pytest.raises(ValueError):
            cantelli_n(math.nan, 0.5)

    # eps = 1/10 puts the value at 1203 when eta = 400 exp(-6.005)
    # = 0.98655573944362048677...; these two eta sit about 1.15e-16 below
    # and above it, so the value is 1203 + 2.0e-15 and 1203 - 4.5e-14
    @pytest.mark.parametrize("eta_num, want", [
        (3946222957774481487, 1204),
        (3946222957774482407, 1203),
    ])
    def test_near_integer_value_matches_mpmath(self, eta_num, want):
        eps, eta = Fraction(1, 10), Fraction(eta_num, 4 * 10**18)
        with mpmath.workdps(50):
            e = mpmath.mpf(1) / 10
            h = mpmath.mpf(eta.numerator) / eta.denominator
            value = 2 / e**2 * mpmath.log(4 / (e**2 * h)) + 2
            assert int(mpmath.floor(value)) + 1 == want
        assert cantelli_n(eps, eta) == want

    def test_float_inputs_are_their_exact_values(self):
        # the floats nearest the two eta above, against their binary values
        for eta_num in (3946222957774481487, 3946222957774482407):
            eta = eta_num / (4 * 10**18)
            with mpmath.workdps(50):
                e, h = mpmath.mpf(0.1), mpmath.mpf(eta)
                value = 2 / e**2 * mpmath.log(4 / (e**2 * h)) + 2
                assert cantelli_n(0.1, eta) == int(mpmath.floor(value)) + 1

    def test_past_the_float_range(self):
        # eps**2 underflows a double; the value has about 400 digits
        eps, eta = Fraction(1, 10**200), Fraction(1, 3)
        with mpmath.workdps(450):
            value = 2 * mpmath.mpf(10) ** 400 * mpmath.log(12 * mpmath.mpf(10) ** 400) + 2
            assert cantelli_n(eps, eta) == int(mpmath.floor(value)) + 1
