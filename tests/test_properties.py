"""Property tests of the float tail engine against 50-digit references.

They reach the regimes where floats fail: n up to 1e7 for the lead term,
1e6 for brackets, p near 0 and 1 (for the lead term past the float
range), and k at both ends of its range.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from certiprob.binom_tail import TailQuery, bracket_tail, left_tail_bracket
from certiprob.numerics import LOG_PMF_ERROR_ULPS, log_binom_pmf

from _oracles import log_pmf_mpmath, tail_interval_mpmath

U = 2.0**-53

# p anywhere in (0, 1), or near either end: floats down to the smallest
# subnormal and up to 1 - 2**-53, and rationals below the float range
probabilities = st.one_of(
    st.floats(1e-6, 1 - 1e-6),
    st.floats(5e-324, 1e-2),
    st.floats(1.2e-16, 1e-2).map(lambda x: 1.0 - x),
    st.integers(2, 10**400).map(lambda d: Fraction(1, d)),
    st.integers(2, 10**400).map(lambda d: 1 - Fraction(1, d)),
)


@st.composite
def pmf_cases(draw):
    n = round(10 ** draw(st.floats(0, 7)))  # log-uniform: large n often
    p = draw(probabilities)
    sd = math.sqrt(n * float(p) * (1 - float(p)))
    k = draw(st.one_of(
        st.sampled_from((0, n)),
        st.integers(0, n),
        st.floats(-8, 8).map(lambda z: min(max(round(n * float(p) + z * sd), 0), n)),
    ))
    return n, k, p


def check_log_pmf(n, k, p):
    got = log_binom_pmf(n, k, p)
    ref = log_pmf_mpmath(n, k, p)
    assert got <= 0.0
    assert abs(got - ref) <= LOG_PMF_ERROR_ULPS * U * max(abs(float(ref)), 1.0)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(pmf_cases())
def test_log_pmf_within_stated_bound(case):
    check_log_pmf(*case)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(10**5, 10**7), st.floats(0.05, 0.95), st.floats(-4, 4))
def test_log_pmf_within_stated_bound_near_the_mean(n, p, z):
    # a few sd from the mean of a large n the pmf is ill-conditioned in p:
    # one rounding of n*p moves the log by |k - np| ulps, about sqrt(n)
    check_log_pmf(n, round(n * p + z * math.sqrt(n * p * (1 - p))), p)


@st.composite
def tail_cases(draw):
    """(n, l, p, tol) with l a depth-bounded distance right of the mean."""
    n = draw(st.integers(10, 10**6))
    p = draw(st.floats(0.01, 0.99))
    sd = math.sqrt(n * p * (1 - p))
    l = math.floor(n * p + draw(st.floats(0.5, 8)) * sd) + 1
    tol = draw(st.sampled_from((1e-4, 1e-8, 1e-11)))
    return n, min(l, n - 1), p, tol


def check_enclosure(bracket, interval, tol):
    lo, hi = interval
    assert 0.0 <= bracket.lower <= lo and hi <= bracket.upper <= 1.0
    if bracket.converged:
        assert bracket.upper - bracket.lower <= tol * bracket.upper


@settings(max_examples=80, deadline=None, derandomize=True)
@given(tail_cases())
def test_right_bracket_encloses_reference(case):
    n, l, p, tol = case
    if l <= n * Fraction(p):
        return
    bracket = bracket_tail(TailQuery(n, l, p), tol=tol, k_max=400)
    check_enclosure(bracket, tail_interval_mpmath(n, l, Fraction(p)), tol)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(tail_cases())
def test_left_bracket_encloses_reference(case):
    n, m, q, tol = case  # mirror: P(S_n <= n-m-1 | p) = P(S'_n > m | q)
    p = 1.0 - q
    l = n - m - 1
    if m <= n * (1 - Fraction(p)):
        return
    bracket = left_tail_bracket(n, l, p, tol=tol, k_max=400)
    check_enclosure(bracket, tail_interval_mpmath(n, m, 1 - Fraction(p)), tol)
