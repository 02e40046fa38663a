"""Property tests of the float tail engine against 50-digit references.

They reach the regimes where floats fail: n up to 1e7 for the lead term,
1e6 for brackets, p near 0 and 1 (for the lead term past the float
range), and k at both ends of its range.
"""

import math
import sys
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from certiprob.binom_tail import (
    TailQuery, _guard, _lead_ulps, bahadur_tail, bracket_tail, left_tail_bracket,
)
from certiprob.numerics import LOG_PMF_ERROR_ULPS, log_binom_pmf

from _oracles import convergent_stream, log_pmf_mpmath, tail_interval_mpmath

U = 2.0**-53
TINY = sys.float_info.min

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


def stream_brackets(q, k_cap):
    """bracket_tail's (lower, upper, unclamped upper, k) after each
    convergent up to depth k_cap, rebuilt from convergent_stream and
    _guard."""
    lead_log = log_binom_pmf(q.n, q.l + 1, q.p)
    lead = math.exp(lead_log)
    odds = float(Fraction(q.p) / (1 - Fraction(q.p)))
    r = (q.n - q.l - 1) * odds / (q.l + 2)
    kappa = min(r / (1.0 - r), q.k_terminal) if r < 1.0 else q.k_terminal
    lo, hi = 0.0, math.inf
    for k, kind, v in convergent_stream(q):
        if k > k_cap:
            return
        if (k, kind) == (q.k_terminal, "D"):
            lo = hi = v
        elif k % 2 == 0:
            lo = max(lo, v)
        else:
            hi = min(hi, v)
        g = _guard(_lead_ulps(lead_log), k, kappa)
        unclamped = lead * hi * (1.0 + g)
        lower = lead * lo * (1.0 - g)
        yield (lower if lower >= TINY else 0.0), min(unclamped, 1.0), unclamped, k


def bracket_from_stream(q, tol, k_max):
    """bracket_tail's (lower, upper, k_used, converged) under an explicit
    k_max, which walks on until tol is met or the cap is reached."""
    for lower, upper, _, k_used in stream_brackets(q, min(k_max, q.k_terminal)):
        if upper - lower <= tol * upper or upper < TINY:
            break
    if upper < TINY:
        return 0.0, TINY, k_used, False
    return lower, upper, k_used, upper - lower <= tol * upper


@st.composite
def walk_cases(draw):
    """(n, l, p, tol, k_max) with float p, from the far tail to the mean."""
    n = round(10 ** draw(st.floats(1, 6)))
    p = draw(st.floats(0.01, 0.99))
    sd = math.sqrt(n * p * (1 - p))
    l = min(math.floor(n * p + draw(st.floats(0, 12)) * sd) + 1, n - 2)
    tol = 10 ** draw(st.floats(-14, -2))
    # a cap with a tiny tol walks deep: A and B get rescaled past 2**512
    k_max = draw(st.one_of(st.integers(1, 60), st.integers(200, 1500)))
    return n, l, p, tol, k_max


@settings(max_examples=300, deadline=None, derandomize=True)
@given(walk_cases())
def test_float_walk_matches_the_convergent_stream(case):
    # bracket_tail runs its own float recursion; the stream is the
    # scalar-generic one, and the two must agree bit for bit
    n, l, p, tol, k_max = case
    if not n * Fraction(p) < l < n - 1:
        return
    q = TailQuery(n, l, p)
    b = bracket_tail(q, tol=tol, k_max=k_max)
    assert (b.lower, b.upper, b.k_used, b.converged) == bracket_from_stream(q, tol, k_max)


@st.composite
def floor_cases(draw):
    """(n, l, p, tol) with float p; tol is a power of ten near or below
    the rounding floor of the bracket, or a factor near 1 on the narrowest
    relative width the full walk reaches (worked out in the test)."""
    n = round(10 ** draw(st.floats(1, 3.5)))
    p = draw(st.floats(0.01, 0.99))
    sd = math.sqrt(n * p * (1 - p))
    l = min(math.floor(n * p + draw(st.floats(0, 12)) * sd) + 1, n - 2)
    tol = draw(st.one_of(st.floats(-16, -10).map(lambda x: 10**x), st.floats(0.9, 1.1).map(lambda f: -f)))
    return n, l, p, tol


@settings(max_examples=200, deadline=None, derandomize=True)
@given(floor_cases())
def test_unreachable_tol_stops_at_the_narrowest_bracket(case):
    # without k_max the walk stops once tol is out of reach and the
    # bracket sits on its rounding floor; an explicit k_max at the
    # terminal depth walks on to the end
    n, l, p, tol = case
    if not n * Fraction(p) < l < n - 1:
        return
    q = TailQuery(n, l, p)
    walk = [(lower, upper) for lower, upper, unclamped, _ in stream_brackets(q, q.k_terminal)
            if unclamped <= 1.0 and upper >= TINY]
    if not walk:
        return
    narrowest = min(upper - lower for lower, upper in walk)
    if tol < 0:
        tol = -tol * min((upper - lower) / upper for lower, upper in walk)
    b = bracket_tail(q, tol=tol)
    full = bracket_tail(q, tol=tol, k_max=q.k_terminal)
    if full.converged:
        assert b == full
    else:
        assert not b.converged and b.k_used <= full.k_used
        assert b.width <= 1.25 * narrowest


@st.composite
def one_path_cases(draw):
    """(n, l, l_left, p, tol, k_max) with float p and n up to 1e7: l from the
    far right tail to the mean, l_left as far out on the left."""
    n = round(10 ** draw(st.floats(1, 7)))
    p = draw(st.floats(0.001, 0.999))
    sd = math.sqrt(n * p * (1 - p))
    z = draw(st.floats(0, 12))
    l = min(math.floor(n * p + z * sd) + 1, n - 2)
    l_left = max(math.ceil(n * p - z * sd) - 2, 0)
    tol = 10 ** draw(st.floats(-15, -2))
    # a deep cap, or none with a tiny tol, walks far enough to rescale A and B
    k_max = draw(st.one_of(st.none(), st.integers(1, 60), st.integers(200, 1500)))
    return n, l, l_left, p, tol, k_max


def outcome(f, p):
    """f(p) with every float in hex, or the type of what it raised."""
    try:
        result = f(p)
    except (ValueError, ArithmeticError) as exc:
        return type(exc)
    if isinstance(result, float):
        return result.hex()
    return (result.lower.hex(), result.upper.hex(), result.k_used,
            result.lead_term_log.hex(), result.converged)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(one_path_cases())
@example((10**7, 3_000_100, 2_999_900, 0.3, 1e-15, None))
@example((10**4, 3_100, 2_900, 0.3, 1e-14, 1500))
def test_float_and_fraction_p_take_one_path(case):
    # p is read once as its exact integer ratio, so a float p and the
    # Fraction it stands for give the same bits in all three functions
    n, l, l_left, p, tol, k_max = case

    def right(q):
        return bracket_tail(TailQuery(n, l, q), tol=tol, k_max=k_max)

    def left(q):
        return left_tail_bracket(n, l_left, q, tol=tol, k_max=k_max)

    def bahadur(q):
        return bahadur_tail(n, l + 1, q)

    for f in (right, left, bahadur):
        assert outcome(f, p) == outcome(f, Fraction(p)), f.__name__
