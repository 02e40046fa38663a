"""Shared numeric kernel: log binomial pmf, point masses and the tail oracle.

Conventions
-----------
Log-probabilities are plain floats ("LogProb"): the natural log of a value
in [0, 1], so always <= 0, with -inf standing for probability zero.

Probabilities ``p`` may be passed as ``float`` or ``fractions.Fraction``.
Floats are interpreted as the exact rationals they represent.  Every
module reads p once, through ``_p_ratio``, as that rational's integer
ratio (num, den) and works on the integers from there, so no float path
builds a Fraction and a float p and the Fraction it stands for give the
same bits.  Other rationals go through ``_as_fraction``, which passes a
Fraction through: ``Fraction()`` takes 1.9 us on one against 0.09 us, and
slowed a classics ``lln_bounds`` batch from 4.17 to 5.22 ms.

The lead term ``log_binom_pmf`` is Loader's saddle-point form (C. Loader,
*Fast and Accurate Computation of Binomial Probabilities*, 2000; the
algorithm behind R's ``dbinom``): O(1) float work for any n, with the
deviance terms taken around n*p and n*q, which are formed exactly from
the rational p and carried as double-double pairs.  Its absolute error is
at most LOG_PMF_ERROR_ULPS * 2**-53 * max(|log pmf|, 1); the exact-integer
pmf lives only in the test oracles (``tests/_oracles.py``).

Float masses over a range of k (``_pmf_sweeps``: one lead term, then the
ratio recurrence down and up from the mode) serve both the tail oracle,
which stops once the masses left cannot change its rounded sum, and the
Lexis variance, which takes them all through ``_pmf_terms``.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from itertools import chain, islice

LogProb = float

# Bound on the absolute error of log_binom_pmf, in units of
# 2**-53 * max(|log pmf|, 1).  First-order count (Higham, *Accuracy and
# Stability of Numerical Algorithms*, ch. 3): the two deviance terms and
# the log term all carry the sign of the result and dominate it, so their
# errors add up relative to |log pmf|.  Each deviance term is within 22
# units of itself (3.5 roundings times a cancellation of at most 6.2 off
# its series, 7 on it), the log term within 4 units of max(itself, 1) and
# the final sum within 1: 27 in all, taken as 32.  The largest error seen
# against 50-digit mpmath, n up to 1e7, is 6.5.
LOG_PMF_ERROR_ULPS = 32


class TailConventionWarning(UserWarning):
    """Out-of-range threshold handled by convention rather than rejected."""


def _as_fraction(x) -> Fraction:
    """Exact rational value of a number; a Fraction passes through."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)  # ints and floats convert exactly


def _p_ratio(p) -> tuple:
    """(num, den) with p = num/den in lowest terms, once 0 < p < 1 holds
    (false for nan and +-inf).

    Floats and Fractions give their own as_integer_ratio, so p is read
    exactly without any Fraction arithmetic; other types go through
    Fraction.  A Fraction is tested as 0 < num < den in integers (two
    Fraction comparisons took ten times as long), and is matched by its
    exact type: isinstance against Fraction, an ABC, costs a float 0.16 us.
    """
    if type(p) is Fraction:
        num, den = p.as_integer_ratio()
        if 0 < num < den:  # den > 0 in a Fraction
            return num, den
    elif 0 < p < 1:
        return (p if isinstance(p, (float, Fraction)) else Fraction(p)).as_integer_ratio()
    raise ValueError(f"p must lie strictly in (0, 1), got {p!r}")


# stirlerr(n) = ln n! - ln(sqrt(2 pi n) (n/e)^n) for n = 0..15, to 17 digits
# (entry 0 is never used).  Past 15 the Stirling series below is exact to
# double precision.
_STIRLERR = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)
_S0, _S1, _S2, _S3, _S4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188


def _stirlerr(n: int) -> float:
    """Error of Stirling's formula for ln n!, n >= 1."""
    if n <= 15:
        return _STIRLERR[n]
    nn = float(n) * n
    if n > 500:
        return (_S0 - _S1 / nn) / n
    if n > 80:
        return (_S0 - (_S1 - _S2 / nn) / nn) / n
    if n > 35:
        return (_S0 - (_S1 - (_S2 - _S3 / nn) / nn) / nn) / n
    return (_S0 - (_S1 - (_S2 - (_S3 - _S4 / nn) / nn) / nn) / nn) / n


def _bd0(x: int, m: float) -> float:
    """Deviance x ln(x/m) + m - x >= 0, for x >= 1 and m > 0.

    Within x/m in (1/2, 2) it is summed as the series in v = (x-m)/(x+m),
    whose leading term (x-m)*v has no cancellation; outside that window
    the direct form cancels by at most a factor 6.2.
    """
    d = x - m  # exact inside the series window (Sterbenz)
    v = d / (x + m)
    if abs(v) >= 1 / 3:
        return x * math.log(x / m) - d
    s = d * v
    term = 2.0 * x * v
    v2 = v * v
    j = 3
    while True:
        term *= v2
        s_next = s + term / j
        if s_next == s:
            return s
        s = s_next
        j += 2


def _log_ratio(num: int, den: int) -> float:
    """ln(num/den) for positive integers, also where the ratio underflows."""
    r = num / den
    return math.log(r) if r > 2.0**-1022 else math.log(num) - math.log(den)


def _deviance(x: int, num: int, den: int) -> float:
    """bd0(x, m) for the exact rational mean m = num/den.

    m is split as a double-double hi + lo: bd0 takes hi, and the
    first-order term (1 - x/hi) lo carries the rest, so the conditioning
    of the pmf in p costs no accuracy.  Below 2**-500, m - x rounds to -x
    and ln m comes from num and den.
    """
    hi = num / den  # correctly rounded
    if hi < 2.0**-500:
        return x * (math.log(x) - _log_ratio(num, den) - 1.0)
    a, b = hi.as_integer_ratio()
    lo = (num * b - a * den) / (den * b)
    return _bd0(x, hi) + (1.0 - x / hi) * lo


def log_binom_pmf(n: int, k: int, p) -> LogProb:
    """ln[ C(n,k) p^k (1-p)^(n-k) ], the log binomial point mass.

    Loader's saddle-point form, O(1) in n:

        ln b(k; n, p) = stirlerr(n) - stirlerr(k) - stirlerr(n-k)
                        - bd0(k, np) - bd0(n-k, nq) - ln(2 pi k (n-k) / n) / 2

    with stirlerr the error of Stirling's formula (an exact table up to
    15, its asymptotic series beyond) and bd0(x, m) = x ln(x/m) + m - x.
    n*p and n*q come exactly from the rational p as double-double pairs
    (see _deviance).  k = 0 and k = n are n*ln(q) and n*ln(p), through
    log1p on the side near 1.

    The absolute error is at most LOG_PMF_ERROR_ULPS * 2**-53 *
    max(|result|, 1), for n below 2**53.

    Parameters
    ----------
    n : positive trial count
    k : success count, 0 <= k <= n
    p : success probability in (0, 1), float or Fraction

    Raises
    ------
    ValueError : k outside [0, n] or p outside (0, 1).
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, {n}], got {k}")
    pnum, pden = _p_ratio(p)
    qnum = pden - pnum
    if k == 0 or k == n:
        # n ln p or n ln q: log below 1/2, log1p of the complement above
        this, other = (pnum, qnum) if k == n else (qnum, pnum)
        if this < other:
            return n * _log_ratio(this, pden)
        return n * math.log1p(-other / pden)
    m = n - k
    total = math.fsum((
        _stirlerr(n), -_stirlerr(k), -_stirlerr(m),
        -_deviance(k, n * pnum, pden), -_deviance(m, n * qnum, pden),
        -0.5 * math.log(2.0 * math.pi * k * m / n),
    ))
    return min(total, 0.0)


def _pmf_sweeps(n: int, lo: int, hi: int, p):
    """The one float recurrence behind every mass: (mode, t_mode, down, up).

    mode is the mode clamped to [lo, hi] and t_mode = b(mode; n, p), the
    largest mass there, from one log_binom_pmf.  down and up are lazy
    iterators over b(mode-1), ..., b(lo) and b(mode+1), ..., b(hi), each
    mass the one before it times one rounded ratio; up stops after its
    first zero, as every mass past it is zero too.
    """
    num, den = _p_ratio(p)
    pflt = num / den
    qflt = (den - num) / den
    mode = min(max(int(math.floor((n + 1) * pflt)), lo), hi)
    t_mode = math.exp(log_binom_pmf(n, mode, p))

    def down():
        t = t_mode
        for k in range(mode, lo, -1):  # k -> k-1
            t *= k / (n - k + 1) * qflt / pflt
            yield t

    def up():
        t = t_mode
        for k in range(mode, hi):  # k -> k+1
            t *= (n - k) / (k + 1) * pflt / qflt
            yield t
            if t == 0.0:
                return

    return mode, t_mode, down(), up()


def _pmf_terms(n: int, lo: int, hi: int, p) -> list:
    """Float masses b(k; n, p) for k = lo, lo+1, ..., 1 <= lo <= hi <= n.

    Every mass _pmf_sweeps gives, in order; masses missing past the
    list's end are zero.  Its callers are lexis.moments_Q_hat, which
    weights each mass, and the test oracle tests/_oracles.tail_full_sweep,
    whose sum of every mass binom_tail_exact must reproduce bit for bit.
    """
    mode, t_mode, down, up = _pmf_sweeps(n, lo, hi, p)
    if t_mode == 0.0:
        return []
    terms = list(down)
    terms.reverse()
    terms.append(t_mode)
    terms.extend(up)
    return terms


# masses per direction before the first stopping test; each later test
# takes twice as many more, so the fsum passes cost O(masses kept)
_FIRST_CHUNK = 32
# a range [l+1, n] of at most this many masses is summed straight through:
# there the stopping tests cost more than the masses they save (timed, the
# straight sum wins up to about 130 to 200 masses; at (60, 25, 0.3) it took
# 11.4 us against 24.0, at (1000, 330, 0.3) 91 against 52)
_STRAIGHT_MASSES = 4 * _FIRST_CHUNK


def _rest_bound(t: float, ratio: float) -> float:
    """Bound on the total of the float masses the sweep would still make
    after the mass t, given the exact ratio of the next mass to this one
    rounded to a float, or inf when that ratio is not below 1.

    The exact ratios fall monotonically in the sweep direction.  With p
    and q at least 2**-900 and n below 2**53 every float multiplier is
    formed in the normal range, within five roundings (p and q as
    floats, three in the product) of its exact ratio, so at most (1 + 6u)
    times this one, u = 2**-53; each float mass is then at most (1 + u)
    times the product it rounds, plus 2**-1075 where that is subnormal.
    rho = ratio * (1 + 2**-49) covers these factors and the rounding of
    ratio, so the j-th mass to come is at most t * rho**j + 2**-1075 /
    (1 - rho), and the at most n of them total at most (t * rho +
    2**-1000) / (1 - rho).  The last factor covers this formula's own
    roundings.
    """
    rho = ratio * (1 + 2.0**-49)
    if not rho < 1:
        return math.inf
    return (t * rho + 2.0**-1000) / (1 - rho) * (1 + 2.0**-48)


def _settled_sum(terms: list, rest: float):
    """fsum(terms) when adding any floats totalling at most rest cannot
    change it, else None.

    Let K be the exact total of terms, S = fsum(terms) its correctly
    rounded value and e = fsum(terms + [-S]) the rounded residual; then
    |K - S| <= |e| (1 + u), u = 2**-53 (K - S is a sum of floats, so
    exact where e is subnormal).  The floats to come total some R' in
    [0, rest], so K + R' lies in [K, S + |e| (1 + u) + rest].  Below S it
    is no farther than K, which already rounds to S (and strictly nearer
    unless R' = 0); above S the test puts it strictly nearer than half
    the gap to the next float.  So K + R' rounds to S, and fsum of every
    mass returns S.  The last factor covers the test's own roundings.
    A near-tie fails the test, and so does S below 2**-900, far enough
    from the subnormal range for that half-gap to be exact and to dwarf
    the allowance in rest; the caller then sweeps on.
    """
    s = math.fsum(terms)
    if not s >= 2.0**-900:
        return None
    e = math.fsum(chain(terms, (-s,)))
    if (abs(e) + rest) * (1 + 2.0**-48) < math.ulp(s) / 2:
        return s
    return None


def binom_tail_exact(n: int, l: int, p) -> float:
    """P(S_n > l): the right binomial tail, summed term by term.

    This is the oracle the bracketing machinery is tested against: the
    correctly rounded math.fsum of the float masses _pmf_sweeps makes
    over [l+1, n], capped at 1.  fsum is exact for floats, so the
    summation order is immaterial.

    A range of at most _STRAIGHT_MASSES masses is summed straight
    through.  A longer one is swept down and up from the mode in chunks,
    the first of _FIRST_CHUNK masses per direction and each later one
    twice as large.  After each chunk the sweep stops once _settled_sum
    proves that the masses not yet made cannot change the rounded sum:
    _rest_bound bounds each unfinished direction by a geometric series
    from its next exact pmf ratio, which only falls further from the
    mode.  Where no proof holds (a ratio not below 1, a sum below
    2**-900, a near-tie, p or q below 2**-900, n of 2**53 or more) the
    sweep runs to its end, so the result is the full sum's, bit for bit,
    for every input.  Near the mode a tail needs O(sd) masses, not the
    O(n) that reach the underflow.

    By convention l > n returns 0.0 (with a TailConventionWarning) and
    l < 0 returns 1.0.
    """
    num, den = _p_ratio(p)
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if l > n:
        warnings.warn(
            f"threshold l={l} exceeds n={n}; tail is 0 by convention",
            TailConventionWarning,
            stacklevel=2,
        )
        return 0.0
    if l < 0:
        return 1.0
    if l == n:
        return 0.0
    mode, t_mode, down, up = _pmf_sweeps(n, l + 1, n, p)
    if t_mode == 0.0:
        return 0.0
    if n - l <= _STRAIGHT_MASSES:
        return min(math.fsum(chain((t_mode,), down, up)), 1.0)
    q = den - num
    certify = n < 2**53 and min(num, q) / den >= 2.0**-900
    terms = [t_mode]
    # (iterator, index of its last mass, step) for each direction not done
    sweeps = [(down, mode, -1), (up, mode, 1)]
    size = _FIRST_CHUNK
    while sweeps:
        live = []
        rest = 0.0
        for it, k, step in sweeps:
            before = len(terms)
            terms.extend(islice(it, size))
            got = len(terms) - before
            if got < size or terms[-1] == 0.0:
                continue  # exhausted, or every mass left is zero
            k += step * got
            live.append((it, k, step))
            if certify:
                a, b = ((n - k) * num, (k + 1) * q) if step > 0 else (k * q, (n - k + 1) * num)
                rest += _rest_bound(terms[-1], a / b)
        sweeps = live
        if sweeps and certify and (s := _settled_sum(terms, rest)) is not None:
            return min(s, 1.0)
        size *= 2
    return min(math.fsum(terms), 1.0)
