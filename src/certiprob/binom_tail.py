"""Certified brackets for right binomial tails via continued fractions.

The tail P(S_n > l), for a threshold l strictly above the mean np, factors
as lead * S where lead = b(l+1; n, p) is the first omitted point mass and
S is the value of an alternating continued fraction built from two
coefficient families, for k = 1, ..., n - l:

    c_k = (n-k-l)(l+k) / [(l+2k-1)(l+2k)] * p/q
    d_k = k(n+k)      / [(l+2k)(l+2k+1)] * p/q

Truncating the fraction after a -c_k gives the convergent C_k, after a
+d_k gives D_k, and the convergents interleave around S:

    C_2 < D_2 < C_4 < D_4 < ... < S < ... < D_3 < C_3 < D_1 < C_1

so any even-indexed convergent is a certified lower bound for S and any
odd-indexed one a certified upper bound.  The terminal convergent
D_{n-l-1} equals S exactly; at l = n - 1 that is D_0 = 1, the lead term
alone, where bracket_tail's walk takes no step.

Convergents are computed by the forward two-term recursion on numerators
A_m and denominators B_m (no bottom-up restart needed to refine), in one
walk, _convergents, a depth at a time: each step makes both half-steps
of depth k and yields (k, C_k, D_k).  In floats it tests once per depth
for a joint power-of-two rescale of A and B, which keeps every bit.
bracket_tail runs it in floats, with coefficients built from the exact
ratio p/q rounded once, and pushes its endpoints out by a margin derived
from the error bounds of the lead term, the recursion and that rounding
(see _guard), still testing its stop after each convergent.
_convergents is scalar-generic: given the odds as a Fraction, every
convergent comes out as an exact rational, which is how the test suite
verifies the interleaving property and cross-checks the float walk.

As everywhere in the package, p is read once as its integer ratio
num/den (numerics._p_ratio): TailQuery tests l > np as l*den > n*num, the
odds p/q is num/(den - num) rounded once, left_tail_bracket flips to
q = (den - num)/den and bahadur_tail's p is num/den rounded once.  No
Fraction arithmetic runs per query, and a float p gives the same bits as
the Fraction it stands for.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .numerics import LOG_PMF_ERROR_ULPS, LogProb, _p_ratio, log_binom_pmf

# |A| or |B| beyond RESCALE_THRESHOLD triggers a joint rescale by RESCALE,
# and both below RESCALE one by RESCALE_THRESHOLD (exact in binary floats).
RESCALE_THRESHOLD = 2.0**512
RESCALE = 2.0**-512

# The certified-rounding margin, in units of u = 2**-53 relative
# (first-order bounds, Higham, *Accuracy and Stability of Numerical
# Algorithms*, ch. 3):
#   lead term  LOG_PMF_ERROR_ULPS * max(|lead_log|, 1): the stated bound
#              on log_binom_pmf, an absolute error in the log and so a
#              relative one in exp(lead_log);
#   recursion  _RECURSION_ULPS * (k + kappa) at depth k, with
#              kappa = r/(1-r) and r = b(l+2)/b(l+1) < 1.  Each depth
#              makes two half-steps of two roundings on A and on B, from
#              coefficients of four; near the mean C_1 = 1/(1 - c_1)
#              cancels by c_1/(1 - c_1), about kappa; and rounding p/q
#              once moves S by at most kappa*u, as rho dS/drho / S is the
#              mean index of S's terms, whose ratios fall from r.  Against
#              the exact rational recursion the two together stayed below
#              4.3 (k + kappa) (n up to 1e6, depth up to 400); 16 is taken;
#   rest       _BASE_ULPS for exp and the products that form an endpoint.
_U = 2.0**-53
_RECURSION_ULPS = 16
_BASE_ULPS = 4
# Below the normal range floats round in absolute steps of 2**-1074, which
# no relative margin covers; an upper endpoint there only certifies [0, _TINY].
_TINY = sys.float_info.min


def _lead_ulps(lead_log: float) -> float:
    """The lead term's share of _guard, in units of u."""
    return LOG_PMF_ERROR_ULPS * max(-lead_log, 1.0)


def _guard(lead_ulps: float, k: int, kappa: float) -> float:
    """Relative margin that covers the roundoff of a bracket at depth k."""
    return _U * (lead_ulps + _RECURSION_ULPS * (k + kappa) + _BASE_ULPS)


class MethodNotApplicableError(ValueError):
    """The continued-fraction method needs l > n*p, or l < n*p - 1 for a left tail."""


class NumericDegeneracyError(ArithmeticError):
    """A convergent denominator hit zero (never expected for valid input)."""


@dataclass(frozen=True)
class TailQuery:
    """A right-tail problem P(S_n > l) for S_n ~ Binomial(n, p).

    Requires 0 <= l < n and l strictly greater than n*p (checked in
    integers on p's exact ratio, so borderline float inputs cannot sneak
    past).
    """

    n: int
    l: int
    p: object  # float or Fraction

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if not 0 <= self.l < self.n:
            raise ValueError(f"l must lie in [0, n), got l={self.l}, n={self.n}")
        num, den = _p_ratio(self.p)
        if self.l * den <= self.n * num:
            raise MethodNotApplicableError(
                f"continued-fraction bracketing needs l > n*p "
                f"(l={self.l}, n*p={self.n * num / den:g}); for left tails "
                f"use left_tail_bracket, or binom_tail_exact for a point value"
            )

    @property
    def k_terminal(self) -> int:
        """Depth at which the continued fraction terminates (D_k = S)."""
        return self.n - self.l - 1


def _convergents(n: int, l: int, k_cap: int, odds):
    """Yield (k, C_k, D_k) for k = 1 .. k_cap, one item per depth.

    Each depth makes two half-steps, m = 2k (the coefficient -c_k) and
    m = 2k + 1 (d_k), and C_k = A_{2k}/B_{2k}, D_k = A_{2k+1}/B_{2k+1}:
    exact rationals when odds is a Fraction, else floats, with one joint
    power-of-two rescale test per depth, after D_k.  It suffices as no
    coefficient reaches 1: l > np is p/q < l/(n - l), and k < n - l, so
    c_k < l(l+k)/[(l+2k-1)(l+2k)] <= l/(l+2) and d_k < kl/[(k+1)(l+2k)]
    (largest at n - l = k + 1).  Every A_m and B_m is then positive, a
    half-step at most doubles them and a C half-step keeps at least
    1 - c_k > 2/(l+2) of them, so between tests they stay hundreds of
    binades inside the normal range, where a power of two scales exactly:
    every C_k and D_k keeps the bits of the unrescaled recursion.  Both
    coefficients of half-step m share the denominator (l + m - 1)(l + m);
    c_k enters negated, and A + (-c)*A_prev rounds as A - c*A_prev does.
    A zero denominator raises NumericDegeneracyError naming the depth.
    """
    exact = isinstance(odds, Fraction)
    big, small = RESCALE_THRESHOLD, RESCALE
    nbig, nsmall = -big, -small
    A_prev, A, B_prev, B = 0, 1, 1, 1  # the first coefficient sets the type
    lm = l + 1  # l + m - 1 at m = 2k
    try:
        for k in range(1, k_cap + 1):
            coeff = -((n - k - l) * (l + k) * odds / (lm * (lm + 1)))
            A_prev, A = A, A + coeff * A_prev
            B_prev, B = B, B + coeff * B_prev
            c = A / B
            lm += 1
            coeff = k * (n + k) * odds / (lm * (lm + 1))
            lm += 1
            A_prev, A = A, A + coeff * A_prev
            B_prev, B = B, B + coeff * B_prev
            d = A / B
            if not exact:
                if not (nbig <= A <= big and nbig <= B <= big):
                    A, B, A_prev, B_prev = A * small, B * small, A_prev * small, B_prev * small
                elif nsmall < A < small and nsmall < B < small:
                    A, B, A_prev, B_prev = A * big, B * big, A_prev * big, B_prev * big
            yield k, c, d
    except ZeroDivisionError:
        raise NumericDegeneracyError(f"a convergent denominator is 0 at depth {k}") from None


class TailBracket(NamedTuple):
    """Certified enclosure lower <= P(S_n > l) <= upper.

    Immutable; a NamedTuple builds in a third of a frozen dataclass's time.
    """

    lower: float
    upper: float
    k_used: int
    lead_term_log: LogProb
    converged: bool = True

    @property
    def width(self) -> float:
        return self.upper - self.lower


def bracket_tail(
    query: TailQuery, tol: float = 1e-8, k_max: Optional[int] = None
) -> TailBracket:
    """Two-sided certified bracket for P(S_n > l).

    Walks the float convergents C_1, D_1, C_2, ..., keeping the largest
    even-indexed one (lower side) and the smallest odd-indexed one (upper
    side); the bracket is the pair scaled by the lead term, with endpoints
    pushed outward by the derived rounding margin _guard.  For a float p
    or a Fraction p alike the walk runs in floats, on p/q rounded once.

    Iteration stops as soon as the pushed-out endpoints satisfy
    upper - lower <= tol * upper (checked after every new convergent, so a
    run may stop midway through a depth), or at the terminal depth
    n - l - 1 where the last convergent equals the tail exactly, or at
    k_max, whichever comes first; at l = n - 1 that is D_0 = 1, seeded as
    both sides.  converged is True exactly when the returned endpoints
    meet tol, which must be positive (not nan; inf is allowed).

    Without k_max the walk also stops, with converged=False, once tol is
    out of reach and the bracket has closed to its rounding floor.  With
    lo <= hi the convergents kept and g the guard, a converged bracket
    needs lead*lo*(1-g) >= (1-tol) * lead*hi*(1+g), so (1-g) >=
    (1-tol)(1+g), i.e. g <= tol/(2-tol); g grows with the depth, so past
    that (by 8 units of 2**-53, which cover the rounding of the tol test
    at the depth where g crosses it) tol is out of reach.  The walk still
    goes on, testing tol, until hi - lo <= _RECURSION_ULPS*u*(hi + lo):
    a bracket is lead*((hi - lo) + g*(hi + lo)) wide and each depth adds
    _RECURSION_ULPS*u to g, so closing the whole remaining gap would then
    narrow it by less than the next depth widens it, and the bracket
    returned is the narrowest, or close to it, that the walk reaches.
    The float convergents cross (lo > hi) by rounding once the bracket
    has closed to that level, which the floor test also catches.  The
    argument needs upper = lead*hi*(1+g); at the floor lead*hi is within
    rounding of the tail, at most 1/2 as l > np lies at or above the
    median, so the min(..., 1.0) clamp on upper is inactive there.

    If k_max cuts the run before tol is met the best bracket so far is
    returned with converged=False.  Endpoints are zero or normal floats:
    a lower one below sys.float_info.min becomes 0.0, and once the upper
    one falls below it the walk stops with [0.0, sys.float_info.min] and
    converged=False.

    The walk takes a depth at a time from _convergents.  C_k and D_k fall
    on the same side of S (odd k above, even k below), the guard is formed
    once per depth, and D_k recomputes only its own endpoint, and only if
    it moved; an endpoint that did not move leaves both tests as they were.
    The terminal D_k sets both sides and ends the walk, and the returned
    endpoints are formed in one place, after it.
    """
    if not tol > 0:  # false for nan too
        raise ValueError(f"tol must be positive, got {tol}")
    n, l = query.n, query.l
    k_term = n - l - 1  # query.k_terminal
    if k_max is not None and k_max < 1 <= k_term:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    k_cap = k_term if k_max is None else min(k_max, k_term)
    lead_log = log_binom_pmf(n, l + 1, query.p)
    lead = math.exp(lead_log)
    lead_ulps = _lead_ulps(lead_log)
    num, den = _p_ratio(query.p)
    odds = num / (den - num)  # p/q rounded once: int/int true division rounds correctly
    r = (n - l - 1) * odds / (l + 2)  # b(l+2)/b(l+1), below 1 as l > np
    kappa = min(r / (1.0 - r), k_term) if r < 1.0 else k_term
    hopeless = (tol + 8 * _U) / (2.0 - tol) if k_max is None and tol < 1.0 else math.inf
    floor = _RECURSION_ULPS * _U  # the guard's growth per depth
    u, ulps, base, tiny = _U, _RECURSION_ULPS, _BASE_ULPS, _TINY

    k = 0
    best_lo, best_hi = (0.0, math.inf) if k_term else (1.0, 1.0)  # l = n - 1: D_0 = 1 = S
    for k, c, d in _convergents(n, l, k_cap, odds):
        g = u * (lead_ulps + ulps * (k + kappa) + base)  # _guard(lead_ulps, k, kappa)
        up_f, lo_f = 1.0 + g, 1.0 - g
        spent = g > hopeless
        odd = k & 1
        # C_k: the guard moved, so both endpoints are recomputed
        if odd:
            if c < best_hi:
                best_hi = c
        elif c > best_lo:
            best_lo = c
        upper = lead * best_hi * up_f
        if upper > 1.0:
            upper = 1.0
        lower = lead * best_lo * lo_f
        if not lower >= tiny:
            lower = 0.0
        if upper - lower <= tol * upper or upper < tiny:
            break
        if spent and best_hi - best_lo <= floor * (best_hi + best_lo):
            break  # tol out of reach, and no later depth is narrower
        # D_k: only the endpoint on its side can move
        if k == k_term:
            best_lo = best_hi = d  # terminal convergent equals S exactly
            break
        if odd:
            if not d < best_hi:
                continue
            best_hi = d
            upper = lead * best_hi * up_f
            if upper > 1.0:
                upper = 1.0
        else:
            if not d > best_lo:
                continue
            best_lo = d
            lower = lead * best_lo * lo_f
            if not lower >= tiny:
                lower = 0.0
        if upper - lower <= tol * upper or upper < tiny:
            break
        if spent and best_hi - best_lo <= floor * (best_hi + best_lo):
            break
    g = u * (lead_ulps + ulps * (k + kappa) + base)  # _guard(lead_ulps, k, kappa)
    upper = lead * best_hi * (1.0 + g)
    upper = 1.0 if upper > 1.0 else upper
    if upper < tiny:
        return TailBracket(0.0, tiny, k, lead_log, False)
    lower = lead * best_lo * (1.0 - g)
    lower = lower if lower >= tiny else 0.0
    return TailBracket(lower, upper, k, lead_log, upper - lower <= tol * upper)


def left_tail_bracket(
    n: int, l: int, p, tol: float = 1e-8, k_max: Optional[int] = None
) -> TailBracket:
    """Certified bracket for a LEFT tail P(S_n <= l), for l < n*p - 1.

    Works on the flipped coin: P(S_n <= l) = P(S'_n > n-l-1) where S'
    counts failures, S' ~ Binomial(n, q).  The flipped threshold must
    itself clear the flipped mean, which is what the l < n*p - 1 bound
    guarantees; inside the sliver np-1 <= l <= np neither orientation is
    bracketable and binom_tail_exact is the tool.  Both bounds are checked
    on the caller's l, in integers on p's ratio, before the flip.  q is
    exact, and the bracket runs in floats like any other.
    """
    num, den = _p_ratio(p)
    if not 0 <= l < n:
        raise ValueError(f"l must lie in [0, n), got l={l}, n={n}")
    if (l + 1) * den >= n * num:
        raise MethodNotApplicableError(
            f"left-tail bracketing needs l < n*p - 1 (l={l}, n*p={n * num / den:g}); "
            f"for right tails use bracket_tail, or binom_tail_exact for a point value"
        )
    flipped = TailQuery(n=n, l=n - l - 1, p=Fraction(den - num, den))
    return bracket_tail(flipped, tol=tol, k_max=k_max)


class SeriesNotConvergedError(ArithmeticError):
    """Hypergeometric series failed to shrink within the term budget."""


# terms bahadur_tail sums before it gives up on a series still growing
BAHADUR_MAX_TERMS = 10**7


def bahadur_tail(n: int, j: int, p) -> float:
    """P(S_n >= j) via the closed hypergeometric form.

    Evaluates lead * q * F(n+1, 1; j+1; p) where lead = C(n,j) p^j q^(n-j)
    and F's terms follow t_{k+1} = t_k * p (n+1+k)/(j+1+k).  The series is
    summed with periodic power-of-two rescaling (partial sums can dwarf
    float range when j is far below the mean) and truncated once a term
    drops below 1e-15 of the running sum.  Independent of the
    continued-fraction machinery; agrees with binom_tail_exact(n, j-1, p).
    n is below 2**53, as for log_binom_pmf.
    """
    if not 1 <= j <= n:
        raise ValueError(f"j must lie in [1, n]=[1, {n}], got {j}")
    num, den = _p_ratio(p)
    pflt = num / den
    lead_log = log_binom_pmf(n, j, p)

    big, small = RESCALE_THRESHOLD, RESCALE
    total = 1.0
    t = 1.0
    exponent = 0  # running sum is total * 2**exponent
    # n + 1 + k and j + 1 + k after k terms, kept as floats (exact below
    # 2**53) so each term is float * float; bottom reaches stop after
    # BAHADUR_MAX_TERMS terms.
    top, bottom = float(n + 1), float(j + 1)
    stop = float(min(j + 1 + BAHADUR_MAX_TERMS, 2**53))
    while True:
        t *= pflt * top / bottom
        total += t
        top += 1.0
        bottom += 1.0
        if t <= 1e-15 * total and pflt * top / bottom < 1.0:
            break
        if total > big:
            total *= small
            t *= small
            exponent += 512
        if bottom >= stop:
            raise SeriesNotConvergedError(
                f"series still growing after {BAHADUR_MAX_TERMS} terms "
                f"(n={n}, j={j}, p={p!r}); fall back to binom_tail_exact"
            )
    log_val = lead_log + math.log1p(-pflt) + math.log(total) + exponent * math.log(2.0)
    return math.exp(min(log_val, 0.0))


__all__ = [
    "TailQuery",
    "TailBracket",
    "bracket_tail",
    "left_tail_bracket",
    "bahadur_tail",
    "MethodNotApplicableError",
    "NumericDegeneracyError",
    "SeriesNotConvergedError",
]
