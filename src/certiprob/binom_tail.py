"""Certified brackets for right binomial tails via continued fractions.

The tail P(S_n > l), for a threshold l strictly above the mean np, factors
as lead * S where lead = b(l+1; n, p) is the first omitted point mass and
S is the value of an alternating continued fraction built from two
coefficient families c_k, d_k.  Truncating the fraction after a -c_k gives
the convergent C_k, after a +d_k gives D_k, and the convergents interleave
around S:

    C_2 < D_2 < C_4 < D_4 < ... < S < ... < D_3 < C_3 < D_1 < C_1

so any even-indexed convergent is a certified lower bound for S and any
odd-indexed one a certified upper bound.  The terminal convergent
D_{n-l-1} equals S exactly.

Convergents are computed by the forward two-term recursion on numerators
A_m and denominators B_m (no bottom-up restart needed to refine).  In
floats A and B are rescaled jointly by 2**-512 when either outgrows
2**512 and by 2**512 when both fall below 2**-512, so they neither
overflow nor underflow at any depth; a power of two is exact in binary
floating point, so the ratios A_m/B_m are bit-identical whether or not a
rescale fired.

The public recursion (ConvergentState, advance_convergents,
convergent_stream) is scalar-generic: feed Fraction inputs to
convergent_stream and every convergent comes out as an exact rational,
which is how the interleaving property is verified in the test suite.
bracket_tail always recurses in floats, with coefficients built from the
exact ratio p/q rounded once, on four local floats rather than one state
object per half-step; it repeats _push's arithmetic operation for
operation, so the float convergent_stream is its bit-for-bit cross-check.
It pushes its endpoints out by a margin derived from the error bounds of
the lead term, the recursion and that rounding (see _guard).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .numerics import LOG_PMF_ERROR_ULPS, LogProb, _as_fraction, binom_tail_exact, log_binom_pmf

# |A| or |B| beyond RESCALE_THRESHOLD triggers a joint rescale by RESCALE,
# and both below RESCALE one by RESCALE_THRESHOLD (exact in binary
# floats, so convergent ratios are unaffected bit-for-bit).
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


def _guard(lead_log: float, k: int, kappa: float) -> float:
    """Relative margin that covers the roundoff of a bracket at depth k."""
    return _U * (LOG_PMF_ERROR_ULPS * max(-lead_log, 1.0) + _RECURSION_ULPS * (k + kappa) + _BASE_ULPS)


class MethodNotApplicableError(ValueError):
    """The continued-fraction method needs l > n*p; see left_tail_bracket."""


class NumericDegeneracyError(ArithmeticError):
    """A convergent denominator hit zero (never expected for valid input)."""


@dataclass(frozen=True)
class TailQuery:
    """A right-tail problem P(S_n > l) for S_n ~ Binomial(n, p).

    Requires 0 <= l < n and l strictly greater than n*p (checked in exact
    rational arithmetic so borderline float inputs cannot sneak past).
    """

    n: int
    l: int
    p: object  # float or Fraction

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if not 0 <= self.l < self.n:
            raise ValueError(f"l must lie in [0, n), got l={self.l}, n={self.n}")
        pf = _as_fraction(self.p)
        if not (0 < pf < 1):
            raise ValueError(f"p must lie strictly in (0, 1), got {self.p!r}")
        if self.l <= self.n * pf:
            raise MethodNotApplicableError(
                f"continued-fraction bracketing needs l > n*p "
                f"(l={self.l}, n*p={float(self.n * pf):g}); for left tails "
                f"use left_tail_bracket, or binom_tail_exact for a point value"
            )

    @property
    def q(self):
        return 1 - self.p

    @property
    def k_terminal(self) -> int:
        """Depth at which the continued fraction terminates (D_k = S)."""
        return self.n - self.l - 1


def _float_odds(p) -> float:
    """p/q rounded once: int/int true division rounds correctly."""
    num, den = (p if isinstance(p, (float, Fraction)) else _as_fraction(p)).as_integer_ratio()
    return num / (den - num)


def _stream_odds(p):
    """p/q as the recursion uses it: exact for a Fraction, else rounded once."""
    return p / (1 - p) if isinstance(p, Fraction) else _float_odds(p)


def _pair(n: int, l: int, k: int, odds):
    """(c_k, d_k) for the given p/q."""
    c = (n - k - l) * (l + k) * odds / ((l + 2 * k - 1) * (l + 2 * k))
    d = k * (n + k) * odds / ((l + 2 * k) * (l + 2 * k + 1))
    return c, d


@dataclass(frozen=True)
class CfCoefficients:
    """One coefficient pair (c_k, d_k) of the tail's continued fraction."""

    k: int
    c: object
    d: object


def cf_coefficients(query: TailQuery, k: int) -> CfCoefficients:
    """Coefficient pair at depth k, 1 <= k <= n - l.

    c_k = (n-k-l)(l+k) / [(l+2k-1)(l+2k)] * p/q
    d_k = k(n+k)      / [(l+2k)(l+2k+1)] * p/q

    With Fraction p the pair is exact; c_{n-l} vanishes identically.  With
    float p, p/q is the exact ratio rounded once.
    """
    n, l = query.n, query.l
    if not 1 <= k <= n - l:
        raise ValueError(f"k must lie in [1, n-l]=[1, {n - l}], got {k}")
    c, d = _pair(n, l, k, _stream_odds(query.p))
    return CfCoefficients(k=k, c=c, d=d)


@dataclass(frozen=True)
class ConvergentState:
    """Rolling state of the forward convergent recursion.

    Holds the last two numerators/denominators (A, B) and the index m of
    the newest convergent Q_m = A_curr/B_curr.  `scale` records the
    cumulative joint rescale factor applied to A and B; it never affects
    the ratios and exists only for bookkeeping.
    """

    m: int = 1
    A_prev: object = 0.0
    A_curr: object = 1.0
    B_prev: object = 1.0
    B_curr: object = 1.0
    scale: float = 1.0

    @property
    def value(self):
        """Q_m = A_m / B_m."""
        if self.B_curr == 0:
            raise NumericDegeneracyError(f"B_{self.m} = 0")
        return self.A_curr / self.B_curr


def _push(state: ConvergentState, coeff, sign: int) -> ConvergentState:
    """One half-step: X_new = X_curr + sign*coeff*X_prev for A and B.

    Float states are rescaled both ways by an exact power of two.
    """
    A = state.A_curr + sign * coeff * state.A_prev
    B = state.B_curr + sign * coeff * state.B_prev
    A_c, B_c, scale = state.A_curr, state.B_curr, state.scale
    if isinstance(A, float):
        big = max(abs(A), abs(B))
        if big > RESCALE_THRESHOLD or big < RESCALE:
            f = RESCALE if big > RESCALE_THRESHOLD else RESCALE_THRESHOLD
            A, B, A_c, B_c, scale = A * f, B * f, A_c * f, B_c * f, scale * f
    return ConvergentState(state.m + 1, A_c, A, B_c, B, scale)


def advance_convergents(state: ConvergentState, coeffs: CfCoefficients) -> ConvergentState:
    """Advance two steps with the pair (c_k, d_k): Q_{2k} = C_k, Q_{2k+1} = D_k.

    The state must sit at m = 2k-1 (fresh states sit at m = 1, ready for
    k = 1).  Intermediate C_k is recoverable by doing the half-steps by
    hand; most callers want bracket_tail instead.
    """
    if state.m != 2 * coeffs.k - 1:
        raise ValueError(
            f"state at m={state.m} cannot take coefficient pair k={coeffs.k} "
            f"(expected m={2 * coeffs.k - 1})"
        )
    after_c = _push(state, coeffs.c, -1)
    return _push(after_c, coeffs.d, +1)


def convergent_stream(query: TailQuery):
    """Yield (k, kind, value) for C_1, D_1, C_2, D_2, ... up to termination.

    kind is "C" or "D".  Values are floats or Fractions depending on the
    scalar type of query.p.
    """
    odds = _stream_odds(query.p)
    if isinstance(odds, Fraction):
        state = ConvergentState(1, Fraction(0), Fraction(1), Fraction(1), Fraction(1), 1.0)
    else:
        state = ConvergentState()
    n, l = query.n, query.l
    for k in range(1, query.k_terminal + 1):
        c, d = _pair(n, l, k, odds)
        state = _push(state, c, -1)
        yield k, "C", state.value
        state = _push(state, d, +1)
        yield k, "D", state.value


@dataclass(frozen=True)
class TailBracket:
    """Certified enclosure lower <= P(S_n > l) <= upper."""

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
    pushed outward by the derived rounding margin _guard.  The walk runs
    the forward recursion on four local floats with the same coefficient
    expressions, rescale rule and zero-denominator check as _push, so its
    convergents are bit-identical to convergent_stream's, which stays the
    public, scalar-generic walk and serves as the cross-check of this one.

    Iteration stops as soon as the pushed-out endpoints satisfy
    upper - lower <= tol * upper (checked after every new convergent, so a
    run may stop midway through a depth), or at the terminal depth
    n - l - 1 where the last convergent equals the tail exactly, or at
    k_max, whichever comes first.  converged is True exactly when the
    returned endpoints meet tol.

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
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    n, l, k_term = query.n, query.l, query.k_terminal
    k_cap = k_term if k_max is None else min(k_max, k_term)
    if k_cap < 1 and k_term > 0:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    lead_log = log_binom_pmf(n, l + 1, query.p)
    lead = math.exp(lead_log)
    odds = _float_odds(query.p)
    r = (n - l - 1) * odds / (l + 2)  # b(l+2)/b(l+1), below 1 as l > np
    kappa = min(r / (1.0 - r), k_term) if r < 1.0 else k_term
    hopeless = (tol + 8 * _U) / (2.0 - tol) if k_max is None and tol < 1.0 else math.inf
    floor = _RECURSION_ULPS * _U  # the guard's growth per depth

    if k_cap < 1:
        # l = n - 1: the tail is the lead term alone.
        g = _guard(lead_log, 0, kappa)
        lower, upper, k_used = lead * (1.0 - g), min(lead * (1.0 + g), 1.0), 0
        lower = lower if lower >= _TINY else 0.0
    else:
        A_prev, A, B_prev, B = 0.0, 1.0, 1.0, 1.0
        best_lo = 0.0  # even side, in S units
        best_hi = math.inf  # odd side; C_1 comes first, so it is finite below
        # Q_m = A_m / B_m is C_k at m = 2k and D_k at m = 2k + 1; both
        # coefficients of depth k share the denominator (l + m - 1)(l + m).
        # c_k enters negated, as _push's sign: A + (-c)*A_prev rounds
        # exactly as A - c*A_prev does.
        m_term = 2 * k_term + 1
        for m in range(2, 2 * k_cap + 2):
            k_used = m >> 1
            if m & 1:
                coeff = k_used * (n + k_used) * odds / ((l + m - 1) * (l + m))
            else:
                coeff = -((n - k_used - l) * (l + k_used) * odds / ((l + m - 1) * (l + m)))
                g = _guard(lead_log, k_used, kappa)
                up_f, lo_f = 1.0 + g, 1.0 - g
            A_prev, A = A, A + coeff * A_prev
            B_prev, B = B, B + coeff * B_prev
            a, b = abs(A), abs(B)
            big = b if b > a else a
            if big > RESCALE_THRESHOLD or big < RESCALE:
                f = RESCALE if big > RESCALE_THRESHOLD else RESCALE_THRESHOLD
                A, B, A_prev, B_prev = A * f, B * f, A_prev * f, B_prev * f
            if B == 0:
                raise NumericDegeneracyError(f"B_{m} = 0")
            v = A / B
            if m == m_term:
                best_lo = best_hi = v  # terminal convergent equals S exactly
            elif k_used & 1:
                if v < best_hi:
                    best_hi = v
            elif v > best_lo:
                best_lo = v
            upper = lead * best_hi * up_f
            if upper > 1.0:
                upper = 1.0
            lower = lead * best_lo * lo_f
            lower = lower if lower >= _TINY else 0.0
            if upper - lower <= tol * upper or upper < _TINY:
                break
            if g > hopeless and best_hi - best_lo <= floor * (best_hi + best_lo):
                break  # tol out of reach, and no later depth is narrower
    if upper < _TINY:
        return TailBracket(0.0, _TINY, k_used, lead_log, False)
    return TailBracket(lower, upper, k_used, lead_log, upper - lower <= tol * upper)


def left_tail_bracket(
    n: int, l: int, p, tol: float = 1e-8, k_max: Optional[int] = None
) -> TailBracket:
    """Certified bracket for a LEFT tail P(S_n <= l), for l < n*p - 1.

    Works on the flipped coin: P(S_n <= l) = P(S'_n > n-l-1) where S'
    counts failures, S' ~ Binomial(n, q).  The flipped threshold must
    itself clear the flipped mean, which is what the l < n*p - 1 bound
    guarantees; inside the sliver np-1 <= l <= np neither orientation is
    bracketable and binom_tail_exact is the tool.  q is exact, and the
    bracket runs in floats like any other.
    """
    flipped = TailQuery(n=n, l=n - l - 1, p=1 - _as_fraction(p))
    return bracket_tail(flipped, tol=tol, k_max=k_max)


class SeriesNotConvergedError(ArithmeticError):
    """Hypergeometric series failed to shrink within the term budget."""


def bahadur_tail(n: int, j: int, p, max_terms: int = 10**7) -> float:
    """P(S_n >= j) via the closed hypergeometric form.

    Evaluates lead * q * F(n+1, 1; j+1; p) where lead = C(n,j) p^j q^(n-j)
    and F's terms follow t_{k+1} = t_k * p (n+1+k)/(j+1+k).  The series is
    summed with periodic power-of-two rescaling (partial sums can dwarf
    float range when j is far below the mean) and truncated once a term
    drops below 1e-15 of the running sum.  Independent of the
    continued-fraction machinery; agrees with binom_tail_exact(n, j-1, p).
    """
    if not 1 <= j <= n:
        raise ValueError(f"j must lie in [1, n]=[1, {n}], got {j}")
    pf = _as_fraction(p)
    if not (0 < pf < 1):
        raise ValueError(f"p must lie strictly in (0, 1), got {p!r}")
    pflt = float(pf)
    lead_log = log_binom_pmf(n, j, pf)

    total = 1.0
    t = 1.0
    exponent = 0  # running sum is total * 2**exponent
    k = 0
    top, bottom = n + 1, j + 1  # n + 1 + k and j + 1 + k
    while True:
        t *= pflt * top / bottom
        total += t
        k += 1
        top += 1
        bottom += 1
        if t <= 1e-15 * total and pflt * top / bottom < 1.0:
            break
        if total > RESCALE_THRESHOLD:
            total *= RESCALE
            t *= RESCALE
            exponent += 512
        if k >= max_terms:
            raise SeriesNotConvergedError(
                f"series still growing after {max_terms} terms "
                f"(n={n}, j={j}, p={p!r}); fall back to binom_tail_exact"
            )
    log_val = lead_log + math.log1p(-pflt) + math.log(total) + exponent * math.log(2.0)
    return math.exp(min(log_val, 0.0))


__all__ = [
    "TailQuery",
    "CfCoefficients",
    "ConvergentState",
    "TailBracket",
    "cf_coefficients",
    "advance_convergents",
    "convergent_stream",
    "bracket_tail",
    "left_tail_bracket",
    "bahadur_tail",
    "binom_tail_exact",
    "MethodNotApplicableError",
    "NumericDegeneracyError",
    "SeriesNotConvergedError",
]
