"""Executable sample-size bounds for the weak law of large numbers.

Two classical bounds are provided as honest integer outputs:

* the geometric-blocking bound: the smallest N such that for all n >= N
  the one-sided event {S_n/n >= p + eps} has probability below eta, and
* the all-following-trials bound N > (2/eps^2) ln(4/(eps^2 eta)) + 2,
  which controls |S_n/n - p| < eps simultaneously for every n >= N.

The blocking bound hinges on an auxiliary integer alpha, the least power
at which (p/(p+eps))^alpha <= eta.  An off-by-one in alpha silently voids
the guarantee, so alpha is certified by decimal logs whose error is
bounded, refined until no integer is in doubt, rather than trusted to
floating logs.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .numerics import _as_fraction


@dataclass(frozen=True)
class LlnQuery:
    """Accuracy/confidence request: |S_n/n - p| < eps with slack eta."""

    p: object
    eps: object
    eta: object
    exact: tuple = field(init=False, repr=False, compare=False)  # (p, eps, eta) as Fractions

    def __post_init__(self):
        given = (self.p, self.eps, self.eta)
        for name, v in zip(("p", "eps", "eta"), given):
            if not (0 < v < 1):  # false for nan; tested before inf meets Fraction
                raise ValueError(f"{name} must lie strictly in (0, 1), got {v!r}")
        exact = tuple(map(_as_fraction, given))
        if exact[0] + exact[1] > 1:
            raise ValueError(
                f"p + eps must not exceed 1 for the upper-tail event to be "
                f"non-trivial (p={self.p!r}, eps={self.eps!r})"
            )
        object.__setattr__(self, "exact", exact)


def _ln_enclosure(q: Fraction, prec: int):
    """(value, error): ln q from the decimal log of q at prec digits,
    |value - ln q| <= error.

    The quotient and its log both round to nearest, in the widest
    exponent range, so the log is within (0.52 + |log| / 2) * 10^(1-prec).
    """
    ctx = decimal.Context(prec, decimal.ROUND_HALF_EVEN, decimal.MIN_EMIN, decimal.MAX_EMAX)
    log = Fraction(ctx.ln(ctx.divide(q.numerator, q.denominator)))
    return log, (1 + abs(log)) / 10 ** (prec - 1)


def _floor_of(enclose) -> int:
    """floor(x) for an x that is not an integer.

    enclose(prec) returns (low, high) with low <= x <= high, from decimal
    logs at prec digits; prec doubles from 32 until the enclosure holds no
    integer, which it must once its width falls below x's distance to one.
    """
    prec = 32
    while True:
        low, high = enclose(prec)
        if math.floor(low) == math.floor(high):
            return math.floor(low)
        prec *= 2


def bernoulli_alpha(query: LlnQuery) -> int:
    """Least alpha >= 1 with (p/(p+eps))^alpha <= eta, certified exactly.

    alpha = ceil(x) with x = ln eta / ln ratio.  x is an integer K only if
    ratio^K = eta: ratio = a/b in lowest terms with b >= 2, so b^K must be
    eta's denominator d, and K = round(ln d / ln b) is the one candidate,
    settled by one exact power.  Otherwise alpha = floor(x) + 1, with the
    floor taken from decimal logs by _floor_of.
    """
    p, eps, eta = query.exact
    ratio = p / (p + eps)
    k = round(math.log(eta.denominator) / math.log(ratio.denominator))
    if ratio**k == eta:
        return k

    def enclose(prec):
        # both logs are negative: x = |ln eta| / |ln ratio| > 0
        log_eta, err_eta = _ln_enclosure(eta, prec)
        log_ratio, err_ratio = _ln_enclosure(ratio, prec)
        if -log_ratio <= err_ratio:
            return 0, 1  # |ln ratio| not yet bounded away from 0
        return ((-log_eta - err_eta) / (-log_ratio + err_ratio),
                (-log_eta + err_eta) / (-log_ratio - err_ratio))

    return _floor_of(enclose) + 1


def bernoulli_n_bound(query: LlnQuery) -> int:
    """Smallest certified N = ceil[(alpha(1+eps) - q) / (eps(p+eps))].

    For every n >= N the one-sided tail P(S_n >= upper_count(n, query))
    is below eta.  The ceiling is taken in exact rational arithmetic; an
    exactly integral bound is returned as that integer.
    """
    return _n_bound(query, bernoulli_alpha(query))


def _n_bound(query: LlnQuery, alpha: int) -> int:
    """bernoulli_n_bound for alpha = bernoulli_alpha(query), already in hand."""
    p, eps, _ = query.exact
    q = 1 - p
    bound = (alpha * (1 + eps) - q) / (eps * (p + eps))
    return max(1, math.ceil(bound))


def upper_count(n: int, query: LlnQuery) -> int:
    """The integer mu with mu - 1 < n*p + n*eps <= mu.

    The certified one-sided event at sample size n is {S_n >= mu}.
    """
    p, eps, _ = query.exact
    return math.ceil(n * p + n * eps)


def bernoulli_n_bound_two_sided(query: LlnQuery) -> int:
    """Sample size after which BOTH tails are controlled at total level eta.

    Convention: eta is split evenly, each one-sided bound run at eta/2,
    with the lower tail handled on the flipped coin (p -> q).  The flipped
    query needs q + eps <= 1, i.e. eps <= p.
    """
    p, eps, eta = query.exact
    if eps > p:
        raise ValueError(
            f"two-sided bound needs eps <= p so the lower-tail event is "
            f"non-trivial (p={query.p!r}, eps={query.eps!r})"
        )
    upper = bernoulli_n_bound(LlnQuery(p, eps, eta / 2))
    lower = bernoulli_n_bound(LlnQuery(1 - p, eps, eta / 2))
    return max(upper, lower)


def cantelli_n(eps, eta) -> int:
    """Smallest integer strictly above (2/eps^2) ln(4/(eps^2 eta)) + 2.

    From this N on, the relative frequency stays within eps of p on the
    N-th AND every later trial, with probability above 1 - eta.  The
    infinite-horizon guarantee itself is not desk-checkable; only the
    formula and its monotonicities are tested.

    The value is taken for the exact eps and eta, its floor settled by
    _floor_of, so near-integer values cannot round to the wrong side; it
    is never an integer, as ln r is irrational for rational r = 4/(eps^2 eta) > 4.
    """
    if not (0 < eps < 1 and 0 < eta < 1):
        raise ValueError(f"eps and eta must lie strictly in (0, 1), got {eps!r}, {eta!r}")
    eps, eta = _as_fraction(eps), _as_fraction(eta)
    c = 2 / (eps * eps)

    def enclose(prec):
        log, err = _ln_enclosure(4 / (eps * eps * eta), prec)
        return c * (log - err) + 2, c * (log + err) + 2

    return _floor_of(enclose) + 1


__all__ = [
    "LlnQuery",
    "bernoulli_alpha",
    "bernoulli_n_bound",
    "bernoulli_n_bound_two_sided",
    "upper_count",
    "cantelli_n",
]
