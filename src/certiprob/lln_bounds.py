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
from dataclasses import dataclass
from fractions import Fraction

from .numerics import _as_fraction


@dataclass(frozen=True)
class LlnQuery:
    """Accuracy/confidence request: |S_n/n - p| < eps with slack eta."""

    p: object
    eps: object
    eta: object

    def __post_init__(self):
        pf, ef, hf = map(_as_fraction, (self.p, self.eps, self.eta))
        for name, v in (("p", pf), ("eps", ef), ("eta", hf)):
            if not (0 < v < 1):
                raise ValueError(f"{name} must lie strictly in (0, 1), got {v}")
        if pf + ef > 1:
            raise ValueError(
                f"p + eps must not exceed 1 for the upper-tail event to be "
                f"non-trivial (p={self.p!r}, eps={self.eps!r})"
            )


def _ln_enclosure(q: Fraction, prec: int):
    """(value, error): ln q from decimal logs of its numerator and
    denominator at prec digits, |value - ln q| <= error.

    Decimal.ln rounds correctly, so each log is within half a unit of its
    last digit, below |log| * 10^(1-prec); the difference is exact.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = prec
        logs = [Fraction(decimal.Decimal(v).ln()) for v in (q.numerator, q.denominator)]
    return logs[0] - logs[1], (abs(logs[0]) + abs(logs[1])) / 10 ** (prec - 1)


def bernoulli_alpha(query: LlnQuery) -> int:
    """Least alpha >= 1 with (p/(p+eps))^alpha <= eta, certified exactly.

    alpha = ceil(x) with x = ln eta / ln ratio.  x is enclosed by decimal
    logs at a precision that doubles until the enclosure holds no integer.
    x can be an integer K only if ratio^K = eta: ratio = a/b in lowest
    terms with b >= 2, so b^K must be eta's denominator, and K is at most
    its bit length.  An enclosure holding a single integer K that small
    is settled by one exact power instead.
    """
    p = _as_fraction(query.p)
    eps = _as_fraction(query.eps)
    eta = _as_fraction(query.eta)
    ratio = p / (p + eps)
    k_max = eta.denominator.bit_length()
    prec = 32
    while True:
        # both logs are negative: x = |ln eta| / |ln ratio| > 0, and high >= 0
        log_eta, err_eta = _ln_enclosure(eta, prec)
        log_ratio, err_ratio = _ln_enclosure(ratio, prec)
        if -log_ratio > err_ratio:
            low = (-log_eta - err_eta) / (-log_ratio + err_ratio)
            high = (-log_eta + err_eta) / (-log_ratio - err_ratio)
            k = math.floor(high)
            if k < low:  # no integer in [low, high]
                return k + 1
            if k - 1 < low and k <= k_max:  # k is the only integer in it
                return k if ratio**k <= eta else k + 1
        prec *= 2


def bernoulli_n_bound(query: LlnQuery) -> int:
    """Smallest certified N = ceil[(alpha(1+eps) - q) / (eps(p+eps))].

    For every n >= N the one-sided tail P(S_n >= upper_count(n, query))
    is below eta.  The ceiling is taken in exact rational arithmetic; an
    exactly integral bound is returned as that integer.
    """
    alpha = bernoulli_alpha(query)
    p = _as_fraction(query.p)
    eps = _as_fraction(query.eps)
    q = 1 - p
    bound = (alpha * (1 + eps) - q) / (eps * (p + eps))
    return max(1, math.ceil(bound))


def upper_count(n: int, query: LlnQuery) -> int:
    """The integer mu with mu - 1 < n*p + n*eps <= mu.

    The certified one-sided event at sample size n is {S_n >= mu}.
    """
    x = n * _as_fraction(query.p) + n * _as_fraction(query.eps)
    return math.ceil(x)


def bernoulli_n_bound_two_sided(query: LlnQuery) -> int:
    """Sample size after which BOTH tails are controlled at total level eta.

    Convention: eta is split evenly, each one-sided bound run at eta/2,
    with the lower tail handled on the flipped coin (p -> q).  The flipped
    query needs q + eps <= 1, i.e. eps <= p.
    """
    p = _as_fraction(query.p)
    eps = _as_fraction(query.eps)
    eta = _as_fraction(query.eta)
    if eps > p:
        raise ValueError(
            f"two-sided bound needs eps <= p so the lower-tail event is "
            f"non-trivial (p={query.p!r}, eps={query.eps!r})"
        )
    upper = bernoulli_n_bound(LlnQuery(p, eps, eta / 2))
    lower = bernoulli_n_bound(LlnQuery(1 - p, eps, eta / 2))
    return max(upper, lower)


def _cantelli_floor_exact(eps: Fraction, eta: Fraction) -> int:
    """floor((2/eps^2) ln(4/(eps^2 eta)) + 2), the log taken in decimal.

    At precision P the quotient is within half a unit of its last digit
    and Decimal.ln rounds correctly, so the log is within 10^(1-P) (1 + L)
    of ln r.  P doubles until that interval holds no integer; the value is
    never an integer (ln of a rational r != 1 is irrational, and r > 4),
    so the loop ends.
    """
    r = 4 / (eps * eps * eta)
    c = 2 / (eps * eps)
    prec = 32
    while True:
        with decimal.localcontext() as ctx:
            ctx.prec = prec
            log = Fraction((decimal.Decimal(r.numerator) / decimal.Decimal(r.denominator)).ln())
        slack = (1 + log) / 10 ** (prec - 1)
        low = math.floor(c * (log - slack) + 2)
        if low == math.floor(c * (log + slack) + 2):
            return low
        prec *= 2


def cantelli_n(eps, eta) -> int:
    """Smallest integer strictly above (2/eps^2) ln(4/(eps^2 eta)) + 2.

    From this N on, the relative frequency stays within eps of p on the
    N-th AND every later trial, with probability above 1 - eta.  The
    infinite-horizon guarantee itself is not desk-checkable; only the
    formula and its monotonicities are tested.

    The value is taken for the exact eps and eta, its floor settled in
    decimal (_cantelli_floor_exact), so near-integer values cannot round
    to the wrong side.
    """
    if not (0 < eps < 1 and 0 < eta < 1):
        raise ValueError(f"eps and eta must lie strictly in (0, 1), got {eps!r}, {eta!r}")
    return _cantelli_floor_exact(_as_fraction(eps), _as_fraction(eta)) + 1


__all__ = [
    "LlnQuery",
    "bernoulli_alpha",
    "bernoulli_n_bound",
    "bernoulli_n_bound_two_sided",
    "upper_count",
    "cantelli_n",
]
