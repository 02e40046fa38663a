"""Dispersion analysis for series of Bernoulli trials.

Given n independent series of s trials each, the dispersion coefficient Q
normalizes the squared deviations of per-series success counts by the
binomial variance they would have under a single common probability.  Its
expectation D cleanly separates three textbook regimes:

* all cell probabilities equal          -> D = 1 (normal dispersion)
* constant within rows, varying across  -> D > 1 (supernormal)
* rows identical, varying within        -> D < 1 (subnormal)

The plug-in statistic Q_hat replaces the unknown probability by the
pooled frequency; in the equal-probability case its exact mean is 1 and
its exact variance is a finite binomial-weighted sum with two simple
upper bounds.

Scalars stay generic: Fractions propagate through every formula, which
the test suite exploits to compare against exhaustive enumeration with
zero rounding.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .numerics import _p_ratio, _pmf_terms


class Regime(enum.Enum):
    BERNOULLI = "bernoulli"
    LEXIS = "lexis"
    POISSON = "poisson"
    MIXED = "mixed"


@dataclass(frozen=True)
class TrialMatrix:
    """Per-trial success probabilities, one row per series (n rows, s columns)."""

    p: tuple

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.p)
        object.__setattr__(self, "p", rows)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        s = len(rows[0])
        if any(len(r) != s for r in rows):
            raise ValueError("all rows must have the same length")
        for r in rows:
            for x in r:
                if not 0 <= x <= 1:
                    raise ValueError(f"matrix entries must lie in [0, 1], got {x!r}")

    @property
    def n(self) -> int:
        return len(self.p)

    @property
    def s(self) -> int:
        return len(self.p[0])

    @property
    def N(self) -> int:
        return self.n * self.s

    def row_means(self):
        """p_i = (sum_j p_ij)/s, recomputed on every call."""
        return tuple(sum(r) / self.s for r in self.p)

    def grand_mean(self):
        return sum(self.row_means()) / self.n


@dataclass(frozen=True)
class CountVector:
    """Successes per series: 0 <= m_i <= s."""

    m: tuple
    s: int

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(int(x) for x in self.m))
        if self.s < 1:
            raise ValueError(f"s must be positive, got {self.s}")
        for x in self.m:
            if not 0 <= x <= self.s:
                raise ValueError(f"counts must lie in [0, s]=[0, {self.s}], got {x}")

    @property
    def n(self) -> int:
        return len(self.m)

    @property
    def N(self) -> int:
        return self.n * self.s

    @property
    def M(self) -> int:
        return sum(self.m)


@dataclass(frozen=True)
class DispersionReport:
    Q: float
    Q_hat: float
    D: float
    regime: Regime


def dispersion_Q(counts: CountVector, p):
    """Q = sum_i (m_i - s*p)^2 / (N p (1-p))."""
    _p_ratio(p)
    s = counts.s
    dev = sum((m - s * p) ** 2 for m in counts.m)
    return dev / (counts.N * p * (1 - p))


def _classify(trials: TrialMatrix) -> Regime:
    # exact: floats and Fractions are rationals, and == compares them as such
    rows = trials.p
    if all(max(r) == min(r) for r in rows):
        return Regime.BERNOULLI if all(r[0] == rows[0][0] for r in rows) else Regime.LEXIS
    if all(r == rows[0] for r in rows[1:]):
        return Regime.POISSON
    return Regime.MIXED


def expected_D(trials: TrialMatrix):
    """(D, regime) where D = E(Q) from the exact expectation of the counts.

    Independence gives Var(m_i) = sum_j p_ij(1-p_ij) and the mean shift
    contributes s^2 (p_i - p_bar)^2, so

        D = [sum_ij p_ij(1-p_ij) + s^2 sum_i (p_i - p_bar)^2] / (N p_bar (1-p_bar))

    which is the unambiguous form the three-term display reduces to (the
    test suite's expected_D_three_term).
    """
    pi = trials.row_means()
    pbar = sum(pi) / trials.n  # grand_mean(), without a second pass over the rows
    if not 0 < pbar < 1:
        raise ValueError(f"grand mean must lie strictly in (0, 1), got {pbar!r}")
    s = trials.s
    var_sum = sum(x * (1 - x) for r in trials.p for x in r)
    shift_sum = sum((x - pbar) ** 2 for x in pi)
    D = (var_sum + s * s * shift_sum) / (trials.N * pbar * (1 - pbar))
    return D, _classify(trials)


def empirical_Q_hat(counts: CountVector):
    """Plug-in dispersion: Q_hat = n(N-1)/(n-1) * sum(m_i - sM/N)^2 / [M(N-M)].

    Defined as 1 when M = 0 or M = N (no information about dispersion).
    """
    n, s, N, M = counts.n, counts.s, counts.N, counts.M
    if n < 2:
        raise ValueError(f"need at least 2 series, got n={n}")
    if M == 0 or M == N:
        return 1
    center = Fraction(s * M, N)
    dev = sum((m - center) ** 2 for m in counts.m)
    return Fraction(n * (N - 1), n - 1) * dev / (M * (N - M))


def moments_Q_hat(n: int, s: int, p):
    """Exact moments of Q_hat in the equal-probability case.

    Returns (mean, variance, bound1, bound2) with mean = 1,

        variance = 2N(N-n)/[(n-1)(N-2)(N-3)] *
                   sum_{M=1}^{N-1} (M-1)/M * (N-M-1)/(N-M) * C(N,M) p^M q^(N-M)

    bound1 = 2N(N-n)/[(n-1)(N-2)(N-3)] (drop the sub-unit sum), and
    bound2 = 2/(n-1) present only when n >= 5, else None.  Fraction p
    gives exact rational output; float p takes the binomial weights from
    numerics._pmf_terms, so no factor overflows at large N.
    """
    if n < 2 or s < 1:
        raise ValueError(f"need n >= 2 and s >= 1, got n={n}, s={s}")
    N = n * s
    if N <= 3:
        raise ValueError(f"need N = n*s >= 4 (bound denominators), got N={N}")
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    scalar = Fraction if isinstance(p, (Fraction, int)) else float
    if p in (0, 1):
        weights = ()  # no weight on 0 < M < N
    elif scalar is Fraction:
        weights = (math.comb(N, M) * p**M * (1 - p) ** (N - M) for M in range(1, N))
    else:
        weights = _pmf_terms(N, 1, N - 1, p)
    total = scalar(0)
    for M, w in enumerate(weights, 1):
        total += (M - 1) * (N - M - 1) * w / (M * (N - M))
    front = scalar(Fraction(2 * N * (N - n), (n - 1) * (N - 2) * (N - 3)))
    bound2 = scalar(Fraction(2, n - 1)) if n >= 5 else None
    return scalar(1), front * total, front, bound2


def dispersion_report(trials: TrialMatrix, counts: CountVector) -> DispersionReport:
    """Assemble the full report: Q at the grand mean, Q_hat, D, regime."""
    if counts.n != trials.n or counts.s != trials.s:
        raise ValueError("counts and trial matrix shape mismatch")
    D, regime = expected_D(trials)
    q = dispersion_Q(counts, trials.grand_mean())
    return DispersionReport(
        Q=float(q), Q_hat=float(empirical_Q_hat(counts)), D=float(D), regime=regime
    )


__all__ = [
    "Regime",
    "TrialMatrix",
    "CountVector",
    "DispersionReport",
    "dispersion_Q",
    "expected_D",
    "empirical_Q_hat",
    "moments_Q_hat",
    "dispersion_report",
]
