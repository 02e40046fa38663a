"""Exponential tail bound for sums of independent centered variables.

For S_n = X_1 + ... + X_n with E X_j = 0, B_n^2 = Var S_n, and moment
growth E|X_j^k| <= k! (sigma_j^2 / 2) c^(k-2) for all k >= 3,

    P(|S_n| > t) < 2 exp( -t^2 / (2 B_n^2 + 2 c t) ).

Uniformly bounded variables |X_j| <= M satisfy the moment condition with
c = M/3.  The module evaluates the bound, checks the moment condition
against user-supplied absolute moments, and ships a seeded Monte Carlo
harness for validating the bound empirically.  The harness draws in
blocks of a fixed number of doubles, into one reused buffer, so its
memory does not grow with the sample count; the blocks take the same
draws in the same order as one samples-by-n array would.  Each row is
decided from a BLAS row sum of its uniforms against cuts widened by a
stated rounding margin, and a block with a row inside the margin is
re-summed whole the original way, so every seeded estimate is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

_C_FROM_M_TOL = 1e-15
# samples per seeded chunk; a seed's estimate depends on it
_MC_CHUNK = 20_000
# doubles per block of Monte Carlo draws; the estimate does not depend on it
_MC_BLOCK = 1 << 15
# unit roundoff of a double
_UNIT_ROUNDOFF = 2.0**-53


@dataclass(frozen=True)
class BernsteinInput:
    """Bound inputs: variance of the sum, growth constant c, threshold t.

    Passing the uniform bound M instead of (or along with) c pins
    c = M/3; supplying both with c != M/3 is rejected.
    """

    B_n_sq: float
    t: float
    c: Optional[float] = None
    M: Optional[float] = None

    def __post_init__(self):
        # each range check is written so that nan fails it
        if not self.B_n_sq > 0:
            raise ValueError(f"B_n_sq must be positive, got {self.B_n_sq!r}")
        if not self.t >= 0:
            raise ValueError(f"t must be non-negative, got {self.t!r}")
        if self.c is None and self.M is None:
            raise ValueError("provide c, or M (uniform bound) to set c = M/3")
        if self.M is not None:
            if not self.M > 0:
                raise ValueError(f"M must be positive, got {self.M!r}")
            implied = self.M / 3.0
            if self.c is None:
                object.__setattr__(self, "c", implied)
            elif abs(self.c - implied) > _C_FROM_M_TOL:
                raise ValueError(
                    f"c={self.c!r} contradicts M={self.M!r} (requires c = M/3)"
                )
        if not self.c > 0:
            raise ValueError(f"c must be positive, got {self.c!r}")


def bernstein_bound(inp: BernsteinInput) -> float:
    """2 exp(-t^2 / (2 B_n^2 + 2 c t)); lies in [0, 2], equals 2 at t = 0
    and its limit 0 at t = inf."""
    t = inp.t
    den = 2.0 * inp.B_n_sq + 2.0 * inp.c * t
    if t * t < math.inf and den < math.inf:
        return 2.0 * math.exp(-t**2 / den)
    # t^2 or c t overflows (t = inf included, where -inf/inf is nan): the
    # exponent divided through by t stays in range
    return 2.0 * math.exp(-t / (2.0 * inp.B_n_sq / t + 2.0 * inp.c))


@dataclass(frozen=True)
class MomentCheckReport:
    """Per-variable, per-order verdicts for the moment-growth condition."""

    holds: bool
    failures: tuple  # (variable index, k) pairs where the inequality broke


def moment_condition_check(
    sigma_sq: Sequence[float],
    c: float,
    moment_fn: Callable[[int, int], float],
    k_max: int = 10,
) -> MomentCheckReport:
    """Check E|X_j^k| <= k! (sigma_j^2 / 2) c^(k-2) for k = 3..k_max.

    moment_fn(j, k) must return the k-th absolute moment of variable j;
    exceptions it raises propagate annotated with the offending index.
    """
    if k_max < 3:
        raise ValueError(f"k_max must be at least 3, got {k_max}")
    if not c > 0:  # false for nan too
        raise ValueError(f"c must be positive, got {c!r}")
    failures = []
    for j, s2 in enumerate(sigma_sq):
        if not s2 > 0:
            raise ValueError(f"sigma_sq[{j}] must be positive, got {s2!r}")
        for k in range(3, k_max + 1):
            try:
                mom = moment_fn(j, k)
            except Exception as exc:
                raise RuntimeError(
                    f"moment evaluator failed at variable {j}, order {k}"
                ) from exc
            allowance = math.factorial(k) * (s2 / 2.0) * c ** (k - 2)
            if not mom <= allowance:  # a nan moment fails
                failures.append((j, k))
    return MomentCheckReport(holds=not failures, failures=tuple(failures))


def _summed_exceedances(u, t: float) -> int:
    """Rows of the (k, n) block u of uniform [0, 1) draws whose sum of
    2u - 1 exceeds t in absolute value, each row summed by the expression
    (2u - 1).sum(axis=1) on that (k, n) shape."""
    import numpy as np

    return int(np.count_nonzero(np.abs((2.0 * u - 1.0).sum(axis=1)) > t))


def mc_abs_sum_tail(
    n: int,
    t: float,
    seed: int,
    samples: int = 10**6,
):
    """Seeded Monte Carlo estimate of P(|X_1 + ... + X_n| > t).

    Returns (p_hat, standard_error).  The iid variables are uniform on
    [-1, 1], the standard bounded zero-mean test bed.  Work is split into
    chunks whose generators are spawned deterministically from the master
    seed, so the estimate is reproducible and chunks could run in parallel
    without changing it.  Each chunk draws its rows in blocks of about
    _MC_BLOCK doubles, into one buffer reused for every block, the same
    draws in the same order as one samples-by-n array, so memory stays
    O(block) at any sample count.

    A row counts when |R| > t, R being the row's sum of X_j = 2 U_j - 1
    as (2U - 1).sum(axis=1) forms it: X_j is exactly the double that
    uniform(-1, 1) draws from the same U_j.  With S the row's BLAS sum
    U @ ones(n), |R| > t when |S - n/2| > t/2 + margin and |R| < t when
    |S - n/2| < t/2 - margin, where t is first clamped to [-n, n] (|R| <= n
    holds for any rounded sum of n terms in [-1, 1], so the clamp changes
    no decision and keeps the cuts finite).  The margin is
    2 gamma_{n-1} n + 2 u n, u = 2^-53 and gamma_k = k u / (1 - k u):
    each of R and S lies within gamma_{n-1} n of its exact value in any
    summation order, FMA included (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 3-4), which moves |R|/2 against |S - n/2|
    by at most 1.5 gamma_{n-1} n, and 2 u n covers the rounding of
    S - n/2 and of the cuts.  A block with a row between the cuts is
    re-summed whole by the original expression, so every seeded
    estimate keeps its bits.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    if math.isnan(t):
        raise ValueError("t must be a number, got nan")
    import numpy as np

    master = np.random.SeedSequence(seed)
    children = master.spawn(math.ceil(samples / _MC_CHUNK))
    # no block holds more rows than a chunk or the run has, so neither does the buffer
    rows = max(1, min(_MC_BLOCK // n, _MC_CHUNK, samples))
    buf = np.empty(rows * n)
    ones = np.ones(n)
    gamma = (n - 1) * _UNIT_ROUNDOFF / (1 - (n - 1) * _UNIT_ROUNDOFF)
    margin = 2 * gamma * n + 2 * _UNIT_ROUNDOFF * n
    half_t = min(max(t, -n), n) / 2
    above, below = half_t + margin, half_t - margin
    exceed = 0
    done = 0
    for child in children:
        m = min(_MC_CHUNK, samples - done)
        rng = np.random.default_rng(child)
        for first in range(0, m, rows):
            k = min(rows, m - first)
            u = buf[: k * n].reshape(k, n)
            rng.random(out=u)
            dev = u @ ones
            dev -= n / 2
            np.abs(dev, out=dev)
            out = int(np.count_nonzero(dev > above))
            if out + int(np.count_nonzero(dev < below)) == k:
                exceed += out
            else:
                exceed += _summed_exceedances(u, t)
        done += m
    p_hat = exceed / samples
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / samples) / samples)
    return p_hat, se


__all__ = [
    "BernsteinInput",
    "MomentCheckReport",
    "bernstein_bound",
    "moment_condition_check",
    "mc_abs_sum_tail",
]
