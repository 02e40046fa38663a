"""Exponential tail bound for sums of independent centered variables.

For S_n = X_1 + ... + X_n with E X_j = 0, B_n^2 = Var S_n, and moment
growth E|X_j^k| <= k! (sigma_j^2 / 2) c^(k-2) for all k >= 3,

    P(|S_n| > t) < 2 exp( -t^2 / (2 B_n^2 + 2 c t) ).

Uniformly bounded variables |X_j| <= M satisfy the moment condition with
c = M/3.  The module evaluates the bound, checks the moment condition
against user-supplied absolute moments, and ships a seeded Monte Carlo
harness for validating the bound empirically.  The harness draws in
blocks of a fixed number of doubles, so its memory does not grow with
the sample count; the blocks take the same draws in the same order as
one samples-by-n array would, and every seeded estimate is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

_C_FROM_M_TOL = 1e-15
# samples per seeded chunk; a seed's estimate depends on it
_MC_CHUNK = 20_000
# doubles per block of Monte Carlo draws; the estimate does not depend on it
_MC_BLOCK = 1 << 15


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
    _MC_BLOCK doubles, the same draws in the same order as one
    samples-by-n array and each row summed alike, so memory stays
    O(block) at any sample count and the estimate is unchanged.
    """
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    if math.isnan(t):
        raise ValueError("t must be a number, got nan")
    master = np.random.SeedSequence(seed)
    children = master.spawn(math.ceil(samples / _MC_CHUNK))
    rows = max(1, _MC_BLOCK // max(n, 1))  # rows of n = 0 draw nothing
    exceed = 0
    done = 0
    for child in children:
        m = min(_MC_CHUNK, samples - done)
        rng = np.random.default_rng(child)
        for first in range(0, m, rows):
            sums = rng.uniform(-1.0, 1.0, size=(min(rows, m - first), n)).sum(axis=1)
            exceed += int(np.count_nonzero(np.abs(sums) > t))
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
