"""Probability of a success run: four genuinely different computations.

y_n is the probability of at least r consecutive successes somewhere in n
independent p-trials; z_n = 1 - y_n.  The module offers:

* the first-order difference scheme on z (linear time, any n),
* the closed-form alternating binomial sum read off the generating
  function z(xi) = (1 - p^r xi^r) / (1 - xi + q p^r xi^(r+1)),
* the eighteenth-century power-series division algorithm (sum the first
  n - r + 1 coefficients of p^r / (1 - q - (p/q)q^2 - ... - (p/q)^(r-1)q^r),
  expanding in powers of q), and
* a dynamic program over the trailing run length, the oracle the other
  three are tested against.

An exact p = a/d (a Fraction) runs as integer recurrences over d^n:
each method carries d^t times its state as an exact integer, with
q = c/d, and builds one Fraction at the end, so no step pays for a gcd.
A float p runs the same recurrences with (a, c, d) = (p, 1 - p, 1.0) and
gives float results, its sums added left to right in explicit loops:
Python 3.12 made the built-in sum compensated, and these keep their bits
on every version.  The closed form alternates in sign, so for float
p it raises CancellationError when its rounding error bound exceeds
BETA_TOL rather than return a value that cancelled away.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, islice

from .numerics import _p_ratio


@dataclass(frozen=True)
class RunSpec:
    """Run-probability problem: n tosses, run length r, success chance p."""

    n: int
    r: int
    p: object

    def __post_init__(self):
        if not 1 <= self.r <= self.n:
            raise ValueError(f"need 1 <= r <= n, got r={self.r}, n={self.n}")
        _p_ratio(self.p)


def _split(p):
    """(a, c, d) with p = a/d and q = 1 - p = c/d.

    An exact p gives integers, so each method below carries d^t times its
    state as an exact integer and divides once at the end.  A float p
    gives (p, 1 - p, 1.0), rounded once from its ratio: there every product
    with a power of d is exact, so the float operations are the ones the
    unscaled recurrence would make, in the same order.
    """
    num, den = _p_ratio(p)
    if isinstance(p, float):
        return num / den, (den - num) / den, 1.0
    return num, den - num, den


def _ratio(num, den):
    """num / den: one Fraction for integers, a float division by 1.0 otherwise."""
    return Fraction(num, den) if isinstance(den, int) else num / den


def run_prob_recursive(spec: RunSpec):
    """y_n by forward iteration of z_{m+1} = z_m - q p^r z_{m-r}.

    Seed values: z_j = 1 for j < r (too few tosses for any run) and
    z_r = 1 - p^r (all r tosses must succeed).  It runs on Z_m = d^m z_m,
    for which Z_{m+1} = d Z_m - c a^r Z_{m-r}, over a ring of the last
    r + 1 values.  O(n) steps, O(r) memory.
    """
    n, r = spec.n, spec.r
    a, c, d = _split(spec.p)
    step = c * a**r
    z = d**r - a**r
    ring = [d**j for j in range(r)] + [z]  # Z_0 .. Z_r
    # advance m from r to n-1: Z_{m-r} sits in slot (m - r) mod (r + 1),
    # and Z_{m+1} takes its place there
    for i in islice(cycle(range(r + 1)), n - r):
        z = d * z - step * ring[i]
        ring[i] = z
    return _ratio(d**n - z, d**n)


class CancellationError(ArithmeticError):
    """A float alternating sum whose rounding error bound exceeds its tolerance."""


# Absolute error allowed to run_prob_beta with float p: the tolerance to
# which the four methods are required to agree.
BETA_TOL = 1e-10

# Below this log a term is under half the smallest subnormal, with room
# for the error of its lgamma estimate, so it rounds to 0.0.
_LOG_ROUNDS_TO_ZERO = -1080 * math.log(2)


def _log_abs_terms(m: int, r: int, log_w: float) -> list:
    """log |term k| = log C(m - k*r, k) + k log w for every term of beta(m)."""
    return [
        math.lgamma(m - k * r + 1) - math.lgamma(k + 1) - math.lgamma(m - k * r - k + 1)
        + k * log_w
        for k in range(m // (r + 1) + 1)
    ]


def _times_power(c: int, w, k: int):
    """c * w**k: exact for an integer w.

    For a float w it is float(c) * w**k unless float(c) overflows or w**k
    falls below the normal range; then it is c * w**k in integers, from
    w's exact binary value, rounded once.
    """
    wk = w**k
    if wk >= sys.float_info.min:  # as every integer w**k is
        try:
            return c * wk
        except OverflowError:
            pass
    num, den = w.as_integer_ratio()  # den is a power of two
    return c * num**k / (1 << k * (den.bit_length() - 1))


def run_prob_beta(spec: RunSpec):
    """y_n from the generating-function coefficients in closed form.

    z_n = beta(n) - p^r beta(n-r) with
    beta(m) = sum_k (-1)^k C(m - k*r, k) (q p^r)^k, the sum running while
    the binomial is nonzero (k <= m/(r+1), the same cut-off either way).
    It runs on d^m beta(m) = sum_k (-1)^k C(m - k*r, k) w^k d^(m - k(r+1))
    with w = c a^r, totalled by Horner in d^(r+1).

    For float p the terms can dwarf the result.  To first order, term k
    is off by at most (3k + 3) units of 2^-53 relative (w = q p^r takes
    three roundings and is raised to the k-th power; the power, the
    binomial's conversion and the product add one each; where the
    binomial passes the float range or w^k underflows, the term is formed
    in integers from w and rounded once, 3k + 1 units), the running sum
    adds (K - 1) units of the sum of |terms|, K the number of terms, and
    scaling by p^r and the two final subtractions add three more.  So
    |error| <= (4K + 4) 2^-53 S with S the sum of |terms| of beta(n) and of
    p^r beta(n-r).  The bound is formed in logs before any term is, and
    above BETA_TOL the function raises CancellationError.  A term whose
    log puts it below the subnormal range rounds to 0.0 and is skipped.
    """
    n, r, p = spec.n, spec.r, spec.p
    a, c, d = _split(p)
    w = c * a**r
    logs = dict.fromkeys((n, n - r))  # an exact term is never skipped
    if isinstance(w, float):
        log_p = math.log(p)
        log_w = math.log(c) + r * log_p
        logs = {m: _log_abs_terms(m, r, log_w) for m in (n, n - r)}
        all_logs = logs[n] + [r * log_p + x for x in logs[n - r]]
        top = max(all_logs)
        log_s = top + math.log(math.fsum(math.exp(x - top) for x in all_logs))
        log_bound = math.log(4 * (n // (r + 1) + 1) + 4) - 53 * math.log(2) + log_s
        if log_bound > math.log(BETA_TOL):
            raise CancellationError(
                f"closed form for (n={n}, r={r}, p={p!r}) could lose up to "
                f"10^{log_bound / math.log(10):.1f} to rounding (> {BETA_TOL:g}); "
                "pass p as a Fraction or use run_prob_recursive"
            )
    shift = d ** (r + 1)

    def scaled_beta(m):
        total, log_t = 0 * w, logs[m]
        for k in range(m // (r + 1) + 1):
            total *= shift
            if log_t is None or log_t[k] > _LOG_ROUNDS_TO_ZERO:
                total += _times_power((-1) ** k * math.comb(m - k * r, k), w, k)
        return total * d ** (m % (r + 1))

    z = scaled_beta(n) - a**r * scaled_beta(n - r)
    return _ratio(d**n - z, d**n)


def run_prob_demoivre(spec: RunSpec):
    """y_n by series division.

    Expands p^r / (1 - sum_{j=1}^{r} (p/q)^(j-1) q^j) as a power series in
    q, i.e. the linear recurrence u_k = sum_j (p/q)^(j-1) u_{k-j}, and
    returns p^r * sum_{k<=n-r} u_k q^k.  It runs on B_k = d^k u_k q^k, for
    which the recurrence reads B_k = sum_{j<=r} c a^(j-1) B_{k-j} with
    B_0 = 1, over a window of the last r values; the sum is totalled by
    Horner in d.  Every term is positive, so float p loses nothing to
    cancellation; an exact p gives the exact rational.
    """
    n, r = spec.n, spec.r
    a, c, d = _split(spec.p)
    weights = [c * a ** (j - 1) for j in range(1, r + 1)]
    window = deque([d**0], maxlen=r)  # B_{k-1}, B_{k-2}, ..., newest first
    total = d**0  # sum_{i<k} B_i d^(k-1-i)
    for _ in range(n - r):
        b = 0  # left to right, not sum()
        for w, s in zip(weights, window):
            b += w * s
        window.appendleft(b)
        total = total * d + b
    return _ratio(a**r * total, d**n)


def run_prob_oracle(spec: RunSpec):
    """y_n by dynamic programming over the current trailing run length.

    States 0..r-1 track the run in progress (after t tosses, those past t
    are empty and left out); r is absorbing ("run seen").  It carries d^t
    times each state's probability after t tosses: the run-free states
    step as s_0 = sum_j c s_j and s_{j+1} = a s_j, the absorbing one as
    s_r = d s_r + a s_{r-1}.  Exact for an exact p; the test suite
    additionally cross-checks this against full 2^n enumeration for
    small n.
    """
    n, r = spec.n, spec.r
    a, c, d = _split(spec.p)
    run = [d**0]  # trailing run of length 0 .. min(t, r - 1)
    seen = 0 * a
    for _ in range(n):
        head = 0  # left to right, not sum()
        for s in run:
            head += c * s
        seen *= d
        if len(run) == r:
            seen += a * run.pop()
        run = [head] + [a * s for s in run]
    return _ratio(seen, d**n)


__all__ = [
    "RunSpec",
    "run_prob_recursive",
    "run_prob_beta",
    "run_prob_demoivre",
    "run_prob_oracle",
    "CancellationError",
    "BETA_TOL",
]
