"""Probability of a success run: four genuinely different computations.

y_n is the probability of at least r consecutive successes somewhere in n
independent p-trials; z_n = 1 - y_n.  The module offers:

* the first-order difference scheme on z (linear time, any n),
* the closed-form alternating binomial sum read off the generating
  function z(xi) = (1 - p^r xi^r) / (1 - xi + q p^r xi^(r+1)),
* the eighteenth-century power-series division algorithm (sum the first
  n - r + 1 coefficients of p^r / (1 - q - cq^2 - ... - c^(r-1)q^r) with
  c = p/q, expanding in powers of q), and
* a dynamic program over the trailing run length, the oracle the other
  three are tested against.

All four run in p's own scalar type: Fraction p gives exact results,
float p float ones.  The closed form alternates in sign, so for float p
it raises CancellationError when its rounding error bound exceeds
BETA_TOL rather than return a value that cancelled away.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .numerics import _check_p


@dataclass(frozen=True)
class RunSpec:
    """Run-probability problem: n tosses, run length r, success chance p."""

    n: int
    r: int
    p: object

    def __post_init__(self):
        if not 1 <= self.r <= self.n:
            raise ValueError(f"need 1 <= r <= n, got r={self.r}, n={self.n}")
        _check_p(self.p)


def run_prob_recursive(spec: RunSpec):
    """y_n by forward iteration of z_{m+1} = z_m - q p^r z_{m-r}.

    Seed values: z_j = 1 for j < r (too few tosses for any run) and
    z_r = 1 - p^r (all r tosses must succeed).  O(n) time, O(r) memory.
    """
    n, r, p = spec.n, spec.r, spec.p
    q = 1 - p
    step = q * p**r
    one = 1 - p * 0  # scalar-typed like p
    window = deque([one] * r + [one - p**r])  # z_0 .. z_r
    # window holds z_{m-r} .. z_m; advance m from r to n-1
    for _ in range(r, n):
        window.append(window[-1] - step * window.popleft())
    return 1 - window[-1]


class CancellationError(ArithmeticError):
    """A float alternating sum whose rounding error bound exceeds its tolerance."""


# Absolute error allowed to run_prob_beta with float p: the tolerance to
# which the four methods are required to agree.
BETA_TOL = 1e-10


def _log_abs_terms(m: int, r: int, log_w: float) -> list:
    """log |term k| = log C(m - k*r, k) + k log w for every term of beta(m)."""
    return [
        math.lgamma(m - k * r + 1) - math.lgamma(k + 1) - math.lgamma(m - k * r - k + 1)
        + k * log_w
        for k in range(m // (r + 1) + 1)
    ]


def run_prob_beta(spec: RunSpec):
    """y_n from the generating-function coefficients in closed form.

    z_n = beta(n) - p^r beta(n-r) with
    beta(m) = sum_k (-1)^k C(m - k*r, k) (q p^r)^k, the sum running while
    the binomial is nonzero (k <= m/(r+1), the same cut-off either way).

    For float p the terms can dwarf the result.  To first order, term k
    is off by at most (3k + 3) units of 2^-53 relative (w = q p^r takes
    three roundings and is raised to the k-th power; the power, the
    binomial's conversion and the product add one each), the running sum
    adds (K - 1) units of the sum of |terms|, K the number of terms, and
    scaling by p^r and the two final subtractions add three more.  So
    |error| <= (4K + 4) 2^-53 S with S the sum of |terms| of beta(n) and of
    p^r beta(n-r).  The bound is formed in logs before any term is, and
    above BETA_TOL the function raises CancellationError.
    """
    n, r, p = spec.n, spec.r, spec.p
    q = 1 - p
    w = q * p**r
    if isinstance(w, float):
        log_p = math.log(p)
        log_w = math.log(q) + r * log_p
        logs = _log_abs_terms(n, r, log_w)
        logs += [r * log_p + x for x in _log_abs_terms(n - r, r, log_w)]
        top = max(logs)
        log_s = top + math.log(math.fsum(math.exp(x - top) for x in logs))
        log_bound = math.log(4 * (n // (r + 1) + 1) + 4) - 53 * math.log(2) + log_s
        if log_bound > math.log(BETA_TOL):
            raise CancellationError(
                f"closed form for (n={n}, r={r}, p={p!r}) could lose up to "
                f"10^{log_bound / math.log(10):.1f} to rounding (> {BETA_TOL:g}); "
                "pass p as a Fraction or use run_prob_recursive"
            )

    def beta(m):
        total = 0 * p
        k = 0
        while m - k * r >= k:
            total += (-1) ** k * math.comb(m - k * r, k) * w**k
            k += 1
        return total

    z = beta(n) - p**r * beta(n - r)
    return 1 - z


def run_prob_demoivre(spec: RunSpec):
    """y_n by series division, in p's own scalar type.

    Expands p^r / (1 - sum_{j=1}^{r} c^(j-1) q^j) as a power series in q
    (c = p/q), i.e. the linear recurrence a_k = sum_j c^(j-1) a_{k-j}, and
    returns p^r * sum_{k<=n-r} a_k q^k.  It runs on b_k = a_k q^k, for
    which the recurrence reads b_k = q * sum_{j<=r} p^(j-1) b_{k-j} with
    b_0 = 1.  Every term is positive, so float p loses nothing to
    cancellation; Fraction p gives the exact rational.
    """
    n, r, p = spec.n, spec.r, spec.p
    weights = [(1 - p) * p ** (j - 1) for j in range(1, r + 1)]
    b = [1 - p * 0]  # b_0 = 1, scalar-typed like p
    for k in range(1, n - r + 1):
        b.append(sum(wj * b[k - j] for j, wj in enumerate(weights[:k], 1)))
    return p**r * sum(b)


def run_prob_oracle(spec: RunSpec):
    """y_n by dynamic programming over the current trailing run length.

    States 0..r-1 track the run in progress; r is absorbing ("run seen").
    Exact with Fraction p; the test suite additionally cross-checks this
    against full 2^n enumeration for small n.
    """
    n, r, p = spec.n, spec.r, spec.p
    q = 1 - p
    zero = 0 * p
    state = [zero] * (r + 1)
    state[0] = 1 - zero  # probability one, scalar-typed like p
    for _ in range(n):
        new = [zero] * (r + 1)
        new[r] = state[r]
        for j in range(r):
            if state[j] == 0:
                continue
            new[0] += state[j] * q
            if j + 1 == r:
                new[r] += state[j] * p
            else:
                new[j + 1] += state[j] * p
        state = new
    return state[r]


def gf_series_coefficients(r: int, p, count: int):
    """First `count` power-series coefficients of the no-run generating
    function (1 - p^r xi^r) / (1 - xi + q p^r xi^(r+1)), by direct
    polynomial long division.  Coefficient m is z_m.
    """
    if r < 1 or count < 0:
        raise ValueError("need r >= 1 and count >= 0")
    q = 1 - p
    num = {0: 1 + 0 * p, r: -(p**r)}
    den = {0: 1 + 0 * p, 1: -(1 + 0 * p), r + 1: q * p**r}
    out = []
    rem = dict(num)
    for m in range(count):
        cm = rem.get(m, 0 * p)
        out.append(cm)
        if cm != 0:
            for e, coef in den.items():
                if e == 0:
                    continue
                rem[m + e] = rem.get(m + e, 0 * p) - cm * coef
        rem.pop(m, None)
    return out


__all__ = [
    "RunSpec",
    "run_prob_recursive",
    "run_prob_beta",
    "run_prob_demoivre",
    "run_prob_oracle",
    "gf_series_coefficients",
    "CancellationError",
    "BETA_TOL",
]
