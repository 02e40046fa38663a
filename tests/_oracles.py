"""Independent brute-force oracles used only by the test suite.

Everything here deliberately avoids the code paths of the package under
test: tails are summed from the complement, run probabilities come from
raw bitmask enumeration, Wythoff positions from retrograde game solving,
partition counts from a coin-style dynamic program, and reference logs
from 50-digit arithmetic.  Four are plain versions of a fast kernel,
kept to pin its bits: the exact tail's full sweep, which sums every
float mass (binom_tail_exact stops once the rest cannot change the
sum), the bracket walk a convergent at a time (bracket_tail takes a
depth per step), the Monte Carlo block loop, which draws uniform(-1, 1)
and sums every row, and the Beatty window counts by bincount.  Three are
second forms of a package result that only the tests call: the no-run
generating function's coefficients by long division, the three-term
form of E(Q), and a survey of full-cycle shuffle orders (which calls
shuffle_order).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import takewhile

import mpmath
import numpy as np

from certiprob.binom_tail import (
    _RECURSION_ULPS, _TINY, _U, TailBracket, _convergents, _flatten, _guard, _lead_ulps,
    convergent_stream,
)
from certiprob.gems import _certified_prime, shuffle_order
from certiprob.lexis import TrialMatrix
from certiprob.numerics import _p_ratio, _pmf_terms, log_binom_pmf

mpmath.mp.dps = 50


def as_fraction(p) -> Fraction:
    return p if isinstance(p, Fraction) else Fraction(p)


# --------------------------------------------------------------------------
# binomial tails


def tail_fraction_oracle(n: int, l: int, p) -> Fraction:
    """P(S_n > l) exactly, summed from the complement side."""
    pf = as_fraction(p)
    if l >= n:
        return Fraction(0)
    if l < 0:
        return Fraction(1)
    num, den = pf.numerator, pf.denominator
    qn = den - num
    head = sum(math.comb(n, k) * num**k * qn ** (n - k) for k in range(0, l + 1))
    return 1 - Fraction(head, den**n)


def tail_full_sweep(n: int, l: int, p) -> float:
    """binom_tail_exact without its stop: the fsum of every float mass
    _pmf_terms makes over [l+1, n], with the same conventions outside."""
    if l >= n:
        return 0.0
    if l < 0:
        return 1.0
    return min(math.fsum(_pmf_terms(n, l + 1, n, p)), 1.0)


def bracket_tail_halfsteps(query, tol: float = 1e-8, k_max=None):
    """bracket_tail one convergent at a time: (bracket, kind of the last
    convergent walked).

    The loop bracket_tail ran before it took a depth per step: the guard
    formed at every C_k, and both endpoints and both stopping tests
    recomputed after every convergent.  A float p walks convergent_stream
    itself; a Fraction p walks the same float recursion on p/q rounded
    once, which convergent_stream only gives in exact rationals.
    """
    n, l, k_term = query.n, query.l, query.k_terminal
    k_cap = k_term if k_max is None else min(k_max, k_term)
    lead_log = log_binom_pmf(n, l + 1, query.p)
    lead = math.exp(lead_log)
    lead_ulps = _lead_ulps(lead_log)
    num, den = _p_ratio(query.p)
    odds = num / (den - num)
    r = (n - l - 1) * odds / (l + 2)
    kappa = min(r / (1.0 - r), k_term) if r < 1.0 else k_term
    hopeless = (tol + 8 * _U) / (2.0 - tol) if k_max is None and tol < 1.0 else math.inf
    floor = _RECURSION_ULPS * _U

    if isinstance(query.p, Fraction):
        stream = _flatten(_convergents(n, l, k_term, odds))
    else:
        stream = convergent_stream(query)
    best_lo, best_hi = 0.0, math.inf
    g = _guard(lead_ulps, 0, kappa)
    up_f, lo_f = 1.0 + g, 1.0 - g
    walk = takewhile(lambda item: item[0] <= k_cap, stream) if k_term else ((0, "D", 1.0),)
    for k_used, kind, v in walk:
        if kind == "C":
            g = _guard(lead_ulps, k_used, kappa)
            up_f, lo_f = 1.0 + g, 1.0 - g
        if k_used == k_term and kind == "D":
            best_lo = best_hi = v
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
            break
    if upper < _TINY:
        return TailBracket(0.0, _TINY, k_used, lead_log, False), kind
    return TailBracket(lower, upper, k_used, lead_log, upper - lower <= tol * upper), kind


def log_pmf_reference(n: int, k: int, p) -> mpmath.mpf:
    """ln pmf from the exact rational at 50 significant digits."""
    pf = as_fraction(p)
    num = math.comb(n, k) * pf.numerator**k * (pf.denominator - pf.numerator) ** (n - k)
    return mpmath.log(mpmath.mpf(num)) - n * mpmath.log(mpmath.mpf(pf.denominator))


def log_pmf_mpmath(n: int, k: int, p) -> mpmath.mpf:
    """ln pmf from log-gamma at 50 digits, p taken as its exact rational."""
    pf = as_fraction(p)
    pm = mpmath.mpf(pf.numerator) / pf.denominator
    qm = mpmath.mpf(pf.denominator - pf.numerator) / pf.denominator
    return (mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1) - mpmath.loggamma(n - k + 1)
            + k * mpmath.log(pm) + (n - k) * mpmath.log(qm))


def tail_interval_mpmath(n: int, l: int, p):
    """(lo, hi) enclosing P(S_n > l), for l >= n*p, summed at 50 digits.

    Terms run up from b(l+1) by the pmf ratio, which falls below 1 and
    keeps falling, so once a term t is negligible the rest is at most
    t * r / (1 - r) for the next ratio r.
    """
    pf = as_fraction(p)
    pm = mpmath.mpf(pf.numerator) / pf.denominator
    qm = mpmath.mpf(pf.denominator - pf.numerator) / pf.denominator
    k = l + 1
    t = mpmath.exp(log_pmf_mpmath(n, k, pf))
    total = t
    rest = mpmath.mpf(0)
    eps = mpmath.mpf(10) ** -45
    while k < n:
        r = mpmath.mpf(n - k) / (k + 1) * pm / qm
        t *= r
        total += t
        k += 1
        if t < eps * total:
            rest = t * r / (1 - r)
            break
    slack = mpmath.mpf(10) ** -40
    return total * (1 - slack), (total + rest) * (1 + slack)


def lead_term_fraction(n: int, l: int, p) -> Fraction:
    """b(l+1; n, p) exactly."""
    pf = as_fraction(p)
    q = 1 - pf
    return Fraction(math.comb(n, l + 1)) * pf ** (l + 1) * q ** (n - l - 1)


# --------------------------------------------------------------------------
# success runs


def longest_one_run(mask: int) -> int:
    length = 0
    while mask:
        mask &= mask << 1
        length += 1
    return length


def run_count_table(n: int):
    """counts[(longest_run, ones)] over all 2^n outcome bitmasks."""
    counts: dict = {}
    for mask in range(1 << n):
        key = (longest_one_run(mask), mask.bit_count())
        counts[key] = counts.get(key, 0) + 1
    return counts


def run_prob_enumeration(n: int, r: int, p, table=None) -> Fraction:
    """P(at least one run of r successes in n trials) by full enumeration."""
    pf = as_fraction(p)
    if table is None:
        table = run_count_table(n)
    num, den = pf.numerator, pf.denominator
    qn = den - num
    total = sum(
        cnt * num**ones * qn ** (n - ones)
        for (longest, ones), cnt in table.items()
        if longest >= r
    )
    return Fraction(total, den**n)


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


# --------------------------------------------------------------------------
# dispersion


def q_hat_of_counts(m, s) -> Fraction:
    """Plug-in dispersion statistic, written out independently."""
    n = len(m)
    N = n * s
    M = sum(m)
    if M == 0 or M == N:
        return Fraction(1)
    dev = sum((Fraction(mi) - Fraction(s * M, N)) ** 2 for mi in m)
    return Fraction(n * (N - 1), n - 1) * dev / (M * (N - M))


def q_hat_moments_enumeration(n: int, s: int, p):
    """(E, Var) of Q_hat by summing over every count vector in {0..s}^n."""
    pf = as_fraction(p)
    num, den = pf.numerator, pf.denominator
    qn = den - num
    N = n * s
    weight_one = [math.comb(s, k) * num**k * qn ** (s - k) for k in range(s + 1)]

    mean = Fraction(0)
    second = Fraction(0)
    counts = [0] * n
    while True:
        w = 1
        for mi in counts:
            w *= weight_one[mi]
        qh = q_hat_of_counts(counts, s)
        mean += w * qh
        second += w * qh * qh
        i = 0
        while i < n and counts[i] == s:
            counts[i] = 0
            i += 1
        if i == n:
            break
        counts[i] += 1
    scale = Fraction(1, den**N)
    mean *= scale
    second *= scale
    return mean, second - mean * mean


def expected_q_enumeration(matrix):
    """E(Q) by enumerating every 0/1 outcome of the trial matrix."""
    n = len(matrix)
    s = len(matrix[0])
    N = n * s
    probs = [as_fraction(x) for row in matrix for x in row]
    p_i = [sum(as_fraction(x) for x in row) / s for row in matrix]
    p_bar = sum(p_i) / n

    mean_q = Fraction(0)
    for mask in range(1 << N):
        w = Fraction(1)
        m = [0] * n
        for idx in range(N):
            if mask >> idx & 1:
                w *= probs[idx]
                m[idx // s] += 1
            else:
                w *= 1 - probs[idx]
        dev = sum((Fraction(mi) - s * p_bar) ** 2 for mi in m)
        mean_q += w * dev
    return mean_q / (N * p_bar * (1 - p_bar))


def expected_D_three_term(trials: TrialMatrix):
    """The equivalent three-term decomposition of D = E(Q):

        D = 1 + (s-1)/(n p(1-p)) * sum_{i=1}^{n} (p - p_i)^2
              -      1/(N p(1-p)) * sum_{i,j} (p_i - p_ij)^2

    (The between-series sum runs over the n series.)  Kept as a separate
    entry point so the algebraic identity with expected_D is testable.
    """
    pbar = trials.grand_mean()
    if not 0 < pbar < 1:
        raise ValueError(f"grand mean must lie strictly in (0, 1), got {pbar!r}")
    n, s, N = trials.n, trials.s, trials.N
    pi = trials.row_means()
    between = sum((pbar - x) ** 2 for x in pi)
    within = sum((pi[i] - x) ** 2 for i, r in enumerate(trials.p) for x in r)
    denom = pbar * (1 - pbar)
    return 1 + (s - 1) * between / (n * denom) - within / (N * denom)


# --------------------------------------------------------------------------
# ruin


def classical_ruin(a: int, b: int, p: float) -> float:
    """Equal-stakes ruin probability in closed form."""
    if abs(p - 0.5) < 1e-15:
        return b / (a + b)
    r = (1 - p) / p
    return (r**a - r ** (a + b)) / (1 - r ** (a + b))


# --------------------------------------------------------------------------
# Wythoff retrograde solver


def wythoff_cold_retrograde(limit: int):
    """All cold positions with both coordinates <= limit, by retrograde
    analysis: a position is cold iff no legal move reaches a cold one.
    """
    cold = set()
    is_cold = [[False] * (limit + 1) for _ in range(limit + 1)]
    for total in range(0, 2 * limit + 1):
        for x in range(max(0, total - limit), min(limit, total) + 1):
            y = total - x
            movable_to_cold = False
            for k in range(1, x + 1):
                if is_cold[x - k][y]:
                    movable_to_cold = True
                    break
            if not movable_to_cold:
                for k in range(1, y + 1):
                    if is_cold[x][y - k]:
                        movable_to_cold = True
                        break
            if not movable_to_cold:
                for k in range(1, min(x, y) + 1):
                    if is_cold[x - k][y - k]:
                        movable_to_cold = True
                        break
            if not movable_to_cold:
                is_cold[x][y] = True
                cold.add((x, y))
    return cold


# --------------------------------------------------------------------------
# sample-size bounds


def lln_alpha_mpmath(p, eps, eta) -> int:
    """ceil(ln eta / ln(p/(p+eps))) from the exact rationals, each log
    formed as log(numerator) - log(denominator).

    That difference cancels as a ratio a/b nears 1: |ln(a/b)| > 1/b, so
    it loses at most about as many digits as b has, and the quotient's
    integer part takes about as many again.  The working precision is 60
    digits plus twice the digits of the ratio's denominator plus those of
    eta's.  Refuses a quotient within 1e-30 of an integer, where that
    precision could not settle the ceiling.
    """
    ratio = as_fraction(p) / (as_fraction(p) + as_fraction(eps))
    eta = as_fraction(eta)
    digits = 2 * len(str(ratio.denominator)) + len(str(eta.denominator))
    with mpmath.workdps(60 + digits):
        log = lambda q: mpmath.log(q.numerator) - mpmath.log(q.denominator)
        x = log(eta) / log(ratio)
        assert abs(x - mpmath.nint(x)) > mpmath.mpf(10) ** -30, "too close to an integer"
        return max(1, int(mpmath.ceil(x)))


# --------------------------------------------------------------------------
# partitions


def partition_table_dp(nmax: int):
    """p(0..nmax) by the parts dynamic program (independent of pentagonal)."""
    ways = [0] * (nmax + 1)
    ways[0] = 1
    for part in range(1, nmax + 1):
        for amount in range(part, nmax + 1):
            ways[amount] += ways[amount - part]
    return ways


# --------------------------------------------------------------------------
# Monte Carlo


def mc_abs_sum_tail_blocks(n: int, t: float, seed: int, samples: int,
                           chunk: int = 20_000, block: int = 1 << 15):
    """(p_hat, se) for P(|X_1 + ... + X_n| > t), X_j uniform on [-1, 1]:
    one generator per chunk of samples, spawned from the seed, drawing
    blocks of about `block` doubles by uniform(-1, 1) and summing each
    row by .sum(axis=1)."""
    children = np.random.SeedSequence(seed).spawn(math.ceil(samples / chunk))
    rows = max(1, block // n)
    exceed = 0
    done = 0
    for child in children:
        m = min(chunk, samples - done)
        rng = np.random.default_rng(child)
        for first in range(0, m, rows):
            sums = rng.uniform(-1.0, 1.0, size=(min(rows, m - first), n)).sum(axis=1)
            exceed += int(np.count_nonzero(np.abs(sums) > t))
        done += m
    p_hat = exceed / samples
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / samples) / samples)
    return p_hat, se


# --------------------------------------------------------------------------
# shuffles


def full_cycle_shuffle_stats(max_deck: int):
    """Survey decks 2n <= max_deck with 2n+1 prime: how often is the
    shuffle order maximal (= 2n)?  A statistics report, nothing more; no
    claim about the infinite pattern is implied.
    """
    hits, total = 0, 0
    sizes = []
    for two_n in range(2, max_deck + 1, 2):
        m = two_n + 1
        if _certified_prime(m):
            total += 1
            if shuffle_order(two_n) == two_n:
                hits += 1
                sizes.append(two_n)
    return {"prime_modulus_decks": total, "full_cycle_decks": hits, "sizes": sizes}


# --------------------------------------------------------------------------
# spectra


def beatty_hits_bincount(generators, horizon: int, floors, window: int):
    """(lo, counts) for consecutive windows of at most `window` integers
    of 1..horizon, counts[i] being how many spectra hit lo + i: each
    window a fresh int64 array, summed from np.bincount of every
    generator's floors(g, hi, start) in it."""
    cursors = [1] * len(generators)
    for lo in range(1, horizon + 1, window):
        hi = min(lo + window - 1, horizon)
        counts = np.zeros(hi - lo + 1, dtype=np.int64)
        for k, g in enumerate(generators):
            got = floors(g, hi, cursors[k])
            cursors[k] += len(got)
            counts += np.bincount(got - lo, minlength=len(counts))
        yield lo, counts


def floor_mult_reference(alpha_mpf, n: int) -> int:
    """floor(n * alpha) at 50 digits."""
    return int(mpmath.floor(n * alpha_mpf))
