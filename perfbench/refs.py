"""Independent references for the benchmark's correctness checks.

Nothing here calls certiprob: tails are 50-digit mpmath sums of the pmf
with a certified remainder bound, run probabilities come from a Markov
chain over the trailing run length, ruin from the closed form of the
equal-stakes chain, partition counts from a coin-style dynamic program
(cached in ``data/partitions.txt``), shuffle orders from the definition
of a multiplicative order, Beatty floors from integer square roots and
mpmath, and the dispersion moments from exhaustive enumeration.

Each ``check_*`` helper returns None when the output passes and a short
message naming the violated property otherwise.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
from mpmath import mp, mpf

DPS = 50
PARTITION_TABLE = Path(__file__).resolve().parent / "data" / "partitions.txt"
PARTITION_MAX = 4000  # the table holds p(0..PARTITION_MAX); workloads draw n below it


def _mpf_exact(x) -> mpf:
    """A float or Fraction as an mpf (floats and small rationals round at 50 digits)."""
    f = Fraction(x)
    return mpf(f.numerator) / mpf(f.denominator)


# --------------------------------------------------------------------------
# binomial tails


def tail_interval(n: int, l: int, p, side: str):
    """(lo, hi) mpf enclosure of P(S_n > l) (side "right") or P(S_n <= l) ("left").

    Terms are summed outward from the threshold by the pmf ratio; past the
    mode the ratio decreases monotonically, so the neglected remainder is
    at most t * r / (1 - r) for the last term t and next ratio r.
    """
    with mp.workdps(DPS):
        pm = _mpf_exact(p)
        qm = 1 - pm
        if side == "right":
            k = l + 1
            stop = n
        elif side == "left":
            k = l
            stop = 0
        else:
            raise ValueError(f"side must be 'right' or 'left', got {side!r}")
        t = mpmath.binomial(n, k) * pm**k * qm ** (n - k)
        total = t
        eps = mpf(10) ** (-(DPS + 5))
        rem = mpf(0)
        while k != stop:
            if side == "right":
                r = mpf(n - k) / (k + 1) * pm / qm
                k += 1
            else:
                r = mpf(k) / (n - k + 1) * qm / pm
                k -= 1
            t *= r
            total += t
            if r < 1 and t < eps * total:
                rem = t * r / (1 - r)
                break
        slack = mpf(10) ** (-(DPS - 10))
        return total * (1 - slack), (total + rem) * (1 + slack)


def check_bracket(br, ref, tol) -> str | None:
    """A certified bracket must contain the reference; converged means width <= tol*upper."""
    lo, hi = ref
    if not br.converged:
        return "bracket reports not converged without a depth cap"
    if not 0 <= br.lower <= br.upper <= 1:
        return f"bracket endpoints out of order: {br.lower!r}, {br.upper!r}"
    if mpf(br.lower) > hi or mpf(br.upper) < lo:
        return f"bracket [{br.lower!r}, {br.upper!r}] misses reference {mpmath.nstr(lo, 17)}"
    if br.upper - br.lower > tol * br.upper:
        return (f"converged bracket width {(br.upper - br.lower) / br.upper:.3e} "
                f"(relative) exceeds tol {tol:g}")
    return None


def check_close(value, ref, rel: float, absolute: float = 0.0) -> str | None:
    """|value - ref| <= rel*|ref| + absolute, with ref an mpf, float or (lo, hi) pair."""
    if isinstance(ref, tuple):
        ref = (ref[0] + ref[1]) / 2
    if not isinstance(value, (int, float, Fraction)) or value != value:
        return f"value {value!r} is not a number"
    err = abs(mpf(float(value)) - ref)
    if err > rel * abs(ref) + absolute:
        return f"value {value!r} differs from reference {mpmath.nstr(ref, 17)} by {mpmath.nstr(err, 3)}"
    return None


# --------------------------------------------------------------------------
# success runs


def run_prob_markov(n: int, r: int, p):
    """P(some run of r successes in n trials), by a chain over the trailing run.

    Float p gives a float (every update adds non-negative mass, so the error
    stays relative); Fraction p gives the exact rational.
    """
    q = 1 - p
    zero = p * 0
    alive = [zero] * r  # alive[j]: no run yet, trailing run of length j
    alive[0] = zero + 1
    absorbed = zero
    for _ in range(n):
        absorbed += alive[r - 1] * p
        shifted = [sum(alive) * q] + [a * p for a in alive[:-1]]
        alive = shifted
    return absorbed


# --------------------------------------------------------------------------
# gambler's ruin


def ruin_equal_stakes(a: int, b: int, stake: int, p) -> mpf:
    """A's ruin probability when both stake the same amount.

    With equal stakes k the chain moves in steps of k, so it is the unit
    game with fortunes a // k and b // k; its closed form is
    (rho^A - rho^(A+B)) / (1 - rho^(A+B)) with rho = q/p, or B/(A+B) when fair.
    """
    A, B = a // stake, b // stake
    with mp.workdps(DPS):
        pm = _mpf_exact(p)
        rho = (1 - pm) / pm
        if rho == 1:
            return mpf(B) / (A + B)
        return (rho**A - rho ** (A + B)) / (1 - rho ** (A + B))


def ruin_fair_bounds(a: int, b: int, alpha: int, beta: int):
    """The printed fair-game bounds on A's ruin probability, as Fractions."""
    return Fraction(b - beta + 1, a + b - beta + 1), Fraction(b, a + b - alpha + 1)


def check_roots(roots, alpha: int, beta: int, p, residual: float = 1e-9) -> str | None:
    """alpha+beta roots of p z^(alpha+beta) - z^alpha + q, z = 1 among them, Vieta product."""
    deg = alpha + beta
    if len(roots) != deg:
        return f"expected {deg} roots, got {len(roots)}"
    with mp.workdps(30):
        pm = _mpf_exact(p)
        qm = 1 - pm
        worst = max(abs(pm * mpmath.mpc(z) ** deg - mpmath.mpc(z) ** alpha + qm) for z in roots)
        if worst > residual:
            return f"root residual {mpmath.nstr(worst, 3)} exceeds {residual:g}"
        if min(abs(mpmath.mpc(z) - 1) for z in roots) > 1e-9:
            return "z = 1 is missing from the roots"
        prod = mpmath.fprod(mpmath.mpc(z) for z in roots)
        want = (-1) ** deg * qm / pm
        if abs(prod - want) > 1e-7 * abs(want):
            return f"root product {mpmath.nstr(prod, 8)} differs from Vieta's {mpmath.nstr(want, 8)}"
    return None


# --------------------------------------------------------------------------
# shuffles


def _prime_factors(m: int):
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        out.append(m)
    return out


def check_shuffle_order(order: int, two_n: int) -> str | None:
    """2^order = 1 (mod 2n+1), and 2^(order/q) != 1 for every prime q | order."""
    m = two_n + 1
    if not isinstance(order, int) or order < 1:
        return f"order {order!r} is not a positive integer"
    if pow(2, order, m) != 1:
        return f"2^{order} != 1 mod {m}"
    for q in _prime_factors(order):
        if pow(2, order // q, m) == 1:
            return f"2^{order // q} = 1 mod {m}, so {order} is not the order"
    return None


def monge_order_ref(two_n: int) -> int:
    """Order of the over-under shuffle, from its permutation built with a deque."""
    from collections import deque

    pile = deque()
    for i in range(two_n):
        if i % 2:
            pile.appendleft(i)
        else:
            pile.append(i)
    dest = [0] * two_n
    for pos, card in enumerate(pile):
        dest[card] = pos
    seen = bytearray(two_n)
    order = 1
    for start in range(two_n):
        length = 0
        i = start
        while not seen[i]:
            seen[i] = 1
            i = dest[i]
            length += 1
        if length:
            order = math.lcm(order, length)
    return order


# --------------------------------------------------------------------------
# Beatty spectra


def floor_fn(gen):
    """n -> floor(n * gen), exactly, for gen = ("surd", x, y, d) or a Fraction or float."""
    if isinstance(gen, tuple):
        _, x, y, d = gen
        R = math.lcm(x.denominator, y.denominator)
        P, Q = x.numerator * (R // x.denominator), y.numerator * (R // y.denominator)
        # n*gen = (nP + nQ sqrt d)/R and nQ sqrt d is never an integer, so
        # it lies strictly between isqrt((nQ)^2 d) and that plus one.
        if Q > 0:
            return lambda n: (n * P + math.isqrt(n * n * Q * Q * d)) // R
        return lambda n: (n * P - math.isqrt(n * n * Q * Q * d) - 1) // R
    fr = Fraction(gen)
    return lambda n: (n * fr.numerator) // fr.denominator


def floors_exact(gen, horizon: int):
    """Iterate over floor(n*gen) <= horizon, n = 1, 2, ..."""
    floor = floor_fn(gen)
    last = int(horizon / float(gen if not isinstance(gen, tuple) else mp_value(gen))) + 2
    return (f for f in map(floor, range(1, last + 1)) if 1 <= f <= horizon)


def first_defect(gens, horizon: int, need_both: bool = True):
    """(first missing, first doubly covered) integer in 1..horizon, or None each.

    Hits at or below a bound depend only on floors at or below it, so the
    scan doubles its bound until it finds what it needs.
    """
    bound = 64
    while True:
        bound = min(bound, horizon)
        hits = bytearray(bound + 1)
        for g in gens:
            for v in floors_exact(g, bound):
                hits[v] = min(hits[v] + 1, 2)
        missing = next((i for i in range(1, bound + 1) if hits[i] == 0), None)
        double = next((i for i in range(1, bound + 1) if hits[i] == 2), None)
        found = (missing is not None and double is not None) if need_both else \
            (missing is not None or double is not None)
        if found or bound == horizon:
            return missing, double
        bound *= 8


def mp_value(gen):
    """gen at 50 digits (a float's exact binary value fits)."""
    with mp.workdps(DPS):
        if isinstance(gen, tuple):
            _, x, y, d = gen
            return _mpf_exact(x) + _mpf_exact(y) * mpmath.sqrt(d)
        return _mpf_exact(gen)


def mp_floor(n: int, value_mp) -> int:
    with mp.workdps(DPS):
        return int(mpmath.floor(n * value_mp))


def check_wythoff(pairs, count: int, phi_mp, samples=100) -> str | None:
    """Cold positions: a_n is the least integer not yet used, b_n = a_n + n, mpmath floors at samples."""
    if len(pairs) != count + 1 or tuple(pairs[0]) != (0, 0):
        return "wrong number of pairs or missing (0, 0)"
    used = bytearray(3 * count + 3)  # b_n < 2.62 n
    mex = 1
    for n in range(1, count + 1):
        a, b = pairs[n]
        while used[mex]:
            mex += 1
        if a != mex or b != a + n:
            return f"pair {n} = {(a, b)} breaks the mex rule (want {(mex, mex + n)})"
        used[a] = used[b] = 1
    for n in random.Random(count).sample(range(1, count + 1), min(samples, count)):
        if pairs[n][0] != mp_floor(n, phi_mp):
            return f"pair {n} differs from the mpmath floor of n*phi"
    return None


# --------------------------------------------------------------------------
# partitions


def partitions_coin_dp(n_max: int):
    """p(0..n_max) by the coin DP: add parts 1, 2, ..., n_max one at a time."""
    table = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for m in range(part, n_max + 1):
            table[m] += table[m - part]
    return table


def load_partition_table():
    """The cached coin-DP table; refresh it with ``python3 perfbench/refresh_refs.py``."""
    return [int(line) for line in PARTITION_TABLE.read_text().split()]


def check_partition(value, n: int, table) -> str | None:
    if n >= len(table):
        return f"n={n} is past the cached table (max {len(table) - 1})"
    if value != table[n]:
        return f"p({n}) = {value} differs from the coin DP"
    return None


# --------------------------------------------------------------------------
# Lexis dispersion


def q_hat_moments_enumerated(n: int, s: int, p: Fraction):
    """Exact (mean, variance) of Q_hat over every count vector in {0..s}^n."""
    N = n * s
    weight = [math.comb(s, m) * p**m * (1 - p) ** (s - m) for m in range(s + 1)]
    mean = var_acc = Fraction(0)
    for ms in itertools.product(range(s + 1), repeat=n):
        M = sum(ms)
        w = Fraction(1)
        for m in ms:
            w *= weight[m]
        if M in (0, N):
            q = Fraction(1)
        else:
            center = Fraction(s * M, N)
            dev = sum((m - center) ** 2 for m in ms)
            q = Fraction(n * (N - 1), n - 1) * dev / (M * (N - M))
        mean += w * q
        var_acc += w * q * q
    return mean, var_acc - mean * mean


@functools.lru_cache(maxsize=None)
def q_hat_variance_mp(n: int, s: int, p) -> mpf:
    """The printed variance sum of Q_hat evaluated at 50 digits, once per input."""
    N = n * s
    with mp.workdps(DPS):
        pm = _mpf_exact(p)
        qm = 1 - pm
        front = mpf(2 * N * (N - n)) / ((n - 1) * (N - 2) * (N - 3))
        total = mpmath.fsum(
            mpf(M - 1) / M * mpf(N - M - 1) / (N - M) * mpmath.binomial(N, M) * pm**M * qm ** (N - M)
            for M in range(1, N)
        )
        return front * total


def check_moments(out, n: int, s: int, p, exact=None) -> str | None:
    """mean = 1, 0 <= variance <= bound1, bound1 and bound2 as printed, variance as referenced."""
    mean, var, bound1, bound2 = out
    N = n * s
    want_b1 = Fraction(2 * N * (N - n), (n - 1) * (N - 2) * (N - 3))
    if mean != 1:
        return f"mean {mean!r} != 1"
    if not 0 <= var <= bound1:
        return f"variance {var!r} outside [0, bound1={bound1!r}]"
    if abs(Fraction(bound1) - want_b1) > Fraction(1, 10**12) * want_b1:
        return f"bound1 {bound1!r} != {want_b1}"
    if (bound2 is None) != (n < 5):
        return f"bound2 {bound2!r} present/absent wrongly for n={n}"
    if exact is not None:
        if var != exact:
            return f"variance {var!r} != enumerated {exact}"
        return None
    return check_close(var, q_hat_variance_mp(n, s, p), rel=1e-9)


def expected_d_exact(rows) -> Fraction:
    """E(Q) at the grand mean, from E(m_i) and Var(m_i) of independent trials.

    Exact in the binary values of the entries; equal rows and equal
    entries are summed once, times their multiplicity.
    """
    n, s = len(rows), len(rows[0])
    row_stats = {}  # distinct row -> (multiplicity, sum, sum of x(1-x))
    for r in map(tuple, rows):
        if r not in row_stats:
            counts = Counter(r)
            total = sum(Fraction(x) * m for x, m in counts.items())
            var = sum(Fraction(x) * (1 - Fraction(x)) * m for x, m in counts.items())
            row_stats[r] = [0, total, var]
        row_stats[r][0] += 1
    pbar = sum(m * t for m, t, _ in row_stats.values()) / (n * s)
    num = sum(m * (v + (t - s * pbar) ** 2) for m, t, v in row_stats.values())
    return num / (n * s * pbar * (1 - pbar))


# --------------------------------------------------------------------------
# law of large numbers


def lln_alpha_ref(p: Fraction, eps: Fraction, eta: Fraction) -> int:
    """Least alpha >= 1 with (p/(p+eps))^alpha <= eta, via 50-digit logs and exact checks."""
    ratio = p / (p + eps)
    with mp.workdps(DPS):
        alpha = max(1, int(mpmath.ceil(mpmath.log(_mpf_exact(eta)) / mpmath.log(_mpf_exact(ratio)))))
    # the logs are exact to 45 digits, so at most one exact nudge either way
    if ratio**alpha > eta:
        alpha += 1
    elif alpha > 1 and ratio ** (alpha - 1) <= eta:
        alpha -= 1
    return alpha


def lln_n_bound_ref(p: Fraction, eps: Fraction, eta: Fraction) -> int:
    alpha = lln_alpha_ref(p, eps, eta)
    return max(1, math.ceil((alpha * (1 + eps) - (1 - p)) / (eps * (p + eps))))


def cantelli_ref(eps: float, eta: float) -> int:
    with mp.workdps(DPS):
        e, h = mpf(eps), mpf(eta)
        return int(mpmath.floor(2 / e**2 * mpmath.log(4 / (e**2 * h)) + 2)) + 1


# --------------------------------------------------------------------------
# concentration


def bernstein_uniform(n: int, t: float) -> float:
    """2 exp(-t^2 / (2 B^2 + 2 c t)) for n uniform[-1, 1] variables: B^2 = n/3, c = 1/3."""
    return 2.0 * math.exp(-t * t / (2.0 * n / 3.0 + 2.0 * t / 3.0))


def check_mc(out, n: int, t: float, samples: int, first) -> str | None:
    """p_hat <= bound + 3 se, se as defined, and the same seed gives the same estimate."""
    p_hat, se = out
    if not 0 <= p_hat <= 1:
        return f"p_hat {p_hat!r} outside [0, 1]"
    want_se = math.sqrt(max(p_hat * (1 - p_hat), 1.0 / samples) / samples)
    if abs(se - want_se) > 1e-12 * want_se:
        return f"se {se!r} != {want_se!r}"
    if p_hat > bernstein_uniform(n, t) + 3 * se:
        return f"p_hat {p_hat!r} exceeds the bound plus 3 se"
    if first is not None and (p_hat, se) != tuple(first):
        return f"seeded estimate {p_hat!r} differs from the first run's {first[0]!r}"
    return None
