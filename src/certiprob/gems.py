"""Card shuffles, Beatty spectra, Wythoff positions, and partition counts.

Four loosely related classics, all with exact integer backbones:

* perfect in-shuffles move card i to position 2i mod (2n+1), so the
  recycling count of a 2n-card deck is the multiplicative order of 2
  modulo 2n+1, found from a factorization by trial division and Brent's
  rho whose every factor is certified prime by trial division or by
  deterministic Miller-Rabin below about 3.3e24 (a modulus with a prime
  factor past that bound, or a composite factor rho cannot split, is
  refused with ArithmeticError); the over-under (Monge)
  shuffle restores 2n cards after the least k with 2^k = +-1 modulo
  4n+1, read off the same order computation for 4n+1.  A deck after any
  number of either shuffle is read off one power of 2, not dealt;
* the spectrum of alpha > 1 is the sequence floor(n*alpha); two spectra
  with 1/alpha + 1/beta = 1 (alpha irrational) tile the integers, and no
  three spectra can (Uspensky, 1927) - witnesses for the failure are
  searched exhaustively.  Both checks count hits in windows of 2^15
  consecutive integers, so they hold O(window) memory at any horizon, and
  stop at the first window that settles the answer: a triple's witness or
  a rational pair's collision usually ends the scan early, while an
  irrational pair still scans the whole horizon.  One function reads
  every generator: alpha > 1 is decided exactly, and alpha <= 1, an
  infinite alpha and a horizon of 2^63 - 1 or more are refused with
  ValueError, even beside a horizon below the first floor;
* the cold positions of Wythoff's game are (floor(n*phi), floor(n*phi^2)),
  read off the golden-ratio spectrum;
* partition counts p(n) by the pentagonal-number recurrence, summed over
  a table of the generalized pentagonal numbers, with the classical
  asymptotic and its sharpened (n - 1/24) refinement.

Floors of irrational multiples are never trusted to floating point:
quadratic irrationals carry (x + y*sqrt(d)) exactly and every floor is
certified with integer square roots, falling back to float only as a
first guess.  A plain float is read as the exact rational it is.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Optional, Sequence, Union

from .numerics import _as_fraction

# --------------------------------------------------------------------------
# shuffles


def _check_deck(two_n: int, times: int = 0) -> None:
    if two_n < 2 or two_n % 2 != 0:
        raise ValueError(f"deck size must be even and positive, got {two_n}")
    if times < 0:
        raise ValueError(f"times must be non-negative, got {times}")


# Sorenson & Webster (2017): no composite below this bound is a strong
# probable prime to all of the first 13 prime bases
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _strong_probable_prime(x: int) -> bool:
    """Whether x > 1 is a strong probable prime to every base in
    _MR_BASES; False proves x composite at any size."""
    for b in _MR_BASES:
        if x % b == 0:
            return x == b
    d, s = x - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        y = pow(b, d, x)
        if y == 1 or y == x - 1:
            continue
        for _ in range(s - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


def _certified_prime(x: int) -> bool:
    """True if x is prime and below _MR_BOUND, where Miller-Rabin to the
    bases _MR_BASES is deterministic; False for composites and for every
    x at or above the bound, prime or not."""
    return 1 < x < _MR_BOUND and _strong_probable_prime(x)


# trial division runs below this before Brent's rho takes over
_TRIAL_LIMIT = 1024
# modular products between gcds in Brent's rho
_RHO_BATCH = 128


def _brent_rho(n: int):
    """A proper divisor of the composite n by Brent's variant of Pollard's
    rho on y -> y^2 + c; None if c = 1 .. 8 all fail (each then closes
    its cycle mod n).
    """
    for c in range(1, 9):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:  # the batch passed a factor and n itself: step through it
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    return None


def _factorize(m: int) -> dict:
    """Prime factorization with every factor certified.

    Trial division strips the factors below _TRIAL_LIMIT, and stops early
    once the cofactor is certified.  A cofactor that fails a strong
    probable-prime base is composite at any size, and Brent's rho splits
    it into two parts checked by multiplication, each factored in turn: a
    product of two 1e10 primes costs about 1e5 rho steps, not 5e9 trial
    divisions.  One that passes every base is prime below Sorenson and
    Webster's bound of about 3.3e24.  ArithmeticError refuses a cofactor
    that passes every base at or above that bound, which nothing here can
    certify, and a composite that rho cannot split (trial division toward
    the square root of either would take upward of 1e12 steps): no factor
    rests on a probable one.
    """
    factors: Counter = Counter()
    x, f = m, 2
    done = _certified_prime(x)
    while not done and f < _TRIAL_LIMIT and f * f <= x:
        if x % f == 0:
            while x % f == 0:
                factors[f] += 1
                x //= f
            done = _certified_prime(x)
        f += 1 if f == 2 else 2
    if done:
        factors[x] += 1
    pending = [x] if x > 1 and not done else []
    while pending:
        x = pending.pop()
        probable = _strong_probable_prime(x)
        if f * f > x or (probable and x < _MR_BOUND):
            d = x
        elif probable:
            raise ArithmeticError(
                f"{x} is a probable prime at or above {_MR_BOUND}, past certification"
            )
        elif (d := _brent_rho(x)) is None:
            raise ArithmeticError(f"Brent's rho found no divisor of the composite {x}")
        if d == x:
            factors[x] += 1
        elif 1 < d < x and d * (x // d) == x:
            pending += [d, x // d]
        else:
            raise ArithmeticError(f"{d} is not a proper divisor of {x}")
    return dict(sorted(factors.items()))


def shuffle_order(two_n: int) -> int:
    """Number of perfect in-shuffles that restore a 2n-card deck.

    Equals the multiplicative order of 2 modulo 2n+1, found by shrinking
    the Euler totient along its prime factors (no permutation is ever
    iterated here; the test suite does that independently).
    """
    _check_deck(two_n)
    m = two_n + 1
    phi = 1
    for prime, exp in _factorize(m).items():
        phi *= prime ** (exp - 1) * (prime - 1)
    order = phi
    for prime in _factorize(phi):
        while order % prime == 0 and pow(2, order // prime, m) == 1:
            order //= prime
    return order


def monge_order(two_n: int) -> int:
    """Number of over-under shuffles that restore a 2n-card deck.

    Label position i = 1..2n by i + 2n modulo 4n+1, so the positions
    carry one label from each pair +-1, ..., +-2n.  One shuffle moves the
    card at the position labelled x to the one labelled x/2 (from an odd
    position, dealt under the pile) or -x/2 (from an even one, dealt on
    top).  After k shuffles the card from x sits at the position labelled
    +-x/2^k, so the deck is restored exactly when 2^k = +-1 (mod 4n+1).
    With e the order of 2 modulo 4n+1, found by shuffle_order(4n), the
    least such k is e/2 when 2^(e/2) = -1 and e otherwise.  No deck is
    built and no permutation is walked.
    """
    _check_deck(two_n)
    m = 2 * two_n + 1
    e = shuffle_order(2 * two_n)
    return e // 2 if pow(2, e // 2, m) == m - 1 else e


def in_shuffled(two_n: int, times: int) -> list:
    """The identity deck of 2n cards after `times` perfect in-shuffles.

    An in-shuffle cuts the deck in half and interleaves it, the bottom
    half's first card on top: eight cards in order end as
    (5, 1, 6, 2, 7, 3, 8, 4).  Card i moves to position 2i mod 2n+1, so
    position j holds card j * 2^(-times) mod 2n+1: one pow and one pass,
    whatever `times` is; no deck is dealt.
    """
    _check_deck(two_n, times)
    step = pow(2, -times, two_n + 1)
    return [j * step % (two_n + 1) for j in range(1, two_n + 1)]


def monge_shuffled(two_n: int, times: int) -> list:
    """The identity deck of 2n cards after `times` over-under shuffles.

    An over-under shuffle deals the cards alternately onto the top and
    the bottom of a pile: the first card starts it, the second goes on
    top, the third underneath, and so on, so eight cards in order end as
    (8, 6, 4, 2, 1, 3, 5, 7).  In monge_order's labels the position
    labelled y = j + 2n holds the card labelled +-y * 2^times mod 4n+1,
    the one of the pair in 2n+1..4n (the two sum to 4n+1): card label - 2n.
    """
    _check_deck(two_n, times)
    m = 2 * two_n + 1
    step = pow(2, times, m)
    return [max(x, m - x) - two_n for x in (y * step % m for y in range(two_n + 1, m))]


# --------------------------------------------------------------------------
# Beatty spectra


@dataclass(frozen=True)
class QuadSurd:
    """Exact quadratic irrational x + y*sqrt(d), x and y rational, y != 0.

    d must be a positive non-square integer, so the value is irrational
    and every floor comparison can be settled by integer arithmetic.
    """

    x: Fraction
    y: Fraction
    d: int

    def __post_init__(self):
        object.__setattr__(self, "x", _as_fraction(self.x))
        object.__setattr__(self, "y", _as_fraction(self.y))
        if self.d < 2 or math.isqrt(self.d) ** 2 == self.d:
            raise ValueError(f"d must be a non-square integer >= 2, got {self.d}")
        if self.y == 0:
            raise ValueError("y = 0 would make the value rational; use Fraction")

    def __float__(self) -> float:
        """Correctly rounded; float(x) + float(y) * sqrt(d) can cancel.

        With m = floor(2^k * value) and |m| >= 2^64, the rounding
        boundaries of doubles near the value are multiples of 2^-k, so
        none lies strictly between m / 2^k and (m+1) / 2^k, where the
        irrational value does: their midpoint rounds the same way, and
        int / int rounds correctly.
        """
        k = 64
        while abs(m := self.floor_times(1 << k)) < 1 << 64:
            k += 64
        return (2 * m + 1) / (1 << (k + 1))

    @classmethod
    def golden(cls) -> "QuadSurd":
        return cls(Fraction(1, 2), Fraction(1, 2), 5)

    @classmethod
    def golden_sq(cls) -> "QuadSurd":
        return cls(Fraction(3, 2), Fraction(1, 2), 5)

    @classmethod
    def sqrt(cls, d: int) -> "QuadSurd":
        return cls(Fraction(0), Fraction(1), d)

    def floor_times(self, n: int) -> int:
        """Exact floor(n * value), in integers alone.

        With n * value = (P + Q sqrt(d)) / R and R > 0, Q sqrt(d) is
        irrational unless Q = 0, so its floor is isqrt(Q*Q*d) for Q >= 0
        and -isqrt(Q*Q*d) - 1 for Q < 0; adding the integer P keeps the
        sum's floor, and floor(floor(t) / R) = floor(t / R).
        """
        P_frac = n * self.x
        Q_frac = n * self.y
        R = math.lcm(P_frac.denominator, Q_frac.denominator)
        P = P_frac.numerator * (R // P_frac.denominator)
        Q = Q_frac.numerator * (R // Q_frac.denominator)
        root = math.isqrt(Q * Q * self.d)
        return (P + root) // R if Q >= 0 else (P - root - 1) // R

    def pair_partner(self) -> "QuadSurd":
        """beta = alpha/(alpha - 1), the complementary spectrum generator."""
        u = self.x - 1
        v = self.y
        # nonzero: u^2 = v^2 d has no rational root for v != 0, d non-square
        norm = u * u - v * v * self.d
        # 1 + 1/(alpha-1) = 1 + (u - v sqrt(d)) / norm
        return QuadSurd(1 + u / norm, -v / norm, self.d)


Alpha = Union[QuadSurd, Fraction, float]


# integers per window of the tiling checks: their arrays hold a window,
# not the horizon
_WINDOW = 1 << 15


def _constants(alpha: Alpha, horizon: int, start: int = 1):
    """Read a generator: (float(alpha), exact floor of m*alpha) for
    _floors, or None when floor(start*alpha) > horizon.  Every Beatty
    entry point reads its generators here alone.

    Refuses with ValueError a horizon whose cap int64 cannot hold, alpha
    <= 1, decided exactly (float(alpha) rounds a generator such as 2^54 /
    (2^54 - 1) down to 1.0), and an infinite alpha.  The exact floor is
    QuadSurd.floor_times, or integer division on the exact rational an
    int, float or Fraction alpha is; it gives the first floor before the
    correctly rounded float(alpha), which overflows past 2^1024, so 10^400
    gives None.
    """
    if horizon >= 2**63 - 1:
        raise ValueError(f"horizon must be below 2^63 - 1, got {horizon}")
    if isinstance(alpha, QuadSurd):
        exact_floor = alpha.floor_times
        first = exact_floor(start)
        above = first >= start  # start * alpha is irrational, so never exactly start
    else:
        above = alpha > 1  # ints, floats and Fractions compare exactly; nan fails
    if not above:
        raise ValueError(f"alpha must exceed 1, got {alpha!r}")
    if alpha == math.inf:
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    if not isinstance(alpha, QuadSurd):
        num, den = _as_fraction(alpha).as_integer_ratio()  # floats convert exactly
        exact_floor = lambda m: m * num // den
        first = exact_floor(start)
    if first > horizon:
        return None
    return float(alpha), exact_floor  # start * alpha < horizon + 1 < 2^63


def _floors(alpha: Alpha, horizon: int, start: int = 1, constants=None):
    """floor(n*alpha) <= horizon for n = start, start + 1, ..., exactly.

    Float multiples are taken as first guesses; the entries too close to
    an integer to trust are recomputed by the exact floor of a QuadSurd,
    or of the exact rational a Fraction, int or float alpha is.  Guesses
    and exact floors are capped at horizon + 1 before they are stored as
    int64, so a generator past 2^63 cannot overflow the store; floors past
    the horizon are never returned.  alpha is read by _constants alone:
    constants is _constants(alpha, h, s) for some h >= horizon and s <=
    start, when the caller has read it, and is read here otherwise, so a
    bad generator is refused even beside a horizon below its first floor,
    and one past the float range (10^400) gives an empty spectrum rather
    than an OverflowError.
    """
    import numpy as np

    if constants is None and (constants := _constants(alpha, horizon, start)) is None:
        return np.empty(0, dtype=np.int64)
    a, exact_floor = constants
    # covers every n with n*alpha < horizon + 1 despite the quotient's
    # rounding, and keeps last*a near horizon + 1 + a: no product overflows
    last = int((horizon + 1) / a) + 1
    prod = np.arange(start, last + 1, dtype=np.float64)
    prod *= a
    floors = np.floor(prod)
    prod -= floors  # the fractional part; exact, as prod >= 1
    # float(alpha) is correctly rounded (exact for a float), so fl(n*fl(alpha))
    # lies within about 2u*n*alpha of n*alpha, u = 2**-53; the margin covers
    # that for the largest n, and a guess farther than it from every integer
    # has the right floor
    margin = last * 8e-16 * a
    suspicious = np.nonzero((prod < margin) | (prod > 1 - margin))[0]
    cap = horizon + 1
    # a guess past 2^53 makes the margin exceed 1, so every entry is recomputed
    # below; capping guesses there keeps the cast in range (float(cap) may be 2^63)
    guess = np.minimum(floors, min(cap, 2**53), out=floors).astype(np.int64)
    for i in suspicious:
        guess[i] = min(exact_floor(int(i) + start), cap)
    # the floors increase strictly, as n >= 1 and alpha > 1
    return guess[: np.searchsorted(guess, horizon, side="right")]


def _hits(generators: Sequence[Alpha], horizon: int):
    """How many of the generators' spectra hit each of 1..horizon, a window
    at a time.

    Yields (lo, counts) for consecutive windows of at most _WINDOW
    integers from 1 up, counts[i] being the hits on lo + i.  Each
    generator keeps a cursor, its first n whose floor lies past the
    windows already counted, so a window computes only its own floors
    (and the few past its edge that _floors' float guesses overshoot).
    Each generator is read once, not per window, by _constants, which
    refuses a bad one even with nothing to count; one whose first floor
    lies past the horizon hits nothing.

    All windows share one int8 buffer, which holds up to 127 generators:
    counts is a view of it, valid only until the next window is asked
    for.  A generator adds 1 at its floors by counts[floors - lo] += 1;
    a repeated index would be added once, not twice, but _floors returns
    strictly increasing floors for alpha > 1, so no index repeats.
    """
    import numpy as np

    live = [(k, g, made) for k, g in enumerate(generators)
            if (made := _constants(g, horizon)) is not None]
    cursors = [1] * len(generators)
    buffer = np.empty(_WINDOW, dtype=np.int8)
    for lo in range(1, horizon + 1, _WINDOW):
        hi = min(lo + _WINDOW - 1, horizon)
        counts = buffer[: hi - lo + 1]
        counts.fill(0)
        for k, g, made in live:
            floors = _floors(g, hi, cursors[k], made)
            cursors[k] += len(floors)
            counts[floors - lo] += 1
        yield lo, counts


@dataclass(frozen=True)
class Spectrum:
    """The integers floor(n*alpha), n = 1, 2, ..., clipped to a horizon."""

    alpha: object
    horizon: int
    values: tuple


def spectrum(alpha: Alpha, horizon: int) -> Spectrum:
    if horizon < 1:
        raise ValueError(f"horizon must be positive, got {horizon}")
    return Spectrum(alpha, horizon, tuple(int(v) for v in _floors(alpha, horizon)))


@dataclass(frozen=True)
class BeattyPairReport:
    alpha: object
    beta: object
    horizon: int
    disjoint: bool
    covers: bool
    first_missing: Optional[int]
    first_double: Optional[int]

    @property
    def ok(self) -> bool:
        return self.disjoint and self.covers


def beatty_pair_check(alpha: Alpha, horizon: int) -> BeattyPairReport:
    """Tile-check the spectra of alpha and beta = alpha/(alpha-1).

    For irrational alpha > 1 every integer in 1..horizon must be hit by
    exactly one of the two spectra; rational alpha is accepted so the
    inevitable collision can be observed.  The scan stops at the window
    where both the first missing and the first doubly hit integer are
    known, so a rational alpha = a/b stops near its numerator a.
    """
    import numpy as np

    if horizon < 1:
        raise ValueError(f"horizon must be positive, got {horizon}")
    _constants(alpha, 0)  # refuses a bad alpha; horizon 0 ends the read before float(alpha)
    if isinstance(alpha, QuadSurd):
        beta: Alpha = alpha.pair_partner()
    else:
        # the partner of an int, Fraction or float alpha is the exact rational
        a = _as_fraction(alpha)
        beta = a / (a - 1)

    first_missing = first_double = None
    for lo, counts in _hits((alpha, beta), horizon):
        if first_missing is None and (missing := np.flatnonzero(counts == 0)).size:
            first_missing = lo + int(missing[0])
        if first_double is None and (doubled := np.flatnonzero(counts > 1)).size:
            first_double = lo + int(doubled[0])
        if first_missing is not None and first_double is not None:
            break
    return BeattyPairReport(
        alpha=alpha,
        beta=beta,
        horizon=horizon,
        disjoint=first_double is None,
        covers=first_missing is None,
        first_missing=first_missing,
        first_double=first_double,
    )


@dataclass(frozen=True)
class TripleWitness:
    """Outcome of hunting for a tiling failure among three spectra."""

    witness: Optional[int]
    kind: Optional[str]  # "missing" or "double"
    inconclusive: bool


def triple_spectrum_search(alphas: Sequence[Alpha], horizon: int) -> TripleWitness:
    """Smallest integer <= horizon missed or doubly covered by three spectra.

    Three spectra can never tile the integers, so a witness exists for
    every genuine triple; the search returns at the first window that
    holds one, and if the horizon is exhausted without one it reports
    inconclusive rather than claiming success.
    """
    import numpy as np

    if len(alphas) != 3:
        raise ValueError(f"need exactly three generators, got {len(alphas)}")
    for lo, counts in _hits(alphas, horizon):
        bad = np.flatnonzero(counts != 1)
        if bad.size:
            w = int(bad[0])
            return TripleWitness(lo + w, "missing" if counts[w] == 0 else "double", False)
    return TripleWitness(None, None, True)


def wythoff_cold(count: int):
    """(0,0) plus the first `count` cold pairs (floor(n*phi), floor(n*phi^2)).

    The first coordinates are the certified golden-ratio spectrum up to
    floor(count*phi), which holds exactly `count` floors as they increase
    strictly; the second coordinate is the first plus n.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    phi = QuadSurd.golden()
    firsts = _floors(phi, phi.floor_times(count)).tolist()
    return [(0, 0)] + [(a, a + n) for n, a in enumerate(firsts, 1)]


# --------------------------------------------------------------------------
# partitions

_PARTITION_CACHE = [1]  # p(0); grows monotonically under the lock below
_PARTITION_LOCK = threading.Lock()


def _pentagonal_offsets(n: int):
    """Generalized pentagonal numbers g = k(3k -+ 1)/2 <= n, ascending,
    split by the recurrence's sign (-1)^(k+1): (plus, minus)."""
    plus, minus = [], []
    k = 1
    while (g := k * (3 * k - 1) // 2) <= n:
        side = plus if k % 2 else minus
        side.append(g)
        if g + k <= n:  # k(3k+1)/2
            side.append(g + k)
        k += 1
    return plus, minus


def _gathers(offsets):
    """For each prefix length i of the ascending offsets, a function of a
    list giving the tuple of its entries [-g] over the first i offsets g.

    itemgetter with two or more indices returns a tuple; with one it
    returns the bare entry, so that length is wrapped in a 1-tuple.
    """
    gathers = [lambda cache: ()]
    if offsets:
        gathers.append(lambda cache, k=-offsets[0]: (cache[k],))
    gathers += [itemgetter(*[-g for g in offsets[:i]]) for i in range(2, len(offsets) + 1)]
    return gathers


def partition_exact(n: int) -> int:
    """p(n) by the pentagonal-number recurrence, exact big integers.

    p(m) = sum_{k>=1} (-1)^(k+1) [ p(m - k(3k-1)/2) + p(m - k(3k+1)/2) ]

    The pentagonal numbers up to n are tabled once per growth of the memo,
    split by sign, with one prebuilt gather per prefix of each side; while
    the memo holds p(0..m-1), cache[-g] is p(m - g), so each p(m) is two
    sums of the gathers over the offsets g <= m.  Values are memoized;
    the lock keeps the cache append-only under concurrent callers.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    with _PARTITION_LOCK:
        cache = _PARTITION_CACHE
        if len(cache) <= n:
            plus, minus = _pentagonal_offsets(n)
            plus_gathers, minus_gathers = _gathers(plus), _gathers(minus)
            for m in range(len(cache), n + 1):
                cache.append(
                    sum(plus_gathers[bisect_right(plus, m)](cache))
                    - sum(minus_gathers[bisect_right(minus, m)](cache))
                )
        return cache[n]


def partition_uspensky(n: int):
    """(simple, refined) asymptotic values for p(n), log-space internally.

    simple  = exp(pi sqrt(2n/3)) / (4 n sqrt(3))
    refined = exp(pi sqrt((2/3)(n - 1/24))) / (4 sqrt(3) (n - 1/24))
              * (1 - sqrt(3) / (pi sqrt(2n - 1/12)))

    The refinement shifts n by 1/24 and applies a first correction
    factor.  Both values pass the float range together: n = 79,273 gives
    about 8.2e307, and from n = 79,274 on inf is returned (the logs stay
    finite internally).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    log_simple = math.pi * math.sqrt(2.0 * n / 3.0) - math.log(4.0 * n * math.sqrt(3.0))
    m = n - 1.0 / 24.0
    log_main = math.pi * math.sqrt(2.0 * m / 3.0) - math.log(4.0 * math.sqrt(3.0) * m)
    corr = 1.0 - math.sqrt(3.0) / (math.pi * math.sqrt(2.0 * n - 1.0 / 12.0))
    log_refined = log_main + math.log(corr)
    simple = math.exp(log_simple) if log_simple < 709 else math.inf
    refined = math.exp(log_refined) if log_refined < 709 else math.inf
    return simple, refined


__all__ = [
    "shuffle_order",
    "monge_order",
    "in_shuffled",
    "monge_shuffled",
    "QuadSurd",
    "Spectrum",
    "spectrum",
    "BeattyPairReport",
    "beatty_pair_check",
    "TripleWitness",
    "triple_spectrum_search",
    "wythoff_cold",
    "partition_exact",
    "partition_uspensky",
]
