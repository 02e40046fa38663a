"""Shuffles, spectra, Wythoff positions, and partition counts."""

import math
import random
import time
import tracemalloc
import warnings
from collections import deque
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certiprob import gems
from certiprob.gems import (
    QuadSurd,
    beatty_pair_check,
    in_shuffled,
    monge_order,
    monge_shuffled,
    partition_exact,
    partition_uspensky,
    shuffle_order,
    spectrum,
    triple_spectrum_search,
    wythoff_cold,
)

from _oracles import (
    beatty_hits_bincount,
    floor_mult_reference,
    full_cycle_shuffle_stats,
    monge_shuffle,
    partition_table_dp,
    perfect_in_shuffle,
    wythoff_cold_retrograde,
)

# the classical shuffle-order table for deck sizes 2..52
SHUFFLE_TABLE = {
    2: 2, 4: 4, 6: 3, 8: 6, 10: 10, 12: 12, 14: 4, 16: 8, 18: 18, 20: 6,
    22: 11, 24: 20, 26: 18, 28: 28, 30: 5, 32: 10, 34: 12, 36: 36, 38: 12,
    40: 20, 42: 14, 44: 12, 46: 23, 48: 21, 50: 8, 52: 52,
}


# x + sqrt(d) with x near -sqrt(d): float(x) + float(sqrt(d)) keeps only
# about 8 of the value's digits, and float multiples past 1e4 cross integers
CANCELLING_SURDS = [
    QuadSurd(Fraction(-99999999), Fraction(1), 10000000076123709),
    QuadSurd(Fraction(-99999999), Fraction(1), 10000000160262754),
    QuadSurd(Fraction(-299999999), Fraction(1), 90000000515151261),
    QuadSurd(Fraction(-69999999), Fraction(1), 4900000031784691),
]


def factorize_by_trial_division(m):
    """Prime factors of m by trial division to sqrt(m), with no early exit."""
    factors = {}
    f = 2
    while f * f <= m:
        while m % f == 0:
            factors[f] = factors.get(f, 0) + 1
            m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return factors


def shuffle_order_by_trial_division(two_n):
    """The order of 2 mod 2n+1 from the totient, every factor found by trial division."""
    m = two_n + 1
    order = 1
    for prime, exp in factorize_by_trial_division(m).items():
        order *= prime ** (exp - 1) * (prime - 1)
    for prime in factorize_by_trial_division(order):
        while order % prime == 0 and pow(2, order // prime, m) == 1:
            order //= prime
    return order


def strong_probable_prime(n, base):
    """One Miller-Rabin round: does base fail to witness that odd n is composite?"""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    y = pow(base, d, n)
    if y in (1, n - 1):
        return True
    for _ in range(s - 1):
        y = y * y % n
        if y == n - 1:
            return True
    return False


def deal_over_under(two_n):
    """Cards 1..2n dealt one at a time: the first starts the pile, then
    they go alternately on top and underneath.  The pile, top down."""
    pile = deque()
    for i, card in enumerate(range(1, two_n + 1)):
        if i % 2 == 1:
            pile.appendleft(card)  # even-numbered cards go on top
        else:
            pile.append(card)
    return tuple(pile)


def cycle_walk_order(arrangement):
    """lcm of the cycle lengths of the permutation i -> arrangement[i] - 1."""
    seen = [False] * len(arrangement)
    order = 1
    for start in range(len(arrangement)):
        length, i = 0, start
        while not seen[i]:
            seen[i] = True
            i = arrangement[i] - 1
            length += 1
        if length:
            order = math.lcm(order, length)
    return order


def identity(size):
    return tuple(range(1, size + 1))


def iterate_until_identity(shuffle, size, cap=10**6):
    deck = start = identity(size)
    for count in range(1, cap + 1):
        deck = shuffle(deck)
        if deck == start:
            return count
    raise AssertionError("no recycling within cap")


class TestPerfectShuffle:
    def test_eight_card_diagram(self):
        assert perfect_in_shuffle(identity(8)) == (5, 1, 6, 2, 7, 3, 8, 4)

    def test_card_at_i_lands_at_2i_mod_2n_plus_1(self):
        for two_n in range(2, 201, 2):
            order = perfect_in_shuffle(identity(two_n))
            assert all(order[2 * i % (two_n + 1) - 1] == i for i in range(1, two_n + 1))

    def test_two_cards_recycle_in_two(self):
        deck = perfect_in_shuffle(perfect_in_shuffle(identity(2)))
        assert deck == identity(2)

    def test_table_26_entries(self):
        for two_n, r in SHUFFLE_TABLE.items():
            assert shuffle_order(two_n) == r

    def test_order_matches_brute_iteration(self):
        for two_n in range(2, 101, 2):
            assert shuffle_order(two_n) == iterate_until_identity(
                perfect_in_shuffle, two_n
            )

    def test_order_is_minimal_up_to_200(self):
        for two_n in range(2, 201, 2):
            r = shuffle_order(two_n)
            deck = identity(two_n)
            for step in range(1, r + 1):
                deck = perfect_in_shuffle(deck)
                if step < r:
                    assert deck != identity(two_n)
            assert deck == identity(two_n)

    def test_prime_modulus_divides_group_order(self):
        for two_n in range(2, 1001, 2):
            m = two_n + 1
            if all(m % f for f in range(2, int(math.isqrt(m)) + 1)):
                assert two_n % shuffle_order(two_n) == 0

    def test_odd_deck_rejected(self):
        # one message from every entry point; the deck is checked before the count
        entries = [shuffle_order, monge_order,
                   lambda two_n: in_shuffled(two_n, -1), lambda two_n: monge_shuffled(two_n, -1)]
        for entry in entries:
            for two_n in (7, 0):
                with pytest.raises(ValueError, match=f"^deck size must be even and positive, got {two_n}$"):
                    entry(two_n)

    def test_full_cycle_stats_report_only(self):
        stats = full_cycle_shuffle_stats(60)
        assert 0 < stats["full_cycle_decks"] <= stats["prime_modulus_decks"]
        assert 52 in stats["sizes"]


class TestCertifiedPrime:
    FIRST_13_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

    @pytest.mark.parametrize("n", [561, 41041, 825265])
    def test_refuses_carmichael_numbers(self, n):
        assert not gems._certified_prime(n)

    @pytest.mark.parametrize("n, first_witness", [
        (3215031751, 11),  # strong pseudoprime to 2, 3, 5, 7
        (3825123056546413051, 37),  # to every prime base up to 31
        (318665857834031151167461, 41),  # to every prime base up to 37
    ])
    def test_refuses_strong_pseudoprimes(self, n, first_witness):
        witnesses = [b for b in self.FIRST_13_PRIMES if not strong_probable_prime(n, b)]
        assert witnesses[0] == first_witness
        assert not gems._certified_prime(n)

    def test_accepts_a_mersenne_prime(self):
        assert gems._certified_prime(2**61 - 1)

    def test_never_certifies_at_or_above_the_bound(self):
        bound = 3_317_044_064_679_887_385_961_981
        assert gems._MR_BOUND == bound
        # the bound is itself a strong pseudoprime to all 13 bases
        assert all(strong_probable_prime(bound, b) for b in self.FIRST_13_PRIMES)
        assert not gems._certified_prime(bound)
        assert not gems._certified_prime(2**89 - 1)  # prime, but past the bound

    def test_matches_trial_division_below_ten_thousand(self):
        assert not any(map(gems._certified_prime, (-2, -1, 0, 1)))
        for n in range(2, 10**4):
            is_prime = factorize_by_trial_division(n) == {n: 1}
            assert gems._certified_prime(n) == is_prime, n

    def test_factorize_stops_on_a_certified_cofactor(self):
        big = 2**61 - 1
        assert gems._factorize(3 * 3 * 7 * big) == {3: 2, 7: 1, big: 1}
        # a square is never certified: Brent's rho splits it
        assert gems._factorize(2 * 1000003**2) == {2: 1, 1000003: 2}

    @pytest.mark.parametrize("p, q", [(1000003, 3000017), (10000019, 30000001)])
    def test_two_large_primes_split_by_rho(self, p, q):
        # trial division would run to p: 5e6 divisions for the second
        m = p * q
        assert gems._factorize(m) == {p: 1, q: 1}
        r = shuffle_order(m - 1)
        assert math.lcm(p - 1, q - 1) % r == 0
        assert pow(2, r, m) == 1
        divisors = factorize_by_trial_division(p - 1).keys() | factorize_by_trial_division(q - 1).keys()
        for prime in divisors:
            if r % prime == 0:
                assert pow(2, r // prime, m) != 1

    def test_composite_past_the_bound_split_by_rho(self):
        # m is past _MR_BOUND, but it fails a base, so rho splits it; trial
        # division toward 2**31 - 1 would take about 1e9 steps
        primes = (1000003, 2**31 - 1, 2**61 - 1)
        m = math.prod(primes)
        assert m > gems._MR_BOUND
        assert gems._factorize(m) == dict.fromkeys(primes, 1)
        r = shuffle_order(m - 1)
        assert r == 1891003782
        assert math.lcm(*(p - 1 for p in primes)) % r == 0
        assert pow(2, r, m) == 1
        for prime in factorize_by_trial_division(r):
            assert pow(2, r // prime, m) != 1


class TestUncertifiableFactor:
    """What nothing here can certify is refused at once, not trial-divided
    toward a square root of 1e12 or more."""

    @pytest.mark.parametrize("order, two_n", [(shuffle_order, 10**25 + 12),
                                              (monge_order, 5 * 10**24 + 6)])
    def test_prime_past_the_bound_refused(self, order, two_n):
        m = 10**25 + 13  # prime, and the modulus of both decks
        start = time.perf_counter()
        with pytest.raises(ArithmeticError, match=f"^{m} is .*{gems._MR_BOUND}"):
            order(two_n)
        assert time.perf_counter() - start < 1.0

    def test_pseudoprime_at_the_bound_refused(self):
        # the bound is composite, yet a strong probable prime to every base
        with pytest.raises(ArithmeticError, match=f"^{gems._MR_BOUND} is a probable prime"):
            gems._factorize(gems._MR_BOUND)

    def test_composite_rho_cannot_split_refused(self, monkeypatch):
        m = 1000003 * 3000017
        monkeypatch.setattr(gems, "_brent_rho", lambda x: None)
        with pytest.raises(ArithmeticError, match=f"no divisor of the composite {m}$"):
            gems._factorize(m)


class TestShuffleOrderLarge:
    def test_matches_trial_division_on_random_decks(self):
        rng = random.Random(20170)
        for _ in range(300):
            two_n = 2 * rng.randrange(1, 5 * 10**8)
            assert shuffle_order(two_n) == shuffle_order_by_trial_division(two_n), two_n

    @pytest.mark.parametrize("start", [10**11, 3 * 10**11, 7 * 10**11])
    def test_prime_modulus_order_is_certified(self, start):
        m = start + 1
        while factorize_by_trial_division(m) != {m: 1}:
            m += 2
        r = shuffle_order(m - 1)
        assert (m - 1) % r == 0
        assert pow(2, r, m) == 1
        for q in factorize_by_trial_division(r):
            assert pow(2, r // q, m) != 1


class TestMongeShuffle:
    def test_two_cards_swap(self):
        assert monge_shuffle(identity(2)) == (2, 1)
        assert monge_order(2) == 2

    def test_eight_cards(self):
        assert monge_shuffle(identity(8)) == (8, 6, 4, 2, 1, 3, 5, 7)
        assert monge_order(8) == iterate_until_identity(monge_shuffle, 8)

    def test_order_matches_iteration(self):
        for two_n in range(2, 401, 2):
            assert monge_order(two_n) == iterate_until_identity(monge_shuffle, two_n)

    def test_matches_dealing_loop(self):
        for two_n in range(2, 201, 2):
            assert monge_shuffle(identity(two_n)) == deal_over_under(two_n)

    def test_order_matches_cycle_walk_of_the_deal(self):
        rng = random.Random(1833)
        for two_n in [2 * rng.randrange(1, 10**4 + 1) for _ in range(60)] + [2 * 10**4]:
            assert monge_order(two_n) == cycle_walk_order(deal_over_under(two_n)), two_n

    @pytest.mark.parametrize("two_n", [10**10, 10**10 + 2, 10**10 + 1234, 10**10 + 55556])
    def test_order_near_ten_to_the_ten_is_least(self, two_n):
        # the k with 2^k = +-1 mod 4n+1 are the multiples of the least one
        m = 2 * two_n + 1
        k = monge_order(two_n)
        assert pow(2, k, m) in (1, m - 1)
        for q in factorize_by_trial_division(k):
            assert pow(2, k // q, m) not in (1, m - 1)

    def test_order_builds_no_deck(self):
        # 2 * 10**15 cards could not be dealt; an odd or empty deck is refused
        assert monge_order(52) == 12
        assert monge_order(2 * 10**15) == 165703275529858
        for two_n in (7, 0):
            with pytest.raises(ValueError, match=f"deck size must be even and positive, got {two_n}$"):
                monge_order(two_n)

    def test_double_monge_fixed_points(self):
        for two_n in (8, 12, 20):
            twice = monge_shuffle(monge_shuffle(identity(two_n)))
            fixed = {c for pos, c in enumerate(twice, start=1) if pos == c}
            # brute iteration oracle: cards back home after two deals
            deck = identity(two_n)
            for _ in range(2):
                deck = monge_shuffle(deck)
            oracle = {c for pos, c in enumerate(deck, start=1) if pos == c}
            assert fixed == oracle


DEALERS = pytest.mark.parametrize("closed, deal, order", [
    (in_shuffled, perfect_in_shuffle, shuffle_order),
    (monge_shuffled, monge_shuffle, monge_order),
], ids=["in", "monge"])


class TestDealtShuffles:
    """The closed forms against the dealing loops they replace."""

    @DEALERS
    def test_every_count_to_twice_the_order(self, closed, deal, order):
        for two_n in range(2, 121, 2):
            deck = identity(two_n)
            for times in range(2 * order(two_n) + 2):
                assert closed(two_n, times) == list(deck), (two_n, times)
                deck = deal(deck)

    @DEALERS
    def test_huge_count_is_its_residue_modulo_the_order(self, closed, deal, order):
        for two_n in (2, 8, 52, 98, 120, 200):
            for k in (0, 1, 3, 17):
                deck = identity(two_n)
                for _ in range((10**12 + k) % order(two_n)):
                    deck = deal(deck)
                assert closed(two_n, 10**12 + k) == list(deck), (two_n, k)

    @DEALERS
    def test_negative_count_refused(self, closed, deal, order):
        with pytest.raises(ValueError, match="^times must be non-negative, got -2$"):
            closed(4, -2)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(1, 1000), times=st.integers(0, 10**18))
    def test_one_more_dealt_shuffle_is_the_next_count(self, n, times):
        for closed, deal in ((in_shuffled, perfect_in_shuffle), (monge_shuffled, monge_shuffle)):
            after = deal(tuple(closed(2 * n, times)))
            assert list(after) == closed(2 * n, times + 1)


class TestQuadSurd:
    def test_golden_ratio_values(self):
        phi = QuadSurd.golden()
        assert float(phi) == pytest.approx((1 + math.sqrt(5)) / 2, rel=1e-15)
        assert float(phi.pair_partner()) == pytest.approx(float(phi) ** 2, rel=1e-14)
        assert phi.pair_partner() == QuadSurd.golden_sq()

    def test_exact_floor_against_high_precision(self):
        cases = [
            (QuadSurd.golden(), (1 + mpmath.sqrt(5)) / 2),
            (QuadSurd.sqrt(2), mpmath.sqrt(2)),
            (QuadSurd(Fraction(7, 3), Fraction(-1, 4), 11),
             mpmath.mpf(7) / 3 - mpmath.sqrt(11) / 4),
        ]
        rng = random.Random(17)
        for surd, ref in cases:
            for _ in range(40):
                n = rng.randint(1, 10**6)
                assert surd.floor_times(n) == floor_mult_reference(ref, n)

    def test_exact_floor_far_past_the_float_range(self):
        # a float guess of n * value overflows here; the floor needs none
        n = 10**400
        assert QuadSurd.golden().floor_times(n) == (n + math.isqrt(5 * n * n)) // 2

    def test_exact_floor_of_negative_y_at_large_n(self):
        # 50 digits leave about 19 past the point at n near 10**30
        surd = QuadSurd(Fraction(7, 3), Fraction(-1, 4), 11)
        ref = mpmath.mpf(7) / 3 - mpmath.sqrt(11) / 4
        rng = random.Random(29)
        for _ in range(40):
            n = rng.randint(10**30 - 10**6, 10**30 + 10**6)
            assert surd.floor_times(n) == floor_mult_reference(ref, n)

    def test_float_is_within_one_ulp(self):
        # _oracles sets mpmath to 50 digits
        cases = [(QuadSurd.golden(), (1 + mpmath.sqrt(5)) / 2)]
        cases += [(s, s.x.numerator + mpmath.sqrt(s.d)) for s in CANCELLING_SURDS]
        for surd, ref in cases:
            got = float(surd)
            assert abs(mpmath.mpf(got) - ref) <= math.ulp(got)

    def test_validation(self):
        with pytest.raises(ValueError):
            QuadSurd(Fraction(1), Fraction(1), 9)  # square d
        with pytest.raises(ValueError):
            QuadSurd(Fraction(1), Fraction(0), 5)  # rational


class TestBeattySpectra:
    def test_golden_spectrum_start(self):
        assert spectrum(QuadSurd.golden(), 8).values == (1, 3, 4, 6, 8)

    def test_golden_pair_tiles(self):
        report = beatty_pair_check(QuadSurd.golden(), 100)
        assert report.ok

    def test_sqrt2_pair_tiles_to_ten_thousand(self):
        report = beatty_pair_check(QuadSurd.sqrt(2), 10**4)
        assert report.ok
        assert float(report.beta) == pytest.approx(2 + math.sqrt(2), rel=1e-14)

    @pytest.mark.parametrize("surd", CANCELLING_SURDS)
    def test_cancelling_surd_pair_tiles(self, surd):
        assert beatty_pair_check(surd, 10**5).ok

    def test_cancelling_surd_spectrum_is_exact(self):
        surd = CANCELLING_SURDS[0]
        values = spectrum(surd, 10**5).values
        assert values == tuple(surd.floor_times(n) for n in range(1, len(values) + 1))
        assert surd.floor_times(len(values) + 1) > 10**5

    def test_rational_alpha_collides(self):
        report = beatty_pair_check(Fraction(3, 2), 50)
        assert not report.ok
        assert report.first_double is not None or report.first_missing is not None

    def test_float_alpha_small_horizon(self):
        # floats are fine while no multiple sits near an integer
        report = beatty_pair_check((1 + math.sqrt(5)) / 2, 1000)
        assert report.ok

    def test_float_alpha_read_exactly(self):
        # 2 * 1.5 is an integer: the float 1.5 is the rational 3/2
        assert spectrum(1.5, 100).values == tuple(
            v for v in (3 * n // 2 for n in range(1, 101)) if v <= 100
        )

    def test_float_alpha_partner_is_exact(self):
        # fl(3.5 / 2.5) lies below 7/5; the exact partner of 7/2 is 7/5,
        # so the pair misses 6 and hits 7 twice
        report = beatty_pair_check(3.5, 10)
        assert report.beta == Fraction(7, 5)
        assert (report.first_missing, report.first_double) == (6, 7)
        assert not report.ok

    def test_spectrum_strictly_increasing(self):
        vals = spectrum(QuadSurd.sqrt(3), 500).values
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(v <= 500 for v in vals)


def exact_floors(alpha, horizon):
    """floor(n*alpha) <= horizon for n = 1, 2, ..., one exact floor at a time."""
    if isinstance(alpha, QuadSurd):
        floor_times = alpha.floor_times
    else:
        a = Fraction(alpha)
        floor_times = lambda n: n * a.numerator // a.denominator
    out = []
    n = 1
    while (v := floor_times(n)) <= horizon:
        out.append(v)
        n += 1
    return out


@st.composite
def floor_alphas(draw):
    kind = draw(st.sampled_from(["fraction", "float", "dyadic", "surd"]))
    if kind == "fraction":
        den = draw(st.integers(1, 1000))
        return Fraction(draw(st.integers(den + 1, 12 * den)), den)
    if kind == "float":
        return draw(st.floats(1.0, 12.0, exclude_min=True))
    if kind == "dyadic":  # floats whose multiples land on integers
        return draw(st.integers(1025, 12 * 1024)) / 1024
    d = draw(st.sampled_from([2, 3, 5, 6, 7, 10, 13, 10000000076123709]))
    y = Fraction(draw(st.integers(-5, 5).filter(bool)), draw(st.integers(1, 4)))
    # x puts the value between 1 and about 5
    x = Fraction(draw(st.integers(1, 4 * 64)), 64) - y * math.isqrt(d)
    surd = QuadSurd(x, y, d)
    return surd if float(surd) > 1 else QuadSurd(x + 1 - math.floor(float(surd)), y, d)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    floor_alphas(),
    st.one_of(st.integers(1, 1000), st.integers(1000, 10**5)),
    st.one_of(st.integers(2, 50), st.integers(50, 10**5)),
)
def test_floors_equal_exact_floors(alpha, horizon, start):
    want = exact_floors(alpha, horizon)
    assert gems._floors(alpha, horizon).tolist() == want
    # from a start index on, past the last floor too
    assert gems._floors(alpha, horizon, start).tolist() == want[start - 1:]


@pytest.mark.parametrize("alpha", [
    2.0**54,  # its partner 2^54 / (2^54 - 1) rounds to the float 1.0
    10**19,  # past 2^63: the floors past the horizon do not fit an int64
    1e19,
    Fraction(10**30, 7),
    QuadSurd(10**19, 1, 2),
    # past the float range: float(alpha) raised OverflowError
    10**400,
    Fraction(10**400, 3),
], ids=["2^54", "10^19", "1e19", "10^30/7", "10^19+sqrt2", "10^400", "10^400/3"])
def test_generators_far_above_one(alpha):
    horizon = 50
    partner = exact_partner(alpha)
    for g in (alpha, partner):
        assert gems._floors(g, horizon).tolist() == exact_floors(g, horizon)
    assert exact_floors(alpha, horizon) == []
    assert spectrum(alpha, horizon).values == ()
    report = beatty_pair_check(alpha, horizon)
    assert report.beta == partner
    # the partner's spectrum is 1, 2, ..., horizon: a tiling
    assert (report.disjoint, report.covers) == (True, True)


@pytest.mark.parametrize("horizon, k", [(110, 47), (124, 29), (152, 59), (173, 62)])
def test_last_floor_when_the_quotient_rounds_below_an_integer(horizon, k):
    # (horizon + 1) / alpha is k + 10^-20, which rounds below k in floats,
    # yet floor(k * alpha) = horizon is a floor to return
    alpha = Fraction((horizon + 1) * 10**20, k * 10**20 + 1)
    floors = gems._floors(alpha, horizon).tolist()
    assert floors == exact_floors(alpha, horizon) and floors[-1] == horizon


@pytest.mark.parametrize("alpha, horizon", [
    (1e308, 10),  # the overshoot product 2e308 overflowed, then inf - inf
    (2**62 + 1, 2**63 - 2),  # the float guess 2^63 was cast to int64
], ids=["1e308", "2^62+1"])
def test_edge_generators_raise_no_numpy_warning(alpha, horizon):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert list(spectrum(alpha, horizon).values) == exact_floors(alpha, horizon)


@pytest.mark.parametrize("alphas", [
    [Fraction(3, 2), 3, 10**400],
    [QuadSurd.golden(), QuadSurd.golden_sq(), Fraction(10**400, 3)],
], ids=["3/2,3,10^400", "golden-pair,10^400/3"])
def test_triple_with_a_generator_past_the_float_range(alphas):
    horizon = 50
    hits = brute_force_hits(alphas, horizon)
    bad = [i for i, h in enumerate(hits) if h != 1]
    want = (gems.TripleWitness(bad[0] + 1, "missing" if hits[bad[0]] == 0 else "double", False)
            if bad else gems.TripleWitness(None, None, True))
    assert triple_spectrum_search(alphas, horizon) == want


@pytest.mark.parametrize("call, message", [
    (lambda: beatty_pair_check(1, 10), "alpha must exceed 1"),
    (lambda: beatty_pair_check(QuadSurd(-1, 1, 2), 10), "alpha must exceed 1"),
    (lambda: spectrum(1.5, 0), "horizon must be positive"),
    (lambda: beatty_pair_check(1.5, 0), "horizon must be positive"),
    (lambda: triple_spectrum_search([2, 3], 10), "need exactly three generators"),
    (lambda: wythoff_cold(0), "count must be positive"),
    # inf passed the alpha > 1 test and died converting to a ratio
    (lambda: spectrum(math.inf, 10), "alpha must be finite"),
    (lambda: beatty_pair_check(math.inf, 10), "alpha must be finite"),
    (lambda: triple_spectrum_search([2.5, math.inf, 3], 10), "alpha must be finite"),
    # the cap horizon + 1 must fit the int64 store
    (lambda: spectrum(2**63 + 5, 10**19 + 3), r"horizon must be below 2\^63 - 1"),
    (lambda: spectrum(1.5, 2**63 - 1), r"horizon must be below 2\^63 - 1"),
    # below 1 and past the float range: refused before float(alpha) overflows
    (lambda: spectrum(-10**400, 10), "alpha must exceed 1"),
    # a first floor past the horizon once answered without the check
    (lambda: triple_spectrum_search([2.5, 1, 3], 0), "alpha must exceed 1"),
    (lambda: triple_spectrum_search([2.5, Fraction(1), 3], 0), "alpha must exceed 1"),
    (lambda: gems._floors(1, 0), "alpha must exceed 1"),
    # floor(5 * (sqrt(2) - 1)) = 2 is at least 1, but not at least 5
    (lambda: gems._floors(QuadSurd(-1, 1, 2), 10, 5), "alpha must exceed 1"),
], ids=["pair-alpha-1", "pair-surd-below-1", "spectrum-horizon-0",
        "pair-horizon-0", "triple-two-generators", "wythoff-0", "spectrum-inf",
        "pair-inf", "triple-inf", "spectrum-horizon-10^19", "spectrum-horizon-2^63-1",
        "spectrum--10^400", "triple-1-horizon-0", "triple-1/1-horizon-0", "floors-1-horizon-0",
        "floors-surd-below-1-from-5"])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def brute_force_hits(alphas, horizon):
    """How many of the spectra hit each of 1..horizon, from exact floors."""
    hits = [0] * (horizon + 1)
    for a in alphas:
        for v in exact_floors(a, horizon):
            hits[v] += 1
    return hits[1:]


def exact_partner(alpha):
    if isinstance(alpha, QuadSurd):
        return alpha.pair_partner()
    a = Fraction(alpha)
    return a / (a - 1)


class TestTilingWindows:
    """The windowed checks against a tiling counted in one piece, with
    windows small enough that every report crosses window edges."""

    @pytest.mark.parametrize("window", [1, 7, 64])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(alpha=floor_alphas(), horizon=st.integers(1, 1500))
    def test_pair_report(self, window, alpha, horizon):
        hits = brute_force_hits([alpha, exact_partner(alpha)], horizon)
        missing = [i + 1 for i, h in enumerate(hits) if h == 0]
        doubled = [i + 1 for i, h in enumerate(hits) if h > 1]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gems, "_WINDOW", window)
            report = beatty_pair_check(alpha, horizon)
        assert (report.disjoint, report.covers) == (not doubled, not missing)
        assert report.first_missing == (missing[0] if missing else None)
        assert report.first_double == (doubled[0] if doubled else None)

    @pytest.mark.parametrize("window", [1, 7, 64])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        alphas=st.one_of(
            st.lists(floor_alphas(), min_size=3, max_size=3),
            # a tiling pair, so that the witness comes from the third
            st.tuples(
                floor_alphas().filter(lambda a: isinstance(a, QuadSurd)),
                st.one_of(floor_alphas(), st.fractions(2, 1500, max_denominator=50)),
            ).map(lambda pair: [pair[0], pair[0].pair_partner(), pair[1]]),
        ),
        horizon=st.integers(1, 1500),
    )
    def test_triple_witness(self, window, alphas, horizon):
        hits = brute_force_hits(alphas, horizon)
        bad = [i for i, h in enumerate(hits) if h != 1]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gems, "_WINDOW", window)
            found = triple_spectrum_search(alphas, horizon)
        if bad:
            kind = "missing" if hits[bad[0]] == 0 else "double"
            assert found == gems.TripleWitness(bad[0] + 1, kind, False)
        else:
            assert found == gems.TripleWitness(None, None, True)

    def test_rational_pair_stops_at_its_collision(self, monkeypatch):
        computed = []
        floors = gems._floors
        monkeypatch.setattr(gems, "_floors", lambda *a: computed.append(len(r := floors(*a))) or r)
        report = beatty_pair_check(Fraction(1681, 1000), 10**6)
        assert (report.first_missing, report.first_double) == (1680, 1681)
        # the first window settles both, and each floor in it is computed once
        assert sum(computed) <= gems._WINDOW

    @pytest.mark.parametrize("check", [
        lambda: beatty_pair_check(QuadSurd.golden(), 2_000_000),
        lambda: triple_spectrum_search([QuadSurd.golden(), 2.5, QuadSurd.sqrt(2)], 2_000_000),
    ], ids=["pair", "triple"])
    def test_memory_does_not_grow_with_the_horizon(self, check):
        # numpy reports its buffers to tracemalloc; one array over the
        # horizon would take 16 MB here
        tracemalloc.start()
        try:
            check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestHitBuffer:
    """_hits' one reused int8 buffer against fresh bincount windows."""

    # horizons end mid-window: 2.5 windows of 2^15, and 7 short of 3
    CASES = [
        pytest.param([QuadSurd.golden(), QuadSurd.golden_sq()], 81_920, id="phi pair"),
        pytest.param([Fraction(3, 2), Fraction(3)], 81_920, id="rational pair"),
        pytest.param([Fraction(2), Fraction(3), Fraction(5)], 98_297, id="2-3-5 triple"),
        pytest.param([QuadSurd.sqrt(2), 2.5, Fraction(7, 3)], 98_297, id="mixed triple"),
    ]

    @staticmethod
    def bincount_hits(generators, horizon):
        return beatty_hits_bincount(generators, horizon, gems._floors, gems._WINDOW)

    @pytest.mark.parametrize("generators, horizon", CASES)
    def test_windows_equal_bincount(self, generators, horizon):
        got = [(lo, counts.copy()) for lo, counts in gems._hits(generators, horizon)]
        want = list(self.bincount_hits(generators, horizon))
        assert [lo for lo, _ in got] == [lo for lo, _ in want]
        assert all(g.tolist() == w.tolist() for (_, g), (_, w) in zip(got, want))
        assert len(got[-1][1]) == horizon % gems._WINDOW
        if len(generators) == 3:  # some integer in every window is hit three times
            assert all(max(c) == 3 for _, c in got)

    @pytest.mark.parametrize("generators, horizon", CASES)
    def test_reports_equal_bincount(self, monkeypatch, generators, horizon):
        if len(generators) == 2:
            check = lambda: beatty_pair_check(generators[0], horizon)
        else:
            check = lambda: triple_spectrum_search(generators, horizon)
        got = check()
        monkeypatch.setattr(gems, "_hits", self.bincount_hits)
        assert got == check()

    def test_constants_made_once_per_generator(self, monkeypatch):
        # float(alpha) (64-bit floors of a QuadSurd) and the exact first
        # floor are made once per generator, while _floors, through the
        # module binding, still runs once per window and generator
        made, windows, floats = [], [], []
        constants, floors, to_float = gems._constants, gems._floors, QuadSurd.__float__
        monkeypatch.setattr(gems, "_constants", lambda *a: made.append(a[0]) or constants(*a))
        monkeypatch.setattr(gems, "_floors", lambda *a: windows.append(a[2]) or floors(*a))
        monkeypatch.setattr(QuadSurd, "__float__", lambda q: floats.append(q) or to_float(q))
        generators = [QuadSurd.golden(), Fraction(7, 3), 10**400]
        got = [(lo, counts.copy()) for lo, counts in gems._hits(generators, 81_920)]
        assert made == generators and len(floats) == 1
        assert len(windows) == 2 * len(got) == 6  # 10^400 hits nothing
        want = list(self.bincount_hits(generators[:2], 81_920))
        assert all(g.tolist() == w.tolist() for (_, g), (_, w) in zip(got, want))

    def test_each_window_reuses_the_buffer(self):
        windows = gems._hits([Fraction(2), Fraction(3)], 3 * gems._WINDOW)
        first = next(windows)[1]
        assert next(windows)[1].base is first.base


class TestTripleSpectra:
    def test_pair_plus_anything_fails_fast(self):
        res = triple_spectrum_search(
            [QuadSurd.golden(), QuadSurd.golden_sq(), QuadSurd.sqrt(7)], 1000
        )
        assert not res.inconclusive
        assert res.kind == "double"  # first two already tile, third doubles up

    def test_unit_sum_triples_always_fail(self):
        rng = random.Random(6)
        for _ in range(8):
            u = rng.uniform(0.2, 0.8)
            v = rng.uniform(0.3, 0.7)
            inv1 = u / math.sqrt(2)  # scatter the reciprocals irrationally
            inv2 = (1 - inv1) * v
            inv3 = 1 - inv1 - inv2
            alphas = [1 / inv1, 1 / inv2, 1 / inv3]
            res = triple_spectrum_search(alphas, 10**4)
            assert not res.inconclusive
            assert res.witness is not None and res.witness <= 10**4

    def test_zero_horizon_inconclusive(self):
        res = triple_spectrum_search([2.5, 3.5, 4.5], 0)
        assert res.inconclusive


class TestWythoff:
    def test_first_pairs(self):
        assert wythoff_cold(4) == [(0, 0), (1, 2), (3, 5), (4, 7), (6, 10)]

    def test_origin_is_cold(self):
        oracle = wythoff_cold_retrograde(10)
        assert (0, 0) in oracle

    def test_matches_retrograde_solver(self):
        limit = 50
        oracle = wythoff_cold_retrograde(limit)
        # oracle lists unordered cold pairs; keep the sorted representatives
        oracle_sorted = {(min(x, y), max(x, y)) for (x, y) in oracle}
        ours = wythoff_cold(40)
        ours_in_range = {p for p in ours if p[0] <= limit and p[1] <= limit}
        assert ours_in_range <= oracle_sorted
        # and every in-range cold position is produced
        covered = {p for p in oracle_sorted if p[1] <= wythoff_cold(40)[-1][1]}
        assert covered == ours_in_range

    def test_coordinate_gap(self):
        for n, (a, b) in enumerate(wythoff_cold(30)):
            assert b - a == n

    def test_first_coordinate_by_integer_square_root(self):
        # floor(n*phi) = (n + isqrt(5 n^2)) // 2, as sqrt(5) n is irrational
        pairs = wythoff_cold(10**5)
        assert len(pairs) == 10**5 + 1
        assert all(a == (n + math.isqrt(5 * n * n)) // 2 for n, (a, _) in enumerate(pairs))


class TestPartitions:
    def test_small_values(self):
        assert partition_exact(0) == 1
        assert partition_exact(1) == 1
        assert partition_exact(10) == 42

    def test_against_dp_oracle(self):
        dp = partition_table_dp(120)
        for n in (0, 1, 5, 17, 42, 100, 120):
            assert partition_exact(n) == dp[n]

    def test_grown_in_steps_equals_cold(self):
        def empty_memo():
            with gems._PARTITION_LOCK:
                del gems._PARTITION_CACHE[1:]

        empty_memo()
        stepped = [partition_exact(n) for n in (10, 700, 1500)]
        grown = list(gems._PARTITION_CACHE)
        empty_memo()
        assert partition_exact(1500) == stepped[-1]
        assert gems._PARTITION_CACHE == grown
        dp = partition_table_dp(1500)
        assert grown == dp
        assert stepped == [dp[10], dp[700], dp[1500]]

    def test_cold_small_values(self):
        # p(0..7) is computed with a gather of one offset on either side
        dp = partition_table_dp(7)
        for n in range(8):
            with gems._PARTITION_LOCK:
                del gems._PARTITION_CACHE[1:]
            assert partition_exact(n) == dp[n]
            assert gems._PARTITION_CACHE == dp[: n + 1]

    def test_grown_one_pentagonal_number_at_a_time(self):
        # every growth ends on a pentagonal number, where the gathers of
        # the next growth take one more offset
        plus, minus = gems._pentagonal_offsets(1000)
        dp = partition_table_dp(1000)
        with gems._PARTITION_LOCK:
            del gems._PARTITION_CACHE[1:]
        for g in sorted(plus + minus):
            assert partition_exact(g) == dp[g]
            assert gems._PARTITION_CACHE == dp[: g + 1]

    def test_asymptotics_approach_exact(self):
        ratios = []
        for n in (50, 100, 200, 500):
            _, refined = partition_uspensky(n)
            ratios.append(refined / partition_exact(n))
        assert all(abs(r - 1) < 0.01 for r in ratios[1:])
        diffs = [abs(r - 1) for r in ratios]
        assert diffs[-1] < diffs[0]

    def test_refined_beats_simple(self):
        for n in (10, 25, 60, 150, 400):
            exact = partition_exact(n)
            simple, refined = partition_uspensky(n)
            assert abs(refined - exact) < abs(simple - exact)

    def test_simple_positive_increasing(self):
        vals = [partition_uspensky(n)[0] for n in range(1, 40)]
        assert all(v > 0 for v in vals)
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            partition_uspensky(0)
        with pytest.raises(ValueError):
            partition_exact(-1)
