"""Kernel tests: log pmf accuracy and the exact tail oracle."""

import math
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certiprob import numerics
from certiprob.binom_tail import TailQuery, bahadur_tail
from certiprob.lexis import CountVector, dispersion_Q
from certiprob.numerics import TailConventionWarning, binom_tail_exact, log_binom_pmf

from certiprob.ruin import RuinGame
from certiprob.runs import RunSpec

from _oracles import log_pmf_reference, tail_fraction_oracle, tail_full_sweep


class TestLogBinomPmf:
    def test_single_toss_identity(self):
        assert log_binom_pmf(1, 1, 0.5) == pytest.approx(math.log(0.5), rel=1e-15)

    def test_hand_countable(self):
        # 4 tosses, 2 heads: 6 of 16 outcomes
        assert log_binom_pmf(4, 2, 0.5) == pytest.approx(math.log(6 / 16), rel=1e-15)

    def test_large_case_against_exact_log(self):
        got = log_binom_pmf(9000, 3091, Fraction(1, 3))
        ref = float(log_pmf_reference(9000, 3091, Fraction(1, 3)))
        assert abs((got - ref) / ref) < 1e-12

    def test_relative_error_budget_on_grid(self):
        rng = random.Random(20240229)
        for _ in range(40):
            n = rng.randint(1, 2000)
            k = rng.randint(0, n)
            p = Fraction(rng.randint(1, 999), 1000)
            ref = log_pmf_reference(n, k, p)
            if ref == 0:
                continue
            got = log_binom_pmf(n, k, float(p))
            assert abs((got - float(ref)) / float(ref)) < 1e-13

    @pytest.mark.parametrize("n,p", [(1, 0.37), (9, 0.2), (137, 0.61)])
    def test_pmf_sums_to_one(self, n, p):
        total = math.fsum(math.exp(log_binom_pmf(n, k, p)) for k in range(n + 1))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_pmf_sums_to_one_medium_n(self):
        n = 2000
        p = 0.37
        total = math.fsum(math.exp(log_binom_pmf(n, k, p)) for k in range(n + 1))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_pmf_sums_to_one_large_n(self):
        # n at the top of the supported range; a small p concentrates all
        # but < 1e-17 of the mass below k ~ 115 (9 sigma), so the windowed
        # sum must still hit 1 within 1e-12
        n = 10**4
        p = Fraction(1, 200)
        total = math.fsum(math.exp(log_binom_pmf(n, k, p)) for k in range(116))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_result_never_positive(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(1, 50)
            k = rng.randint(0, n)
            assert log_binom_pmf(n, k, rng.uniform(1e-6, 1 - 1e-6)) <= 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_binom_pmf(10, 11, 0.5)
        with pytest.raises(ValueError):
            log_binom_pmf(10, -1, 0.5)
        with pytest.raises(ValueError):
            log_binom_pmf(10, 5, 0.0)
        with pytest.raises(ValueError):
            log_binom_pmf(10, 5, 1.0)
        with pytest.raises(ValueError):
            log_binom_pmf(0, 0, 0.5)


class TestBinomTailExact:
    def test_flagship_five_places(self):
        value = binom_tail_exact(9000, 3090, Fraction(1, 3))
        assert round(value, 5) == 0.02170

    def test_zero_trials_refused(self):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            binom_tail_exact(0, 0, 0.5)

    def test_tail_at_n_is_zero(self):
        assert binom_tail_exact(25, 25, 0.3) == 0.0

    def test_hand_rational_value(self):
        # sum of C(10,k)/1024 over k=5..10 = 638/1024 = 319/512
        assert binom_tail_exact(10, 4, 0.5) == pytest.approx(319 / 512, rel=1e-14)
        assert tail_fraction_oracle(10, 4, Fraction(1, 2)) == Fraction(319, 512)

    def test_out_of_range_conventions(self):
        with pytest.warns(TailConventionWarning):
            assert binom_tail_exact(5, 6, 0.5) == 0.0
        assert binom_tail_exact(5, -1, 0.5) == 1.0

    def test_agrees_with_exact_rational(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(1, 200)
            l = rng.randint(0, n)
            p = Fraction(rng.randint(1, 99), 100)
            exact = tail_fraction_oracle(n, l, p)
            got = binom_tail_exact(n, l, float(p))
            if exact == 0:
                assert got == 0.0
            else:
                assert abs(got - float(exact)) <= 1e-12 * float(exact)

    def test_monotone_in_l_and_p(self):
        rng = random.Random(123)
        for _ in range(20):
            n = rng.randint(2, 150)
            p = rng.uniform(0.05, 0.95)
            tails = [binom_tail_exact(n, l, p) for l in range(0, n + 1)]
            assert all(a >= b for a, b in zip(tails, tails[1:]))
            l = rng.randint(0, n - 1)
            lo, hi = sorted((rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)))
            assert binom_tail_exact(n, l, lo) <= binom_tail_exact(n, l, hi) + 1e-15


@st.composite
def tail_queries(draw):
    """(n, l, p): n log-uniform up to 10^6, p near 0, 1/2 or 1 as a float
    or a Fraction, l anywhere in [-1, n+1] or up to 8 or 40 sd from the
    mean (tails down to about 1e-300, and thresholds below the mode).
    Drawn from a Random seeded by hypothesis, whose own integers and
    randoms put most n at 1."""
    rng = random.Random(draw(st.integers(0, 2**64)))
    n = max(1, round(10 ** rng.uniform(0, 6)))
    offset = 10 ** rng.choice([rng.uniform(-8, -0.31), rng.uniform(-15, -0.31)])
    pf = rng.choice([offset, 1 - offset, 0.5 + rng.choice([-0.5, 0.5]) * offset])
    p = Fraction(pf).limit_denominator(rng.choice([10, 1000, 10**9])) if rng.random() < 0.5 else pf
    if not 0 < p < 1:
        p = Fraction(pf)
    pp = float(p)
    sd = math.sqrt(n * pp * (1 - pp))
    z = rng.choice([8, 40]) * rng.uniform(-1, 1)
    l = rng.randint(-1, n + 1) if rng.random() < 0.2 else math.floor(n * pp + z * sd)
    return n, min(max(l, -1), n + 1), p


class TestTailStop:
    """binom_tail_exact stops its sweep once the masses left cannot change
    the rounded sum; the full sweep, tail_full_sweep, pins its bits."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(tail_queries())
    def test_equals_the_full_sweep(self, query):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TailConventionWarning)  # l = n + 1
            assert binom_tail_exact(*query) == tail_full_sweep(*query)

    def test_every_threshold_of_short_ranges(self):
        # ranges of at most _FIRST_CHUNK masses fit in the first chunks,
        # which are summed with no stopping test; longer ones (l small at
        # n > 128) can reach one
        floats = (0.3, 0.02, 0.5, 0.97, 0.1)
        fractions = (Fraction(1, 3), Fraction(1, 50), Fraction(1, 2), Fraction(49, 50), Fraction(7, 11))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TailConventionWarning)  # l = n + 1
            for n in range(1, 151):
                for p in (floats[n % 5], fractions[n % 5]):
                    for l in range(-1, n + 2):
                        assert binom_tail_exact(n, l, p) == tail_full_sweep(n, l, p), (n, l, p)

    @staticmethod
    def _count_masses(monkeypatch):
        """Patch the sweep to count the masses binom_tail_exact draws."""
        count = [0]
        sweeps = numerics._pmf_sweeps

        def counted(it):
            for t in it:
                count[0] += 1
                yield t

        def counting(*args):
            mode, t_mode, down, up = sweeps(*args)
            return mode, t_mode, counted(down), counted(up)

        monkeypatch.setattr(numerics, "_pmf_sweeps", counting)
        return count

    def test_stops_near_the_mode(self, monkeypatch):
        # the full sweep made 1,610,386 masses here, nearly all of them
        # below the sum's last bit
        count = self._count_masses(monkeypatch)
        query = (10**7, 3005000, 0.3)
        assert binom_tail_exact(*query) == 0.0002801151848134074
        assert count[0] <= 20000

    @staticmethod
    def _count_proofs(monkeypatch):
        """Patch _settled_sum to record what each call returns."""
        calls = []
        settled = numerics._settled_sum

        def spy(terms, rest):
            calls.append(settled(terms, rest))
            return calls[-1]

        monkeypatch.setattr(numerics, "_settled_sum", spy)
        return calls

    def test_first_chunks_sum_without_a_proof(self, monkeypatch):
        # 14 masses below the mode and 125 above: each direction ends
        # inside its first chunk, so no stopping test runs
        calls = self._count_proofs(monkeypatch)
        query = (250, 110, 0.5)
        assert binom_tail_exact(*query) == tail_full_sweep(*query) == 0.9667894243799783
        assert calls == []

    def test_long_range_runs_a_proof(self, monkeypatch):
        calls = self._count_proofs(monkeypatch)
        query = (1000, 330, 0.3)
        assert binom_tail_exact(*query) == tail_full_sweep(*query)
        assert len(calls) >= 1

    def test_sum_below_the_floor_refuses_every_proof(self, monkeypatch):
        # about 4.04e-277, below 2**-900: each proof is refused, and the
        # sweep runs on to the underflow.  Without the floor the first
        # proof would hold; at 1.50e-285, (100000, 55700), none would
        calls = self._count_proofs(monkeypatch)
        query = (20000, 12500, 0.5)
        assert binom_tail_exact(*query) == tail_full_sweep(*query)
        assert calls == [None, None]

    @pytest.mark.parametrize("ratio", [1.0, 1 - 2.0**-52, 2.0, math.nan])
    def test_rest_unbounded_unless_the_ratio_falls(self, ratio):
        # 1 - 2**-52 is below 1, but not once widened by its roundings
        assert numerics._rest_bound(1e-3, ratio) == math.inf
        assert numerics._rest_bound(1e-3, 0.5) < 1.1e-3

    @pytest.mark.parametrize("query", [
        (10**7, 3005000, 0.3),
        (10**6, 499000, 0.5),  # l + 1 below the mode: both directions
        (9000, 3090, Fraction(1, 3)),
        (20000, 6100, 0.3),
        (1000, 0, 0.001),
        (200, 80, 0.3),
    ])
    def test_refused_stop_sweeps_to_the_end(self, monkeypatch, query):
        n, l, p = query
        want = tail_full_sweep(n, l, p)
        masses = len(numerics._pmf_terms(n, l + 1, n, p))
        count = self._count_masses(monkeypatch)
        monkeypatch.setattr(numerics, "_settled_sum", lambda terms, rest: None)
        assert binom_tail_exact(n, l, p) == want
        # every mass the full sweep makes but the mode's (no downward
        # sweep here reaches a zero, after which the oracle skips the rest)
        assert count[0] + 1 == masses


# Every caller of the shared p-range check, as a function of p alone.
P_CALLERS = {
    "TailQuery": lambda p: TailQuery(10, 5, p),
    "bahadur_tail": lambda p: bahadur_tail(10, 6, p),
    "RunSpec": lambda p: RunSpec(10, 3, p),
    "RuinGame": lambda p: RuinGame(5, 5, 1, 1, p),
    "dispersion_Q": lambda p: dispersion_Q(CountVector(m=(1, 2), s=3), p),
}


@pytest.mark.parametrize(
    "p",
    [math.inf, -math.inf, math.nan, Fraction(3, 2), Fraction(-1, 3), Fraction(0), Fraction(1)],
    ids=["inf", "-inf", "nan", "3/2", "-1/3", "0/1", "1/1"],
)
@pytest.mark.parametrize("caller", list(P_CALLERS))
def test_non_finite_p_gets_the_range_message(caller, p):
    # the range is tested on p itself, before any Fraction conversion; a
    # Fraction is tested as 0 < num < den, in integers
    with pytest.raises(ValueError, match=r"p must lie strictly in \(0, 1\)"):
        P_CALLERS[caller](p)
