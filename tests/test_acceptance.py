"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Every tolerance is pinned here; nothing defers to later calibration.  The
independent oracles live in _oracles and never share code with the paths
they certify.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from certiprob.binom_tail import TailQuery, bahadur_tail, bracket_tail
from certiprob.concentration import BernsteinInput, bernstein_bound, mc_abs_sum_tail
from certiprob.gems import (
    QuadSurd,
    beatty_pair_check,
    partition_exact,
    partition_uspensky,
    shuffle_order,
    triple_spectrum_search,
)
from certiprob.lexis import moments_Q_hat
from certiprob.lln_bounds import LlnQuery, bernoulli_n_bound, cantelli_n, upper_count
from certiprob.numerics import binom_tail_exact
from certiprob.ruin import RuinGame, ruin_bounds_fair, ruin_exact_chain
from certiprob.runs import (
    RunSpec,
    run_prob_beta,
    run_prob_demoivre,
    run_prob_oracle,
    run_prob_recursive,
)

from _oracles import (
    classical_ruin,
    convergent_stream,
    lead_term_fraction,
    partition_table_dp,
    perfect_in_shuffle,
    q_hat_moments_enumeration,
    run_count_table,
    run_prob_enumeration,
    tail_fraction_oracle,
)


def report(tag: str, ok: bool, note: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({note})" if note else ""
    print(f"[acceptance] {tag}: {verdict}{suffix}")


# ---------------------------------------------------------------- criterion 1


class TestC01FlagshipBracket:
    N, L, P = 9000, 3090, Fraction(1, 3)

    def test_exact_tail_five_places(self):
        t0 = time.perf_counter()
        exact = binom_tail_exact(self.N, self.L, self.P)
        elapsed = time.perf_counter() - t0
        ok = round(exact, 5) == 0.02170 and elapsed < 1.0
        report("C1a flagship exact tail = 0.02170, < 1 s", ok,
               f"exact={exact:.7f}, {elapsed:.3f} s")
        assert ok

    def test_bracket_certified_at_matching_depth(self):
        t0 = time.perf_counter()
        bracket = bracket_tail(TailQuery(self.N, self.L, self.P), tol=3e-3)
        elapsed = time.perf_counter() - t0
        exact = binom_tail_exact(self.N, self.L, self.P)
        ok = (
            bracket.k_used == 6
            and bracket.lower <= exact <= bracket.upper
            and 0.02161 <= bracket.lower
            and bracket.upper <= 0.02175
            and elapsed < 1.0
        )
        report(
            "C1b flagship bracket at depth 6 certified inside 0.02161..0.02175",
            ok,
            f"[{bracket.lower:.7f}, {bracket.upper:.7f}], {elapsed:.3f} s",
        )
        assert ok

    @pytest.mark.xfail(
        strict=True,
        reason="the published bounds 0.02161/0.02175 include the slack of the "
        "original five-place hand computation; exact convergent arithmetic at "
        "the same depth yields the strictly tighter enclosure "
        "0.021687..0.021725, so digit-for-digit equality is unattainable",
    )
    def test_bracket_reproduces_published_digits(self):
        bracket = bracket_tail(TailQuery(self.N, self.L, self.P), tol=3e-3)
        ok = (round(bracket.lower, 5), round(bracket.upper, 5)) == (0.02161, 0.02175)
        report("C1c flagship bracket digits equal published bounds", ok,
               "expected failure: hand-rounded historical values")
        assert ok


# ---------------------------------------------------------------- criterion 2


class TestC02PingPong:
    def test_chain_holds_on_thousand_queries(self):
        rng = random.Random(90210)
        t0 = time.perf_counter()
        checked = 0
        violations = 0
        while checked < 1000:
            n = rng.randint(2, 500)
            p = Fraction(rng.randint(1, 99), 100)
            lmin = math.floor(n * p) + 1
            if Fraction(lmin) <= n * p:
                lmin += 1
            if lmin > n - 1:
                continue
            l = rng.randint(lmin, n - 1)
            q = TailQuery(n=n, l=l, p=p)
            S = tail_fraction_oracle(n, l, p) / lead_term_fraction(n, l, p)
            lows, highs = [], []
            terminal = None
            for k, kind, v in convergent_stream(q):
                if k == q.k_terminal and kind == "D":
                    terminal = v
                    continue
                (lows if k % 2 == 0 else highs).append(v)
            ok = all(a < b for a, b in zip(lows, lows[1:]))
            ok &= all(v < S for v in lows)
            ok &= all(a > b for a, b in zip(highs, highs[1:]))
            ok &= all(v > S for v in highs)
            if terminal is not None:
                ok &= terminal == S
            violations += not ok
            checked += 1
        elapsed = time.perf_counter() - t0
        passed = violations == 0 and elapsed < 30.0
        report("C2 ping-pong chain, 1000 exact queries, < 30 s", passed,
               f"{violations} violations, {elapsed:.1f} s")
        assert passed


# ---------------------------------------------------------------- criterion 3


class TestC03CrossRepresentation:
    def test_hypergeometric_form_matches_oracle(self):
        rng = random.Random(314159)
        worst = 0.0
        points = 0
        while points < 200:
            n = rng.randint(2, 2000)
            p = rng.uniform(0.05, 0.9)
            j_lo = min(math.ceil(n * p) + 1, n)
            j = rng.randint(j_lo, n)
            want = binom_tail_exact(n, j - 1, p)
            if want < 1e-305:
                # below the normal float range the representation itself
                # carries < 52 bits, so relative comparison is vacuous
                continue
            got = bahadur_tail(n, j, p)
            worst = max(worst, abs(got - want) / want)
            points += 1
        ok = worst <= 1e-11
        report("C3 closed form vs exact oracle, 200-point grid, 1e-11", ok,
               f"worst rel diff {worst:.2e}")
        assert ok


# ---------------------------------------------------------------- criterion 4


class TestC04ShuffleTable:
    TABLE = {
        2: 2, 4: 4, 6: 3, 8: 6, 10: 10, 12: 12, 14: 4, 16: 8, 18: 18, 20: 6,
        22: 11, 24: 20, 26: 18, 28: 28, 30: 5, 32: 10, 34: 12, 36: 36, 38: 12,
        40: 20, 42: 14, 44: 12, 46: 23, 48: 21, 50: 8, 52: 52,
    }

    def test_all_26_entries_and_identities(self):
        t0 = time.perf_counter()
        ok = True
        for two_n, r in self.TABLE.items():
            ok &= shuffle_order(two_n) == r
            deck = identity = tuple(range(1, two_n + 1))
            for _ in range(r):
                deck = perfect_in_shuffle(deck)
            ok &= deck == identity
        elapsed = time.perf_counter() - t0
        ok &= elapsed < 1.0
        report("C4 shuffle table, all 26 entries + identity, < 1 s", ok,
               f"{elapsed:.3f} s")
        assert ok


# ---------------------------------------------------------------- criterion 5


class TestC05RunsAgreement:
    def test_four_way_agreement_to_n30(self):
        worst = 0.0
        for p in (0.1, 0.3, 0.5, 2 / 3, 0.9):
            for n in range(1, 31):
                for r in range(1, n + 1):
                    spec = RunSpec(n, r, p)
                    vals = [
                        float(run_prob_recursive(spec)),
                        float(run_prob_beta(spec)),
                        float(run_prob_demoivre(spec)),
                        float(run_prob_oracle(spec)),
                    ]
                    worst = max(worst, max(vals) - min(vals))
        ok = worst <= 1e-10
        report("C5a runs four-way agreement, n <= 30, five p values, 1e-10",
               ok, f"worst spread {worst:.2e}")
        assert ok

    def test_dp_equals_enumeration_exactly(self):
        ok = True
        for n in range(1, 21):
            table = run_count_table(n)
            for p in (Fraction(1, 2), Fraction(2, 5)):
                for r in range(1, n + 1):
                    want = run_prob_enumeration(n, r, p, table)
                    ok &= run_prob_oracle(RunSpec(n, r, p)) == want
        report("C5b DP oracle equals full 2^n enumeration exactly, n <= 20", ok)
        assert ok


# ---------------------------------------------------------------- criterion 6


class TestC06LexisExactness:
    CONFIGS = [
        (2, 2), (3, 2), (2, 3), (4, 2), (2, 4), (3, 3), (5, 2), (2, 5),
        (4, 3), (3, 4), (6, 3), (3, 6), (5, 4), (4, 5), (2, 10), (10, 2),
    ]

    def test_enumeration_matches_moment_sum(self):
        ok = True
        worst = Fraction(0)
        for n, s in self.CONFIGS:
            for p in (Fraction(1, 2), Fraction(3, 10)):
                if n * s > 16 and p != Fraction(1, 2):
                    continue  # keep the largest boards to one weighting
                e_mean, e_var = q_hat_moments_enumeration(n, s, p)
                mean, var, bound1, bound2 = moments_Q_hat(n, s, p)
                ok &= e_mean == 1 and mean == 1
                worst = max(worst, abs(e_var - var))
                ok &= abs(e_var - var) <= Fraction(1, 10**12)
                ok &= var < bound1
                if n >= 5:
                    ok &= var < Fraction(2, n - 1)
        report("C6 dispersion moments: enumeration == exact sum (1e-12), "
               "bounds hold", ok, f"worst |diff| {float(worst):.2e}")
        assert ok


# ---------------------------------------------------------------- criterion 7


class TestC07RuinContainment:
    def test_fair_games_and_classical_limit(self):
        rng = random.Random(777)
        games = 0
        ok = True
        for alpha in range(1, 6):
            for beta in range(1, 6):
                p = alpha / (alpha + beta)
                for _ in range(3):
                    a = rng.randint(alpha, 90)
                    b = rng.randint(beta, min(90, 200 - a))
                    if b < beta:
                        continue
                    game = RuinGame(a, b, alpha, beta, p)
                    lower, upper = ruin_bounds_fair(game)
                    y = ruin_exact_chain(game)
                    ok &= lower - 1e-12 <= y <= upper + 1e-12
                    games += 1
        ok &= games >= 50
        worst = 0.0
        for _ in range(20):
            a = rng.randint(1, 60)
            b = rng.randint(1, 60)
            p = rng.uniform(0.15, 0.85)
            y = ruin_exact_chain(RuinGame(a, b, 1, 1, p))
            worst = max(worst, abs(y - classical_ruin(a, b, p)))
        ok &= worst <= 1e-12
        report("C7 ruin: bounds contain chain on fair games; classical match "
               "1e-12", ok, f"{games} fair games, worst classical diff {worst:.2e}")
        assert ok


# ---------------------------------------------------------------- criterion 8


class TestC08LlnValidity:
    def test_tail_below_eta_at_bound(self):
        ok = True
        cases = 0
        for p in (0.1, 0.3, 0.5, 2 / 3):
            for eps in (0.05, 0.1, 0.2, 0.4):
                if p + eps > 1:
                    continue
                for eta in (0.05, 0.1, 0.3):
                    query = LlnQuery(p, eps, eta)
                    N = bernoulli_n_bound(query)
                    if N > 10**5:
                        continue
                    mu = upper_count(N, query)
                    tail = binom_tail_exact(N, mu - 1, p)
                    ok &= tail < eta
                    cases += 1
        ok &= cases >= 20
        for eps in (0.05, 0.1, 0.25, 0.5):
            for eta in (0.05, 0.2, 0.5):
                direct = math.floor((2 / eps**2) * math.log(4 / (eps**2 * eta)) + 2) + 1
                ok &= cantelli_n(eps, eta) == direct
        report("C8 sample-size bounds: exact tail < eta at N; direct formula "
               "integer match", ok, f"{cases} grid points")
        assert ok


# ---------------------------------------------------------------- criterion 9


class TestC09BernsteinValidity:
    def test_mc_tails_below_bound(self):
        ok = True
        details = []
        for n in (10, 100, 1000):
            sigma = math.sqrt(n / 3.0)
            for mult in (1.5, 2.2):
                t = mult * sigma
                p_hat, se = mc_abs_sum_tail(n, t, seed=2026_08_11, samples=10**6)
                bound = bernstein_bound(BernsteinInput(B_n_sq=n / 3.0, t=t, M=1.0))
                ok &= p_hat <= bound + 3 * se
                details.append(f"n={n},t={t:.1f}: {p_hat:.4f}<={bound:.4f}")
        report("C9 MC tails (1e6 samples) never exceed the bound + 3 SE", ok,
               "; ".join(details[:3]) + " ...")
        assert ok


# --------------------------------------------------------------- criterion 10


class TestC10Partitions:
    def test_recurrence_vs_dp_and_asymptotics(self):
        dp = partition_table_dp(500)
        ok = all(partition_exact(n) == dp[n] for n in range(0, 501))
        for n in range(10, 501):
            exact = dp[n]
            simple, refined = partition_uspensky(n)
            ok &= abs(refined - exact) < abs(simple - exact)
            if n >= 100:
                ok &= abs(refined / exact - 1.0) < 0.01
        report("C10 partitions: recurrence == DP to 500; refined formula "
               "strictly closer, within 1% from 100", ok)
        assert ok


# --------------------------------------------------------------- criterion 11


class TestC11Beatty:
    def test_fifty_quadratic_irrationals_tile(self):
        rng = random.Random(1597)
        non_squares = [2, 3, 5, 6, 7, 10, 11, 13, 17, 19, 23, 29]
        checked = 0
        ok = True
        while checked < 50:
            d = rng.choice(non_squares)
            x = Fraction(rng.randint(0, 8), rng.randint(1, 4))
            y = Fraction(rng.randint(1, 6), rng.randint(1, 6))
            alpha = QuadSurd(x, y, d)
            if not 1.000001 < float(alpha) < 50:
                continue
            rep = beatty_pair_check(alpha, 10**5)
            ok &= rep.ok
            checked += 1
        report("C11a complementary spectra tile 1..1e5 for 50 quadratic "
               "irrationals", ok)
        assert ok

    def test_triples_always_produce_witness(self):
        rng = random.Random(2584)
        ok = True
        for _ in range(25):
            u = rng.uniform(0.2, 0.8)
            v = rng.uniform(0.3, 0.7)
            inv1 = u / math.sqrt(2)
            inv2 = (1 - inv1) * v
            inv3 = 1 - inv1 - inv2
            res = triple_spectrum_search([1 / inv1, 1 / inv2, 1 / inv3], 10**4)
            ok &= (not res.inconclusive) and res.witness is not None
            ok &= res.witness <= 10**4
        report("C11b every sampled unit-sum triple fails below 1e4", ok)
        assert ok
