"""Continued-fraction bracket machinery and the hypergeometric closed form."""

import math
import random
import sys
from fractions import Fraction

import pytest

from certiprob import binom_tail
from certiprob.binom_tail import (
    MethodNotApplicableError,
    NumericDegeneracyError,
    TailBracket,
    TailQuery,
    bahadur_tail,
    bracket_tail,
    left_tail_bracket,
)
from certiprob.numerics import LOG_PMF_ERROR_ULPS, binom_tail_exact, log_binom_pmf

from _oracles import (
    bracket_tail_halfsteps, convergent_stream, lead_term_fraction, tail_fraction_oracle,
    tail_interval_mpmath,
)


def random_valid_query(rng, n_max=300, exact=True):
    while True:
        n = rng.randint(2, n_max)
        p = Fraction(rng.randint(1, 99), 100)
        lmin = math.floor(n * p) + 1
        if Fraction(lmin) <= n * p:
            lmin += 1
        if lmin > n - 1:
            continue
        l = rng.randint(lmin, n - 1)
        return TailQuery(n=n, l=l, p=p if exact else float(p))


class TestTailQuery:
    def test_rejects_threshold_at_or_below_mean(self):
        with pytest.raises(MethodNotApplicableError):
            TailQuery(10, 5, 0.5)  # l == n*p exactly
        with pytest.raises(MethodNotApplicableError):
            TailQuery(10, 3, 0.5)

    def test_zero_trials_refused(self):
        with pytest.raises(ValueError, match="n must be positive"):
            TailQuery(0, 0, 0.5)

    def test_integer_mean_test_at_its_edges(self):
        # l = np and l = np - 1 exactly, with float and Fraction p
        for n, p in ((10, 0.5), (12, 0.25), (9, Fraction(1, 3)), (7000, Fraction(3, 7))):
            np_ = int(n * Fraction(p))
            for l in (np_ - 1, np_):
                with pytest.raises(MethodNotApplicableError):
                    TailQuery(n, l, p)
            assert TailQuery(n, np_ + 1, p).l == np_ + 1
        # a float p whose n*p rounds to an integer that the exact ratio
        # stays below (0.7 is 0.69999..., 10 * 0.7 rounds to 7.0) or above
        # (0.1 is 0.10000...0555, 10 * 0.1 rounds to 1.0)
        assert TailQuery(10, 7, 0.7).l == 7
        with pytest.raises(MethodNotApplicableError):
            TailQuery(10, 1, 0.1)

    def test_integer_mean_test_agrees_with_fractions(self):
        rng = random.Random(160)
        for _ in range(2000):
            n = rng.choice((rng.randint(1, 50), rng.randint(1, 10**7)))
            p = rng.choice((rng.random(), Fraction(rng.randint(1, 999), 1000),
                            Fraction(rng.randint(1, 6), 7), 2.0 ** -rng.randint(1, 60)))
            if not 0 < p < 1:
                continue
            mean = n * Fraction(p)
            for l in {math.floor(mean) + d for d in (-1, 0, 1, 2)}:
                if not 0 <= l < n:
                    continue
                try:
                    TailQuery(n, l, p)
                    raised = False
                except MethodNotApplicableError:
                    raised = True
                assert raised == (l <= mean), (n, l, p)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            TailQuery(10, 10, 0.5)
        with pytest.raises(ValueError):
            TailQuery(10, -1, 0.1)
        with pytest.raises(ValueError):
            TailQuery(10, 7, 1.0)


def cf_pair(q, k):
    """(c_k, d_k) from the printed formula, in exact rationals:

    c_k = (n-k-l)(l+k) / [(l+2k-1)(l+2k)] * p/q
    d_k = k(n+k)      / [(l+2k)(l+2k+1)] * p/q
    """
    n, l, p = q.n, q.l, Fraction(q.p)
    odds = p / (1 - p)
    c = Fraction((n - k - l) * (l + k), (l + 2 * k - 1) * (l + 2 * k)) * odds
    d = Fraction(k * (n + k), (l + 2 * k) * (l + 2 * k + 1)) * odds
    return c, d


def nested_c_convergent(q, depth):
    """C_depth evaluated bottom-up from its nested definition (independent
    of the forward recursion)."""
    acc = Fraction(0)
    for k in range(depth, 0, -1):
        c, d = cf_pair(q, k)
        acc = c if k == depth else c / (1 + d / (1 - acc))
    # acc now equals the full nested tail starting at c_1
    return 1 / (1 - acc)


def nested_d_convergent(q, depth):
    """D_depth from its nested definition, bottom-up."""
    c, d = cf_pair(q, depth)
    acc = c / (1 + d)
    for k in range(depth - 1, 0, -1):
        c, d = cf_pair(q, k)
        acc = c / (1 + d / (1 - acc))
    return 1 / (1 - acc)


class TestConvergentRecursion:
    def test_printed_values(self):
        c1, d1 = cf_pair(TailQuery(10, 6, Fraction(1, 2)), 1)
        assert c1 == Fraction(3 * 7, 7 * 8)  # 0.375
        assert d1 == Fraction(1 * 11, 8 * 9)  # 11/72

    def test_first_convergent_formula(self):
        q = TailQuery(10, 6, Fraction(1, 2))
        c1, d1 = cf_pair(q, 1)
        stream = list(convergent_stream(q))
        assert stream[0] == (1, "C", 1 / (1 - c1))
        assert stream[1] == (1, "D", 1 / (1 - c1 / (1 + d1)))

    def test_nested_evaluation_matches_recursion(self):
        q = TailQuery(10, 6, Fraction(1, 2))
        stream = {(k, kind): v for k, kind, v in convergent_stream(q)}
        for depth in (1, 2, 3):
            assert stream[(depth, "C")] == nested_c_convergent(q, depth)
            assert stream[(depth, "D")] == nested_d_convergent(q, depth)

    def test_zero_denominator_trap(self):
        # l = 3 sits below the mean 4.5, so the query is built past its
        # validation; there c_1 = 1 exactly and B_2 = B_1 - c_1 B_0 = 0
        for p in (Fraction(1, 2), 0.5):
            q = object.__new__(TailQuery)
            for name, value in (("n", 9), ("l", 3), ("p", p)):
                object.__setattr__(q, name, value)
            assert cf_pair(q, 1)[0] == 1
            with pytest.raises(NumericDegeneracyError, match=r"is 0 at depth 1$"):
                next(convergent_stream(q))
            with pytest.raises(NumericDegeneracyError, match=r"is 0 at depth 1$"):
                bracket_tail(q)

    # (n, l, p, the first half-step where the unrescaled A and B are both
    # below 2**-512, the rescales of the walk as (direction, depth))
    RESCALED_WALKS = [
        # B shrinks about 100x a depth: A and B first fall below 2**-512
        # right after C_146, where a test after every half-step fired; the
        # walk rescales after D_146
        (100000, 31000, 0.3, 292, [("up", 146)]),
        # below 2**-512 right after C_506, and back up toward the terminal
        # D_1876: the walk rescales up after D_508 and down after D_1871
        (9692, 7815, 0.8, 1012, [("up", 508), ("down", 1871)]),
        # the float walk bracket_tail runs for a Fraction p, on p/q rounded once
        (10000, 3100, Fraction(3, 10), 648, [("up", 324), ("down", 6881)]),
    ]

    def test_rescaling_preserves_ratios_bitwise(self):
        # the plain float recursion, never rescaled, while its A and B stay
        # normal: every C_k and D_k of the rescaled walk must have its bits,
        # as a power of two scales exactly
        for n, l, p, first_low, moves in self.RESCALED_WALKS:
            num, den = Fraction(p).as_integer_ratio()
            odds = num / (den - num)
            A_prev, A, B_prev, B = 0.0, 1.0, 1.0, 1.0
            plain, low, scale, seen = [], [], 0, []
            for m in range(2, 2 * (n - l)):
                k = m >> 1
                if m & 1:
                    coeff = k * (n + k) * odds / ((l + m - 1) * (l + m))
                else:
                    coeff = -((n - k - l) * (l + k) * odds / ((l + m - 1) * (l + m)))
                A_prev, A = A, A + coeff * A_prev
                B_prev, B = B, B + coeff * B_prev
                top = max(abs(A), abs(B))
                if not (2.0**-1000 < min(abs(A), abs(B)) and top < 2.0**1000):
                    break
                plain.append(A / B)
                if top < 2.0**-512:
                    low.append(m)
                if m & 1:  # the walk's test after D_k, on A and B as it holds them
                    held = math.ldexp(top, 512 * scale)
                    if held > 2.0**512:
                        scale -= 1
                        seen.append(("down", k))
                    elif held < 2.0**-512:
                        scale += 1
                        seen.append(("up", k))
            assert (low[0], seen) == (first_low, moves)
            walk = binom_tail._convergents(n, l, (len(plain) + 1) // 2, odds)
            assert [v for _, c, d in walk for v in (c, d)][:len(plain)] == plain

    def test_walk_to_terminal_depth_without_underflow(self):
        # B shrinks about 100x a depth here; without the upward rescale it
        # reached 0 at k=348 and the walk raised NumericDegeneracyError
        q = TailQuery(100000, 31000, 0.3)
        last = None
        for last in convergent_stream(q):
            pass
        k, kind, value = last
        assert (k, kind) == (q.k_terminal, "D")
        tail = value * math.exp(bracket_tail(q, tol=1e-2).lead_term_log)
        exact = binom_tail_exact(q.n, q.l, q.p)
        assert abs(tail - exact) <= 1e-12 * exact


class TestBracketTail:
    def test_flagship_certified_at_textbook_depth(self):
        query = TailQuery(9000, 3090, Fraction(1, 3))
        bracket = bracket_tail(query, tol=3e-3)
        exact = binom_tail_exact(9000, 3090, Fraction(1, 3))
        assert bracket.k_used == 6
        assert bracket.lower <= exact <= bracket.upper
        # our certified bracket sits strictly inside the classical
        # hand-computed enclosure 0.02161 < P < 0.02175
        assert 0.02161 < bracket.lower and bracket.upper < 0.02175

    def test_contains_oracle_on_thousand_queries(self):
        rng = random.Random(2718)
        for _ in range(1000):
            q = random_valid_query(rng, n_max=250, exact=False)
            bracket = bracket_tail(q, tol=rng.choice([1e-2, 1e-4, 1e-8]))
            exact = binom_tail_exact(q.n, q.l, q.p)
            assert bracket.lower <= exact <= bracket.upper

    def test_full_depth_collapses_onto_exact(self):
        q = TailQuery(20, 15, 0.5)
        bracket = bracket_tail(q, tol=1e-300, k_max=q.k_terminal)
        exact = binom_tail_exact(20, 15, 0.5)
        assert bracket.width <= 1e-12
        assert abs(bracket.lower - exact) <= 1e-12
        assert abs(bracket.upper - exact) <= 1e-12

    def test_not_converged_flag(self):
        q = TailQuery(9000, 3090, Fraction(1, 3))
        bracket = bracket_tail(q, tol=1e-12, k_max=3)
        assert not bracket.converged
        assert bracket.k_used == 3
        assert bracket.lower < bracket.upper

    def test_converged_means_width_within_tol(self):
        # the guard is applied before the tol test, so converged brackets
        # meet tol on the endpoints they return
        bracket = bracket_tail(TailQuery(9000, 2800, 0.3), tol=1e-12)
        assert bracket.converged
        assert bracket.upper - bracket.lower <= 1e-12 * bracket.upper
        lo, hi = tail_interval_mpmath(9000, 2800, Fraction(0.3))
        assert bracket.lower <= lo and hi <= bracket.upper

    def test_encloses_reference_at_a_million_trials(self):
        n, p = 10**6, 0.3
        for l, tol in ((300700, 1e-8), (302000, 1e-12)):
            bracket = bracket_tail(TailQuery(n, l, p), tol=tol)
            lo, hi = tail_interval_mpmath(n, l, Fraction(p))
            assert bracket.converged
            assert bracket.lower <= lo and hi <= bracket.upper

    def test_tail_below_the_normal_float_range(self):
        # the lead term underflows to 0 (lead_term_log -865.5), or the tail
        # is subnormal, 2.7994e-319 (lead_term_log -733.7), where rounding
        # is absolute: only [0, sys.float_info.min] is certain
        for l in (1500, 1429):
            bracket = bracket_tail(TailQuery(2000, l, 0.3))
            lo, hi = tail_interval_mpmath(2000, l, Fraction(0.3))
            assert (bracket.lower, bracket.upper) == (0.0, sys.float_info.min)
            assert not bracket.converged
            assert bracket.lower <= lo and hi <= bracket.upper

    def test_hopeless_tolerance_stops_at_the_rounding_floor(self):
        # near the mean the guard already exceeds tol/(2 - tol) at depth 1;
        # the walk used to run all 699,998 depths to no avail, and now
        # stops once the bracket has closed to its rounding floor
        q = TailQuery(10**6, 300001, 0.3)
        bracket = bracket_tail(q, tol=1e-12)
        assert not bracket.converged
        assert bracket.k_used <= 1000
        lo, hi = tail_interval_mpmath(q.n, q.l, Fraction(0.3))
        assert bracket.lower <= lo and hi <= bracket.upper
        # every tol out of reach gives that one floor bracket
        assert bracket_tail(q, tol=1e-15) == bracket_tail(q, tol=1e-10) == bracket

    def test_hopeless_tolerance_is_no_wider_than_a_looser_one(self):
        for q in (TailQuery(10**6, 300001, 0.3), TailQuery(10**6, 300500, 0.3),
                  TailQuery(2000, 700, 0.3), TailQuery(20, 15, 0.5)):
            floor = bracket_tail(q, tol=1e-15)
            assert not floor.converged
            for tol in (1e-8, 1e-12):
                assert floor.width <= bracket_tail(q, tol=tol).width

    def test_tol_at_the_edge_of_reach_still_converges(self):
        # the guard passes tol/(2 - tol) by under 2 units of 2**-53 at the
        # C_k that fails tol, and D_k then meets it: the early stop's
        # 8-unit margin on tol keeps these converged, as the full walk is
        cases = [
            (32, 7, 0.01, "0x1.78c4efe44a06dp-43"),
            (114, 70, 0.33, "0x1.bca046fb11c35p-43"),
            (1018, 956, 0.81, "0x1.3d7c2a1ea1052p-41"),
            (60, 12, 0.14, "0x1.33293169f12a9p-44"),
            (165, 30, 0.04124649670941663, "0x1.efb972c66dc56p-43"),
        ]
        for n, l, p, tol_hex in cases:
            q, tol = TailQuery(n, l, p), float.fromhex(tol_hex)
            bracket = bracket_tail(q, tol=tol)
            assert bracket.converged
            assert bracket == bracket_tail(q, tol=tol, k_max=q.k_terminal)

    def test_explicit_depth_cap_walks_past_hopeless_tol(self):
        q = TailQuery(2000, 700, 0.3)
        bracket = bracket_tail(q, tol=1e-15, k_max=500)
        assert bracket.k_used == 500 and not bracket.converged

    def test_depth_cap_below_one(self):
        # the lead term alone is no bracket while the fraction has depth
        with pytest.raises(ValueError):
            bracket_tail(TailQuery(100, 40, 0.3), k_max=0)
        bracket = bracket_tail(TailQuery(10, 9, 0.5), k_max=0)
        assert bracket.converged and bracket.lower <= 0.5**10 <= bracket.upper

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            bracket_tail(TailQuery(10, 6, 0.5), tol=0.0)

    def test_nan_tol_refused_before_the_walk(self):
        # nan fails no <= test: it once switched off both stops and walked
        # all 13,899 depths to return converged=False
        with pytest.raises(ValueError, match="tol must be positive, got nan"):
            bracket_tail(TailQuery(20000, 6100, 0.3), tol=math.nan)
        assert bracket_tail(TailQuery(20000, 6100, 0.3), tol=math.inf).converged

    @pytest.mark.parametrize("n, l, p, shown", [
        (10, 5, 0.3, "l=5, n*p=3"),
        (10, 4, 0.5, "l=4, n*p=5"),  # l = np - 1 exactly
        (10, 2, Fraction(3, 10), "l=2, n*p=3"),
    ])
    def test_left_tail_names_the_callers_threshold(self, n, l, p, shown):
        # checked before the flip, so the message is about the caller's l
        with pytest.raises(MethodNotApplicableError) as info:
            left_tail_bracket(n, l, p)
        assert f"needs l < n*p - 1 ({shown})" in str(info.value)
        assert "binom_tail_exact" in str(info.value)

    @pytest.mark.parametrize("l", [-1, 10, 11])
    def test_left_tail_threshold_out_of_range(self, l):
        with pytest.raises(ValueError, match=f"got l={l}, n=10$"):
            left_tail_bracket(10, l, 0.5)

    def test_left_tail_helper(self):
        # P(S_100 <= 20) with p = 0.5: left of the mean; the reference is
        # computed in exact rationals (1 - tail loses every digit in floats)
        bracket = left_tail_bracket(100, 20, Fraction(1, 2), tol=1e-10)
        exact_left = float(1 - tail_fraction_oracle(100, 20, Fraction(1, 2)))
        assert bracket.lower <= exact_left <= bracket.upper


def depth_walk_queries(rng, count):
    """(query, tol, k_max) for the depth walk's bit-for-bit test: float and
    Fraction p, n up to 1e5, l from just past the mean to n - 1, tol from
    1e-2 to 1e-14 (deep in a large n's tail some are out of reach), k_max
    None or 1 to 7."""
    out = []
    while len(out) < count:
        n = round(10 ** rng.uniform(0.5, 5))
        if rng.random() < 0.5:
            p = rng.uniform(0.01, 0.99)
        else:
            den = rng.randint(2, 1000)
            p = Fraction(rng.randint(1, den - 1), den)
        mean = n * Fraction(p)
        if rng.random() < 0.1:
            l = n - 1
        else:
            sd = math.sqrt(n * float(p) * (1 - float(p)))
            l = min(math.floor(mean + rng.uniform(0, 12) * sd) + 1, n - 1)
        if not mean < l < n:
            continue
        tol = 10 ** rng.uniform(-14, -2)
        k_max = rng.choice((None, None, None, rng.randint(1, 7)))
        out.append((TailQuery(n, l, p), tol, k_max))
    return out


class TestDepthWalk:
    """bracket_tail takes a depth per step; the half-step walk pins its bits."""

    def test_matches_the_half_step_walk_bit_for_bit(self):
        stops, kinds_of_p, out_of_reach = set(), set(), 0
        for q, tol, k_max in depth_walk_queries(random.Random(26), 2400):
            got = bracket_tail(q, tol=tol, k_max=k_max)
            want, kind = bracket_tail_halfsteps(q, tol=tol, k_max=k_max)
            assert type(got) is TailBracket
            assert repr(tuple(got)) == repr(tuple(want)), (q, tol, k_max)
            stops.add((kind, got.converged, k_max is None, q.k_terminal == 0))
            kinds_of_p.add(type(q.p))
            out_of_reach += k_max is None and not got.converged and got.upper > sys.float_info.min
        assert kinds_of_p == {float, Fraction} and out_of_reach
        # converged stops after C_k and after D_k; unconverged ones at a cap
        # (always a D) and, tol out of reach, after C_k and after D_k; and
        # the depth-0 terminal at l = n - 1
        for stop in (("C", True, True, False), ("D", True, True, False),
                     ("D", False, False, False), ("C", False, True, False),
                     ("D", False, True, False), ("D", True, True, True)):
            assert stop in stops, stop

    @pytest.mark.parametrize("p", [0.3, Fraction(3, 10)])
    def test_stream_alternates_and_ends_at_the_terminal(self, p):
        for n, l in ((20, 15), (60, 30), (400, 150)):
            q = TailQuery(n, l, p)
            stream = [(k, kind) for k, kind, _ in convergent_stream(q)]
            expect = [(k, kind) for k in range(1, q.k_terminal + 1) for kind in "CD"]
            assert stream == expect
            assert stream[-1] == (q.k_terminal, "D")

    def test_left_bracket_calls_bracket_tail_once(self, monkeypatch):
        calls = []
        original = binom_tail.bracket_tail

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(binom_tail, "bracket_tail", spy)
        bracket = left_tail_bracket(3158, 1220, 0.39685706332926396, tol=1e-6)
        assert len(calls) == 1 and bracket.converged

    def test_tail_bracket_is_an_immutable_record(self):
        a = TailBracket(0.25, 0.75, 3, -1.5)
        assert a.converged is True
        assert a == TailBracket(0.25, 0.75, 3, -1.5, True)
        assert a != TailBracket(0.25, 0.75, 3, -1.5, False)
        assert a.width == 0.5
        for field in ("lower", "converged"):
            with pytest.raises(AttributeError):
                setattr(a, field, 0.0)


class TestBahadurTail:
    def test_all_successes_reduces_to_power(self):
        # the series telescopes: q * sum p^k supplies exactly 1/q
        for n, p in ((5, 0.4), (12, 0.9), (3, Fraction(2, 7))):
            assert bahadur_tail(n, n, p) == pytest.approx(float(p) ** n, rel=1e-13)

    def test_flagship_five_places(self):
        assert round(bahadur_tail(9000, 3091, Fraction(1, 3)), 5) == 0.02170

    def test_matches_exact_oracle(self):
        got = bahadur_tail(12, 7, 0.3)
        want = binom_tail_exact(12, 6, 0.3)
        assert abs(got - want) <= 1e-12 * want

    def test_matches_exact_on_grid(self):
        rng = random.Random(64)
        for _ in range(40):
            n = rng.randint(2, 800)
            p = rng.uniform(0.05, 0.9)
            j = rng.randint(min(math.ceil(n * p) + 1, n), n)
            got = bahadur_tail(n, j, p)
            want = binom_tail_exact(n, j - 1, p)
            assert abs(got - want) <= 1e-11 * want

    @pytest.mark.parametrize("n, j, p", [(3000, 500, 0.5), (5000, 1000, 0.4), (2000, 100, 0.3)])
    def test_rescaled_sum_within_lead_term_bound(self, n, j, p):
        # j far below the mean: the lead term is below 2**-512 and the
        # partial sums pass 2**512, so the series is rescaled on the way
        lead_log = log_binom_pmf(n, j, p)
        assert lead_log < -512 * math.log(2)
        lo, hi = tail_interval_mpmath(n, j - 1, p)
        bound = (LOG_PMF_ERROR_ULPS * abs(lead_log) + 16) * 2.0**-53
        got = bahadur_tail(n, j, p)
        assert float(lo) * (1 - bound) <= got <= float(hi) * (1 + bound)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bahadur_tail(10, 0, 0.5)
        with pytest.raises(ValueError):
            bahadur_tail(10, 11, 0.5)

    def test_not_converged_error(self, monkeypatch):
        from certiprob import binom_tail
        from certiprob.binom_tail import SeriesNotConvergedError

        # p near 1 with j far below the mean: terms grow for thousands of
        # steps, so a tiny budget must trip the explicit failure
        monkeypatch.setattr(binom_tail, "BAHADUR_MAX_TERMS", 10)
        with pytest.raises(SeriesNotConvergedError, match="after 10 terms"):
            bahadur_tail(50, 1, 0.99)


class TestPingPongChain:
    def test_interleaving_exact_small_sample(self):
        rng = random.Random(1414)
        for _ in range(25):
            q = random_valid_query(rng, n_max=120)
            lead = lead_term_fraction(q.n, q.l, q.p)
            S = tail_fraction_oracle(q.n, q.l, q.p) / lead
            conv = {(k, kind): v for k, kind, v in convergent_stream(q)}
            terminal = conv.pop((q.k_terminal, "D"), None)
            # even side climbs toward S: C_2 < D_2 < C_4 < D_4 < ... < S
            lows = [conv[(k, kind)]
                    for k in range(2, q.k_terminal + 1, 2)
                    for kind in ("C", "D") if (k, kind) in conv]
            assert all(a < b for a, b in zip(lows, lows[1:]))
            assert all(v < S for v in lows)
            # odd side descends toward S: ... < D_3 < C_3 < D_1 < C_1
            highs = [conv[(k, kind)]
                     for k in range(1, q.k_terminal + 1, 2)
                     for kind in ("C", "D") if (k, kind) in conv]
            chain = list(reversed(highs))  # now ordered outward from S
            prev = S
            for v in chain:
                assert prev < v
                prev = v
            if terminal is not None:
                assert terminal == S  # D_{n-l-1} = S exactly
