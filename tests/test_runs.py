"""Run probabilities: four methods against enumeration and each other."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certiprob.runs import (
    CancellationError,
    RunSpec,
    gf_series_coefficients,
    run_prob_beta,
    run_prob_demoivre,
    run_prob_oracle,
    run_prob_recursive,
)

from _oracles import run_count_table, run_prob_enumeration

ALL_METHODS = (run_prob_recursive, run_prob_beta, run_prob_demoivre, run_prob_oracle)


class TestKnownValues:
    def test_at_least_one_success(self):
        spec = RunSpec(3, 1, 0.5)
        for fn in ALL_METHODS:
            assert float(fn(spec)) == pytest.approx(1 - 0.5**3)

    def test_all_tosses_must_succeed(self):
        for p in (0.5, 0.7, Fraction(2, 7)):
            spec = RunSpec(5, 5, p)
            for fn in ALL_METHODS:
                assert float(fn(spec)) == pytest.approx(float(p) ** 5, rel=1e-13)

    def test_enumerated_half(self):
        # 8 of the 16 length-4 sequences contain two consecutive successes
        assert run_prob_enumeration(4, 2, Fraction(1, 2)) == Fraction(1, 2)
        spec = RunSpec(4, 2, 0.5)
        for fn in ALL_METHODS:
            assert float(fn(spec)) == pytest.approx(0.5, abs=1e-14)

    def test_cross_method_tight(self):
        spec = RunSpec(10, 3, 0.3)
        values = [float(fn(spec)) for fn in ALL_METHODS]
        for v in values[1:]:
            assert v == pytest.approx(values[0], abs=1e-12)

    def test_series_division_agrees(self):
        spec = RunSpec(8, 2, 2 / 3)
        assert run_prob_demoivre(spec) == pytest.approx(
            run_prob_recursive(spec), abs=1e-10
        )


class TestFourWayAgreement:
    def test_moderate_grid(self):
        for p in (0.3, 0.5, Fraction(2, 3)):
            for n in range(1, 13):
                for r in range(1, n + 1):
                    spec = RunSpec(n, r, p)
                    values = [float(fn(spec)) for fn in ALL_METHODS]
                    for v in values[1:]:
                        assert abs(v - values[0]) <= 1e-10

    def test_exact_agreement_with_enumeration(self):
        for n in (6, 9, 11):
            table = run_count_table(n)
            for p in (Fraction(1, 2), Fraction(2, 5)):
                for r in range(1, n + 1):
                    spec = RunSpec(n, r, p)
                    want = run_prob_enumeration(n, r, p, table)
                    assert run_prob_oracle(spec) == want
                    assert run_prob_demoivre(spec) == want


class TestMonotonicity:
    def test_in_n_r_p(self):
        rng = random.Random(8)
        for _ in range(15):
            n = rng.randint(2, 25)
            r = rng.randint(1, n)
            p = rng.uniform(0.1, 0.9)
            y = run_prob_recursive(RunSpec(n, r, p))
            if n > r:
                assert run_prob_recursive(RunSpec(n - 1, r, p)) <= y + 1e-14
            if r > 1:
                assert run_prob_recursive(RunSpec(n, r - 1, p)) >= y - 1e-14
            assert run_prob_recursive(RunSpec(n, r, min(p + 0.05, 0.95))) >= y - 1e-14


class TestGeneratingFunction:
    def test_series_matches_recursion(self):
        # coefficient m of the no-run generating function equals z_m
        for r, p in ((1, Fraction(1, 2)), (2, Fraction(1, 2)), (3, Fraction(3, 10))):
            coeffs = gf_series_coefficients(r, p, 51)
            for m in range(1, 51):
                if m < r:
                    assert coeffs[m] == 1
                else:
                    z_m = 1 - run_prob_recursive(RunSpec(m, r, p))
                    assert coeffs[m] == z_m

    def test_single_term_consistency(self):
        # k = 0 term alone: beta = 1, so z_r = 1 - p^r
        spec = RunSpec(3, 3, Fraction(9, 10))
        assert run_prob_beta(spec) == Fraction(9, 10) ** 3


class TestLargeN:
    def test_linear_time_path(self):
        # sanity at a size where only the recursion is practical
        y = run_prob_recursive(RunSpec(10**5, 12, 0.5))
        assert 0 < y < 1
        # longer sequences can only make a run more likely
        assert run_prob_recursive(RunSpec(10**5 + 10, 12, 0.5)) >= y


class TestValidation:
    def test_spec_domain(self):
        with pytest.raises(ValueError):
            RunSpec(3, 4, 0.5)
        with pytest.raises(ValueError):
            RunSpec(3, 0, 0.5)
        with pytest.raises(ValueError):
            RunSpec(3, 2, 1.0)


class TestFloatPaths:
    def test_series_division_in_floats(self):
        # all terms positive: the float series stays at rounding level
        want = float(run_prob_oracle(RunSpec(2000, 3, Fraction(9, 10))))
        assert run_prob_demoivre(RunSpec(2000, 3, 0.9)) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n, r, p", [(2000, 3, 0.9), (5000, 10, 0.7)])
    def test_closed_form_refuses_cancelled_floats(self, n, r, p):
        # |terms| sum to about 1e51 at (2000, 3, 0.9); at (5000, 10, 0.7) a
        # binomial coefficient alone exceeds the float range
        with pytest.raises(CancellationError):
            run_prob_beta(RunSpec(n, r, p))

    def test_closed_form_exact_where_floats_fail(self):
        spec = RunSpec(2000, 3, Fraction(9, 10))
        assert run_prob_beta(spec) == run_prob_oracle(spec)


@st.composite
def run_cases(draw):
    """(n, r, a) for p = a/100 near (1/n)**(1/r), where a run of r turns
    up in n tosses with odds near even, so y_n sits away from 0 and 1.
    The exact oracle costs about n*n*r, which caps r at large n."""
    n = round(10 ** draw(st.floats(1, 3.4)))
    r = draw(st.integers(1, max(1, min(12, 10**7 // (n * n)))))
    a = round(100 * n ** (-1 / r)) + draw(st.integers(-5, 5))
    return n, r, min(max(a, 1), 99)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(run_cases())
def test_float_paths_match_the_exact_oracle(case):
    n, r, a = case
    want = float(run_prob_oracle(RunSpec(n, r, Fraction(a, 100))))
    spec = RunSpec(n, r, a / 100)
    assert run_prob_recursive(spec) == pytest.approx(want, abs=1e-12)
    assert run_prob_demoivre(spec) == pytest.approx(want, abs=1e-12)
