"""Tail bound evaluator, moment checker, and the seeded MC harness."""

import math
import tracemalloc

import pytest

from certiprob import concentration
from certiprob.concentration import (
    BernsteinInput,
    bernstein_bound,
    mc_abs_sum_tail,
    moment_condition_check,
)


class TestBernsteinBound:
    def test_zero_threshold_gives_two(self):
        assert bernstein_bound(BernsteinInput(B_n_sq=4.0, t=0.0, c=1.0)) == 2.0

    def test_monotonicities(self):
        ts = [0.0, 0.5, 1.0, 2.0, 5.0, 20.0]
        vals = [bernstein_bound(BernsteinInput(B_n_sq=3.0, t=t, c=0.5)) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        bs = [bernstein_bound(BernsteinInput(B_n_sq=v, t=4.0, c=0.5))
              for v in (0.5, 1.0, 4.0, 10.0)]
        assert all(a < b for a, b in zip(bs, bs[1:]))
        cs = [bernstein_bound(BernsteinInput(B_n_sq=3.0, t=4.0, c=c))
              for c in (0.1, 0.5, 2.0)]
        assert all(a < b for a, b in zip(cs, cs[1:]))

    def test_range(self):
        for t in (0.0, 1.0, 50.0):
            v = bernstein_bound(BernsteinInput(B_n_sq=2.0, t=t, c=0.3))
            assert 0.0 < v <= 2.0
        # far out the exponential legitimately underflows, never negative
        assert bernstein_bound(BernsteinInput(B_n_sq=2.0, t=1e3, c=0.3)) >= 0.0

    def test_uniform_bound_sets_c(self):
        inp = BernsteinInput(B_n_sq=100 / 3, t=20.0, M=1.0)
        assert inp.c == pytest.approx(1 / 3, abs=1e-16)
        assert bernstein_bound(inp) == pytest.approx(2 * math.exp(-5.0), rel=1e-12)

    def test_conflicting_c_and_m(self):
        with pytest.raises(ValueError):
            BernsteinInput(B_n_sq=1.0, t=1.0, c=0.5, M=1.0)
        BernsteinInput(B_n_sq=1.0, t=1.0, c=1 / 3, M=1.0)  # consistent pair is fine

    @pytest.mark.parametrize("growth", [{"c": 1.0}, {"M": 1.0}])
    def test_infinite_threshold_gives_the_limit(self, growth):
        # the exponent -t^2 / (2 B_n^2 + 2 c t) is -inf/inf at t = inf
        assert bernstein_bound(BernsteinInput(B_n_sq=1.0, t=math.inf, **growth)) == 0.0

    def test_overflowing_threshold(self):
        # t^2 overflows: 4e308 / (2 + 1.6e308) is 2.5
        inp = BernsteinInput(B_n_sq=1.0, t=2e154, c=4e153)
        assert bernstein_bound(inp) == pytest.approx(2 * math.exp(-2.5), rel=1e-12)
        assert bernstein_bound(BernsteinInput(B_n_sq=1.0, t=1e155, M=1.0)) == 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            BernsteinInput(B_n_sq=0.0, t=1.0, c=1.0)
        with pytest.raises(ValueError):
            BernsteinInput(B_n_sq=1.0, t=-1.0, c=1.0)
        with pytest.raises(ValueError):
            BernsteinInput(B_n_sq=1.0, t=1.0)


class TestNanRefused:
    """Each range check is written so that nan fails it."""

    @pytest.mark.parametrize("field", ["B_n_sq", "t", "c", "M"])
    def test_bernstein_input_field(self, field):
        fields = {"B_n_sq": 1.0, "t": 1.0, "c": 1 / 3, "M": 1.0, field: math.nan}
        with pytest.raises(ValueError, match=f"^{field} must be"):
            BernsteinInput(**fields)

    def test_moment_check_growth_constant(self):
        with pytest.raises(ValueError, match="c must be positive"):
            moment_condition_check([1.0], math.nan, lambda j, k: 1e300)

    def test_moment_check_variance(self):
        with pytest.raises(ValueError, match=r"sigma_sq\[1\] must be positive"):
            moment_condition_check([1.0, math.nan], 1.0, lambda j, k: 1.0)

    def test_moment_check_nan_moment_fails(self):
        report = moment_condition_check([1.0], 1.0, lambda j, k: math.nan if k == 4 else 0.0, k_max=5)
        assert not report.holds and report.failures == ((0, 4),)

    def test_monte_carlo_threshold(self):
        with pytest.raises(ValueError, match="t must be a number"):
            mc_abs_sum_tail(3, math.nan, seed=1)


class TestMomentCondition:
    def test_two_point_variable(self):
        # |X| = sigma always: sigma^k <= k! sigma^2/2 sigma^(k-2) iff k! >= 2
        sigma = 0.7
        report = moment_condition_check(
            [sigma**2], c=sigma, moment_fn=lambda j, k: sigma**k, k_max=10
        )
        assert report.holds

    def test_uniform_with_third_of_bound(self):
        # uniform(-1,1): E|X|^k = 1/(k+1), sigma^2 = 1/3, c = 1/3
        report = moment_condition_check(
            [1 / 3], c=1 / 3, moment_fn=lambda j, k: 1 / (k + 1), k_max=10
        )
        assert report.holds
        assert report.failures == ()

    def test_heavy_tail_fails(self):
        report = moment_condition_check(
            [1.0], c=1.0, moment_fn=lambda j, k: float(k) ** k, k_max=12
        )
        assert not report.holds
        assert report.failures

    def test_evaluator_failure_annotated(self):
        def broken(j, k):
            raise RuntimeError("no moment")

        with pytest.raises(RuntimeError, match="variable 0, order 3"):
            moment_condition_check([1.0], c=1.0, moment_fn=broken)

    def test_k_max_domain(self):
        with pytest.raises(ValueError):
            moment_condition_check([1.0], c=1.0, moment_fn=lambda j, k: 1.0, k_max=2)


class TestMonteCarloHarness:
    def test_reproducible(self):
        a = mc_abs_sum_tail(10, 3.0, seed=99, samples=50_000)
        b = mc_abs_sum_tail(10, 3.0, seed=99, samples=50_000)
        assert a == b

    def test_seed_matters(self):
        a = mc_abs_sum_tail(10, 3.0, seed=99, samples=50_000)
        b = mc_abs_sum_tail(10, 3.0, seed=100, samples=50_000)
        assert a != b

    def test_bound_validity_quick(self):
        # smaller sample sizes here; the full 1e6-sample sweep runs in the
        # acceptance suite
        for n, t in ((10, 4.0), (100, 14.0)):
            p_hat, se = mc_abs_sum_tail(n, t, seed=7, samples=200_000)
            bound = bernstein_bound(BernsteinInput(B_n_sq=n / 3, t=t, M=1.0))
            assert p_hat <= bound + 3 * se

    def test_estimates_known_probability(self):
        # single uniform(-1,1): P(|X| > 0.5) = 0.5
        p_hat, se = mc_abs_sum_tail(1, 0.5, seed=11, samples=300_000)
        assert p_hat == pytest.approx(0.5, abs=5 * se)

    @pytest.mark.parametrize("block", [1, 7, 90, 10**6])
    def test_blocks_leave_the_estimate_unchanged(self, monkeypatch, block):
        # 45,001 samples: two full 20,000-sample chunks and a short one
        want = mc_abs_sum_tail(30, 5.0, seed=3, samples=45_001)
        monkeypatch.setattr(concentration, "_MC_BLOCK", block)
        assert mc_abs_sum_tail(30, 5.0, seed=3, samples=45_001) == want

    def test_memory_does_not_grow_with_the_samples(self):
        # numpy reports its buffers to tracemalloc; a 20,000-sample chunk
        # of 30 doubles a row would take 4.8 MB
        tracemalloc.start()
        try:
            mc_abs_sum_tail(30, 10.0, seed=1, samples=100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
