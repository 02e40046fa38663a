"""Ruin probabilities: bounds, the exact chain, and the root equation."""

import cmath
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from certiprob.ruin import (
    RuinGame,
    UnfairGameError,
    ruin_bounds_fair,
    ruin_chain_b_side,
    ruin_exact_chain,
    ruin_root_equation,
)

from _oracles import classical_ruin


def dense_absorption(game: RuinGame, side: str) -> float:
    """The chain's ruin probability from a dense solve of (I - T) u = r.

    States are indexed by capital in a dict, not by band offsets, and
    numpy.linalg.solve runs the full matrix.
    """
    a, b, alpha, beta = game.a, game.b, game.alpha, game.beta
    p, q = float(game.p), float(game.q)
    states = list(range(alpha, a + b - beta + 1))
    index = {c: i for i, c in enumerate(states)}
    m = len(states)
    mat = np.eye(m)
    rhs = np.zeros(m)
    for c, i in index.items():
        for target, prob in ((c + beta, p), (c - alpha, q)):
            if target in index:
                mat[i, index[target]] -= prob
            elif (target < alpha) == (side == "A"):
                rhs[i] += prob
    return np.linalg.solve(mat, rhs)[index[a]]


def fair_p(alpha: int, beta: int) -> float:
    """p*beta = q*alpha forces p = alpha/(alpha+beta)."""
    return alpha / (alpha + beta)


class TestBoundsFair:
    def test_symmetric_game_pins_half(self):
        game = RuinGame(5, 5, 1, 1, 0.5)
        assert ruin_bounds_fair(game) == (0.5, 0.5)

    def test_unfair_game_rejected(self):
        for p in (1 / 3, Fraction(1, 3)):  # Fraction has no :g format before 3.12
            game = RuinGame(6, 4, 2, 1, p)  # q*alpha = 4/3 != p*beta = 1/3
            assert not game.is_fair
            with pytest.raises(UnfairGameError, match="p\\*beta=0.333333333333333 "):
                ruin_bounds_fair(game)

    def test_bounds_contain_exact_chain(self):
        rng = random.Random(55)
        for _ in range(25):
            alpha = rng.randint(1, 5)
            beta = rng.randint(1, 5)
            a = rng.randint(alpha, 60)
            b = rng.randint(beta, 60)
            game = RuinGame(a, b, alpha, beta, fair_p(alpha, beta))
            lower, upper = ruin_bounds_fair(game)
            assert lower <= upper
            y = ruin_exact_chain(game)
            assert lower - 1e-12 <= y <= upper + 1e-12


class TestExactChain:
    def test_classical_symmetric(self):
        assert ruin_exact_chain(RuinGame(5, 5, 1, 1, 0.5)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_classical_biased_closed_form(self):
        y = ruin_exact_chain(RuinGame(3, 3, 1, 1, 0.6))
        assert y == pytest.approx(classical_ruin(3, 3, 0.6), abs=1e-12)

    def test_equal_stakes_grid_matches_closed_form(self):
        rng = random.Random(4)
        for _ in range(20):
            a = rng.randint(1, 40)
            b = rng.randint(1, 40)
            p = rng.uniform(0.2, 0.8)
            y = ruin_exact_chain(RuinGame(a, b, 1, 1, p))
            assert y == pytest.approx(classical_ruin(a, b, p), abs=1e-12)

    def test_complementarity(self):
        rng = random.Random(5150)
        for _ in range(15):
            alpha = rng.randint(1, 4)
            beta = rng.randint(1, 4)
            a = rng.randint(alpha, 50)
            b = rng.randint(beta, 50)
            p = rng.uniform(0.2, 0.8)
            game = RuinGame(a, b, alpha, beta, p)
            total = ruin_exact_chain(game) + ruin_chain_b_side(game)
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_matches_dense_solve(self):
        # a third of the chains are shorter than a stake (m < alpha or
        # m < beta), where a negative slice start would misplace the
        # boundary terms
        rng = random.Random(8128)
        for i in range(300):
            alpha = rng.randint(1, 8)
            beta = rng.randint(1, 8)
            if i % 3 == 0:
                a, b = alpha + rng.randint(0, 2), beta + rng.randint(0, 2)
            else:
                a, b = rng.randint(alpha, 60), rng.randint(beta, 60)
            p = rng.uniform(0.1, 0.9) if i % 4 else Fraction(rng.randint(1, 11), 12)
            game = RuinGame(a, b, alpha, beta, p)
            assert ruin_exact_chain(game) == pytest.approx(
                dense_absorption(game, "A"), abs=1e-12)
            assert ruin_chain_b_side(game) == pytest.approx(
                dense_absorption(game, "B"), abs=1e-12)

    def test_fraction_p_matches_float_p(self):
        exact, rounded = RuinGame(50, 60, 2, 1, Fraction(2, 3)), RuinGame(50, 60, 2, 1, 2 / 3)
        for solve in (ruin_exact_chain, ruin_chain_b_side):
            assert solve(exact) == pytest.approx(solve(rounded), abs=1e-12)
        assert ruin_exact_chain(exact) == pytest.approx(0.54878, abs=1e-5)

    def test_residual_certificate(self, monkeypatch):
        import scipy.linalg

        solve_banded = scipy.linalg.solve_banded

        def off_by_1e9(*args, **kwargs):
            return solve_banded(*args, **kwargs) + 1e-9

        monkeypatch.setattr(scipy.linalg, "solve_banded", off_by_1e9)
        game = RuinGame(30, 40, 3, 2, 0.45)
        with pytest.raises(ArithmeticError):
            ruin_exact_chain(game)  # tol 1e-10
        with pytest.raises(ArithmeticError):
            ruin_chain_b_side(game, tol=0.0)  # floor 1e-14
        assert 0 < ruin_exact_chain(game, tol=1e-8) < 1

    @pytest.mark.parametrize("solve", [ruin_exact_chain, ruin_chain_b_side])
    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_non_finite_tol_refused(self, solve, tol):
        # no residual compares greater than nan or inf: the certificate
        # would be switched off, not checked
        with pytest.raises(ValueError, match="tol must be finite"):
            solve(RuinGame(6, 4, 2, 3, 0.55), tol=tol)

    def test_scipy_loads_on_first_solve_only(self):
        # numpy loads on first use too: a whole tail command runs without
        # either, a Beatty check loads numpy alone, the chain loads scipy
        code = (
            "import contextlib, io, sys, certiprob, certiprob.cli\n"
            "assert not {'numpy', 'scipy'} & set(sys.modules), 'loaded on import'\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = certiprob.cli.main(['tail', '--n', '200', '--l', '80', '--p', '0.3'])\n"
            "assert status == 0\n"
            "assert not {'numpy', 'scipy'} & set(sys.modules), 'loaded by tail'\n"
            "assert certiprob.beatty_pair_check(certiprob.QuadSurd.golden(), 100).ok\n"
            "assert 'numpy' in sys.modules and 'scipy' not in sys.modules\n"
            "y = certiprob.ruin_exact_chain(certiprob.RuinGame(5, 5, 1, 1, 0.5))\n"
            "assert abs(y - 0.5) < 1e-12 and 'scipy' in sys.modules\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_large_state_space(self):
        game = RuinGame(6000, 6000, 2, 3, 0.5)
        y = ruin_exact_chain(game)
        assert 0 < y < 1


class TestRootEquation:
    def test_one_is_always_a_root(self):
        rng = random.Random(21)
        for _ in range(10):
            game = RuinGame(5, 5, rng.randint(1, 5), rng.randint(1, 5),
                            rng.uniform(0.1, 0.9))
            roots = ruin_root_equation(game)
            assert any(abs(z - 1) < 1e-9 for z in roots)
            assert len(roots) == game.alpha + game.beta

    def test_quadratic_case(self):
        roots = ruin_root_equation(RuinGame(2, 1, 1, 1, 0.6))
        vals = sorted(z.real for z in roots)
        assert vals == pytest.approx([2 / 3, 1.0], abs=1e-12)
        assert all(abs(z.imag) < 1e-12 for z in roots)

    def test_residuals_certified(self):
        game = RuinGame(2, 1, 2, 1, 1 / 3)
        roots = ruin_root_equation(game)
        assert len(roots) == 3
        for z in roots:
            assert abs(game.p * z**3 - z**2 + game.q) <= 1e-10

    def test_vieta(self):
        rng = random.Random(30)
        for _ in range(10):
            alpha = rng.randint(1, 4)
            beta = rng.randint(1, 4)
            p = rng.uniform(0.15, 0.85)
            game = RuinGame(alpha, beta, alpha, beta, p)
            roots = ruin_root_equation(game)
            deg = alpha + beta
            # p z^deg - z^alpha + q: sum of roots is 0 unless beta == 1
            coeff_sum = 0.0 if beta != 1 else 1.0 / p
            assert sum(roots) == pytest.approx(coeff_sum, abs=1e-9)
            prod = np.prod(roots)
            want = (-1) ** deg * game.q / game.p
            assert prod == pytest.approx(want, abs=1e-9)

    def test_perturbed_root_refused(self, monkeypatch):
        roots, moved = np.roots, []

        def perturbed(coeffs):
            found = roots(coeffs)
            found[0] += 1e-3
            moved.append(complex(found[0]))
            return found

        monkeypatch.setattr(np, "roots", perturbed)
        with pytest.raises(ArithmeticError) as refused:
            ruin_root_equation(RuinGame(5, 5, 3, 2, 0.4))
        assert str(refused.value).startswith(f"root {moved[0]} has backward error")

    def test_high_degree_roots_to_small_backward_error(self):
        # np.roots reaches a backward error of 1.2e-13 on all four
        for alpha, beta, p in ((20, 1, 0.4), (14, 1, 0.3248), (66, 4, 0.33143), (72, 1, 0.47766)):
            game = RuinGame(alpha, beta, alpha, beta, p)
            roots = ruin_root_equation(game)
            deg = alpha + beta
            assert len(roots) == deg
            for z in roots:
                f = p * z**deg - z**alpha + game.q
                scale = p * abs(z) ** deg + abs(z) ** alpha + game.q
                assert abs(f) / scale <= 1e-12


@st.composite
def root_games(draw):
    deg = draw(st.integers(2, 90))
    alpha = draw(st.integers(1, deg - 1))
    return alpha, deg - alpha, draw(st.floats(0.02, 0.98))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(root_games())
@example((20, 1, 0.4))
@example((14, 1, 0.3248))
@example((66, 4, 0.33143))
@example((72, 1, 0.47766))
def test_roots_certified_by_backward_error(stakes):
    # terms reach |z|^deg ~ 1e23 in the four examples; no absolute residual fits them
    alpha, beta, p = stakes
    game = RuinGame(alpha, beta, alpha, beta, p)
    roots = ruin_root_equation(game)
    deg = alpha + beta
    assert len(roots) == deg
    assert complex(1.0) in roots
    with mpmath.workdps(30):
        pm, qm = mpmath.mpf(p), mpmath.mpf(game.q)
        for z in roots:
            zm = mpmath.mpc(z)
            f = pm * zm**deg - zm**alpha + qm
            scale = pm * abs(zm) ** deg + abs(zm) ** alpha + qm
            assert abs(f) / scale <= 1e-12, z


def test_roots_past_the_float_range():
    # the largest root is near 1/p = 100, so p|z|^201 is about 1e400 and
    # the backward error is formed at 1/z
    alpha, beta, p = 200, 1, 0.01
    game = RuinGame(alpha, beta, alpha, beta, p)
    roots = ruin_root_equation(game)
    deg = alpha + beta
    assert len(roots) == deg
    assert max(abs(z) for z in roots) > 99
    with mpmath.workdps(40):
        pm, qm = mpmath.mpf(p), mpmath.mpf(game.q)
        for z in roots:
            zm = mpmath.mpc(z)
            f = pm * zm**deg - zm**alpha + qm
            scale = pm * abs(zm) ** deg + abs(zm) ** alpha + qm
            assert abs(f) / scale <= 128 * (deg + 1) * 2.0**-53, z


class TestValidation:
    def test_game_domain(self):
        with pytest.raises(ValueError):
            RuinGame(0, 5, 1, 1, 0.5)
        with pytest.raises(ValueError):
            RuinGame(2, 5, 3, 1, 0.5)  # a < alpha
        with pytest.raises(ValueError):
            RuinGame(5, 5, 1, 1, 0.0)
