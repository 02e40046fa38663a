"""Gambler's ruin with unequal stakes.

Player A stakes alpha per game and B stakes beta; A wins a game with
probability p, collecting beta from B, and otherwise pays alpha.  A is
ruined when their capital drops below alpha (cannot cover a stake), B
when theirs drops below beta.  Tracking A's capital c on {0, ..., a+b}:

    transient:  alpha <= c <= a+b-beta
    A-absorbed: c < alpha       B-absorbed: c > a+b-beta

For a fair game (p*beta = q*alpha) A's ruin probability y_a obeys the
printed pair of bounds

    (b - beta + 1)/(a + b - beta + 1) <= y_a <= b/(a + b - alpha + 1).

The exact absorption probability (fair or not) comes from the banded
linear system of the chain, and the characteristic polynomial
p z^(alpha+beta) - z^alpha + q = 0 whose roots drive closed-form
treatments is exposed with each root certified by its backward error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import _p_ratio

_FAIRNESS_TOL = 1e-12

# A root z of f(z) = p z^d - z^alpha + q, d = alpha + beta, is certified by
# its backward error eta = |f(z)| / (p |z|^d + |z|^alpha + q), the least
# relative change to (p, -1, q) that makes z exact (Mosier, Math. Comp. 47,
# 1986).  Companion eigenvalues keep it small (Edelman & Murakami, Math.
# Comp. 64, 1995): below 70 (d + 1) u, u = 2**-53, in 800 random games of
# degree 2 to 300, so _ROOT_LEVEL (d + 1) u is accepted.  For |z| > 1 the
# same eta is formed from w = 1/z, dividing through by |z|^d:
# |p - w^beta + q w^d| / (p + |w|^beta + q |w|^d), where no term exceeds 1,
# so nothing overflows.  The float eta is first raised by _EVAL_ULPS (d + 1) u,
# which bounds its error (first order, Higham ch. 3): CPython's z**n squares
# and multiplies for n <= 100, within (n - 1) 2 sqrt(2) u, and above that
# takes |z|**n and the phase n atan2(z), within (2 + 3 pi) n u + 6 u; the
# rest of eta and a Fraction p add 5 u.  fl(1/z) is within 5 u of 1/z
# (CPython divides by z.r + z.i (z.i/z.r), 3 u, then rounds each part once
# more, after the ratio's 1 u in the imaginary one), and a relative change
# delta in w moves eta by at most d |delta|: 5 d u more.  In all at most
# (7 + 3 pi) d u + 11 u <= 17 (d + 1) u; 20 is taken.
_ROOT_LEVEL = 128
_EVAL_ULPS = 20


class UnfairGameError(ValueError):
    """ruin_bounds_fair requires p*beta = q*alpha; use ruin_exact_chain."""


@dataclass(frozen=True)
class RuinGame:
    """Unequal-stakes ruin problem (fortunes a, b; stakes alpha, beta)."""

    a: int
    b: int
    alpha: int
    beta: int
    p: float

    def __post_init__(self):
        for name in ("a", "b", "alpha", "beta"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.a < self.alpha or self.b < self.beta:
            raise ValueError(
                f"both players must cover one stake: need a >= alpha and "
                f"b >= beta, got a={self.a}, alpha={self.alpha}, "
                f"b={self.b}, beta={self.beta}"
            )
        _p_ratio(self.p)

    @property
    def q(self) -> float:
        return 1 - self.p

    @property
    def is_fair(self) -> bool:
        return abs(self.p * self.beta - self.q * self.alpha) <= _FAIRNESS_TOL


def ruin_bounds_fair(game: RuinGame):
    """The two-sided fair-game bounds (lower, upper) on A's ruin probability."""
    if not game.is_fair:
        raise UnfairGameError(
            f"game is not fair: p*beta={float(game.p * game.beta):.15g} != "
            f"q*alpha={float(game.q * game.alpha):.15g}; the printed bounds only "
            f"cover the fair case, use ruin_exact_chain for the exact value"
        )
    a, b, alpha, beta = game.a, game.b, game.alpha, game.beta
    lower = (b - beta + 1) / (a + b - beta + 1)
    upper = b / (a + b - alpha + 1)
    return lower, upper


def _absorption_probability(game: RuinGame, tol: float, side: str) -> float:
    """Solve the banded absorption system for the chosen ruin event."""
    if not math.isfinite(tol):  # a nan or inf tol would pass any residual
        raise ValueError(f"tol must be finite, got {tol!r}")
    import numpy as np
    from scipy.linalg import solve_banded  # scipy loads on the first solve only

    # float once: a Fraction p would turn p * ndarray into an object array
    a, b, alpha, beta = game.a, game.b, game.alpha, game.beta
    p, q = float(game.p), float(game.q)
    m = a + b - alpha - beta + 1
    # (I - T) u = rhs over the m transient states c = alpha + i, with alpha
    # bands below the diagonal and beta above.  A win takes i to i + beta,
    # still transient for i < up; a loss takes i to i - alpha, transient for
    # i >= alpha, so for targets below down.  A chain may be shorter than a
    # stake: up and down are clamped at 0, as a negative slice bound wraps.
    up, down = max(m - beta, 0), max(m - alpha, 0)
    ab = np.zeros((alpha + beta + 1, m))
    ab[beta] = 1.0  # diagonal in LAPACK band storage
    ab[0, beta:] = -p  # c -> c + beta
    ab[alpha + beta, :down] = -q  # c -> c - alpha
    rhs = np.zeros(m)
    if side == "B":
        rhs[up:] = p  # c + beta overshoots the last transient state
    else:
        rhs[:alpha] = q  # c - alpha drops below the first one
    u = solve_banded((alpha, beta), ab, rhs)

    # Certify: residual of the solved system must sit within tol.
    resid = rhs - u
    resid[:up] += p * u[beta:]
    resid[alpha:] += q * u[:down]
    if np.max(np.abs(resid)) > max(tol, 1e-14):
        raise ArithmeticError(
            f"absorption solve residual {np.max(np.abs(resid)):.3e} exceeds "
            f"tolerance {tol:.3e}"
        )
    return float(min(max(u[a - alpha], 0.0), 1.0))


def ruin_exact_chain(game: RuinGame, tol: float = 1e-10) -> float:
    """A's exact ruin probability from the absorbing chain (any p, any stakes).

    Banded LU over the a+b-alpha-beta+1 transient states: O((a+b) *
    alpha * (alpha+beta)) time and O((a+b) * (2*alpha+beta)) memory, so
    sizes well past 1e4 pose no problem with small stakes; tol is the
    certified residual threshold of the solve.  numpy and scipy are
    imported on the first call, not with the package.
    """
    return _absorption_probability(game, tol, side="A")


def ruin_chain_b_side(game: RuinGame, tol: float = 1e-10) -> float:
    """B's ruin probability, solved independently (complements A's)."""
    return _absorption_probability(game, tol, side="B")


def ruin_root_equation(game: RuinGame):
    """All alpha+beta complex roots of p z^(alpha+beta) - z^alpha + q = 0.

    z = 1 is always a root (p - 1 + q = 0); it is deflated first and the
    remaining roots found as companion-matrix eigenvalues.  Each root z is
    certified to a backward error |f(z)| / (p|z|^d + |z|^alpha + q) of at
    most 128 (d + 1) 2**-53, d = alpha + beta, or ArithmeticError is raised.
    For |z| > 1 that ratio is formed at 1/z, so roots far outside the unit
    circle do not overflow it.  A p so small that the companion matrix's
    entry (1 - p)/p overflows (any p below about 5.6e-309) is refused with
    ArithmeticError before the eigenvalues are sought.
    """
    import numpy as np

    alpha, beta, p, q = game.alpha, game.beta, float(game.p), float(game.q)
    if (1.0 - p) / p == math.inf:
        raise ArithmeticError(
            f"p is too small for the root solve: the companion matrix entry "
            f"(1 - p)/p overflows a float (alpha={alpha}, beta={beta}, p={p})"
        )
    deg = alpha + beta
    coeffs = np.zeros(deg + 1)
    coeffs[0] = p  # z^(alpha+beta)
    coeffs[beta] = -1.0  # z^alpha
    coeffs[deg] = q  # constant

    # Synthetic division by (z - 1): running sums of the coefficients.
    roots = [complex(1.0)] + [complex(z) for z in np.roots(np.cumsum(coeffs[:-1]))]

    unit = (deg + 1) * 2.0**-53
    for z in roots:
        if abs(z) > 1.0:
            w = 1 / z
            eta = abs(p - w**beta + q * w**deg) / (p + abs(w) ** beta + q * abs(w) ** deg)
        else:
            eta = abs(p * z**deg - z**alpha + q) / (p * abs(z) ** deg + abs(z) ** alpha + q)
        eta += _EVAL_ULPS * unit
        if not eta <= _ROOT_LEVEL * unit:  # a nan eta fails too
            raise ArithmeticError(
                f"root {z} has backward error up to {eta:.3e} > {_ROOT_LEVEL * unit:.3e} "
                f"(alpha={alpha}, beta={beta}, p={p})"
            )
    roots.sort(key=lambda z: (round(z.real, 12), round(z.imag, 12)))
    return roots


__all__ = [
    "RuinGame",
    "UnfairGameError",
    "ruin_bounds_fair",
    "ruin_exact_chain",
    "ruin_chain_b_side",
    "ruin_root_equation",
]
