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

The exact absorption probability (fair or not) comes from the linear
system of the chain.  With equal stakes s only A's capitals a + k s are
reachable, a unit-step walk on m' = a // s + b // s - 1 states, which
odd-even censoring reduces in log2(m') numpy passes without a subtraction:
O(m') time and memory.  Unequal stakes take scipy's banded LU.  The
characteristic polynomial
p z^(alpha+beta) - z^alpha + q = 0 whose roots drive closed-form
treatments is exposed with each root certified by its backward error.
"""

from __future__ import annotations

import math
import sys
import warnings
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

# A walk of at most this many states is eliminated state by state in Python:
# below it a numpy pass costs more in calls than it saves in work.
_SEQUENTIAL_STATES = 32


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


def _unit_walk(m: int, p: float, q: float, left: float, right: float):
    """h_0..h_(m-1) with h_i = (q h_(i-1) + p h_(i+1)) / (q + p), h_-1 = left, h_m = right.

    Odd-even censoring, subtraction-free (GTH form): each level drops every
    other state, and a kept state's exit into a dropped neighbour is sent
    on by that neighbour's exit probabilities, the return to the kept state
    being left out (a self-loop changes no absorption value).  A state's
    pivot is the sum of its two remaining exits, never 1 minus a loop, so
    every operation adds, multiplies or divides nonnegative numbers.  The
    last few states are eliminated in turn, and back-substitution forms each
    dropped state's value as a nonnegative combination of its neighbours'.
    O(m) time and memory over log2(m) levels of numpy passes.
    """
    import numpy as np

    # Row 0 is each state's weight to its left (the boundary for the first
    # state) and row 1 to its right.  Each state's pair is scaled by its own
    # factor in [1, 2], which no value depends on: equal pairs would round
    # alike level after level, and that shared error in the ratio of the
    # exits adds up along the walk (worst of 40 near-fair walks of 2,000 to
    # 12,000 states: 4.7e-13 relative with equal pairs, 2.2e-14 with these).
    weights = np.linspace(1.0, 2.0, m) * np.array([[q], [p]])
    dropped = []
    while weights.shape[1] > _SEQUENTIAL_STATES:
        kept, gone = weights[:, 0::2].copy(), weights[:, 1::2]
        gone = gone / (gone[0] + gone[1])
        kept[0, 1:] *= gone[0, : kept.shape[1] - 1]
        kept[1, : gone.shape[1]] *= gone[1]
        dropped.append(gone)
        weights = kept
    # c[i] is state i's weight to the left boundary once 0..i-1 are censored
    to_left, to_right = weights.tolist()
    c = [to_left[0]]
    for i in range(1, len(to_left)):
        c.append(to_left[i] * c[-1] / (c[-1] + to_right[i - 1]))
    h = [right]
    for ci, ri in zip(reversed(c), reversed(to_right)):
        h.append((ci * left + ri * h[-1]) / (ci + ri))
    h = np.array([left] + h[::-1])  # state i at index i + 1, both boundaries held
    for gone in reversed(dropped):
        n = h.size - 2 + gone.shape[1]
        full = np.empty(n + 2)
        full[0], full[-1] = left, right
        full[1:-1:2] = h[1:-1]
        full[2:-1:2] = gone[0] * full[1:-2:2] + gone[1] * full[3::2]
        h = full
    return h[1:-1]


def _absorption_probability(game: RuinGame, tol: float, side: str) -> float:
    """Solve the absorption system for the chosen ruin event and certify it."""
    if not math.isfinite(tol):  # a nan or inf tol would pass any residual
        raise ValueError(f"tol must be finite, got {tol!r}")
    import numpy as np

    # float once: a Fraction p would turn p * ndarray into an object array
    a, b, alpha, beta = game.a, game.b, game.alpha, game.beta
    p, q = float(game.p), float(game.q)
    walk = alpha == beta
    if walk:
        # Equal stakes s reach only the capitals a + k s: a unit walk on
        # a // s + b // s - 1 transient states, started at a // s - 1.
        start, m = a // alpha - 1, a // alpha + b // beta - 1
        alpha = beta = 1
    else:
        start, m = a - alpha, a + b - alpha - beta + 1
    # (I - T) u = rhs over the m transient states c = alpha + i, with alpha
    # bands below the diagonal and beta above.  A win takes i to i + beta,
    # still transient for i < up; a loss takes i to i - alpha, transient for
    # i >= alpha, so for targets below down.  A chain may be shorter than a
    # stake: up and down are clamped at 0, as a negative slice bound wraps.
    up, down = max(m - beta, 0), max(m - alpha, 0)
    rhs = np.zeros(m)
    if side == "B":
        rhs[up:] = p  # c + beta overshoots the last transient state
    else:
        rhs[:alpha] = q  # c - alpha drops below the first one
    if walk:
        u = _unit_walk(m, p, q, float(side == "A"), float(side == "B"))
    else:
        from scipy.linalg import solve_banded  # scipy loads on the first band solve only

        ab = np.zeros((alpha + beta + 1, m))
        ab[beta] = 1.0  # diagonal in LAPACK band storage
        ab[0, beta:] = -p  # c -> c + beta
        ab[alpha + beta, :down] = -q  # c -> c - alpha
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
    value = float(min(max(u[start], 0.0), 1.0))
    if walk and value < sys.float_info.min:  # no subtraction: only underflow gets here
        warnings.warn(
            f"{side}'s ruin probability underflows the float range in {game!r}: "
            f"{value!r} stands for a positive value below {sys.float_info.min!r}",
            RuntimeWarning,
        )
    return value


def ruin_exact_chain(game: RuinGame, tol: float = 1e-10) -> float:
    """A's exact ruin probability from the absorbing chain (any p, any stakes).

    Equal stakes s make the chain a unit-step walk on the m' = a // s +
    b // s - 1 capitals A can reach, reduced by odd-even censoring without
    subtraction: O(m') time and memory.  A value below the float range
    (zero or subnormal) can only be underflow there, and is returned with a
    RuntimeWarning.  Unequal stakes take a banded LU (scipy's solve_banded)
    over the a+b-alpha-beta+1 transient states: O((a+b) * alpha *
    (alpha+beta)) time and O((a+b) * (2*alpha+beta)) memory.  Either way
    the residual of (I - T) u = r must be at most max(tol, 1e-14), or
    ArithmeticError is raised.  numpy is imported on the first call, scipy
    on the first unequal-stakes one, not with the package.
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
