"""Run probabilities: four methods against enumeration and each other.

`tests/data/runs_golden.json` holds the outputs of all four methods on
352 seeded (n, r, p) cases, each (n, r, a/d) once with the `Fraction` p
and once with the float a/d, plus seeded float p, p = 1/2, r = 1, r = n,
n up to 2000, and two float cases at n = 6232 whose closed form has
binomials past the float range.  `Fraction`s are stored as "num/den",
floats as `float.hex`, and a call that raises as its exception's name.
Every replay must agree bit for bit.

`python tests/test_runs.py` rebuilds the file from the same seeded case
list; run it only on code whose outputs are known to be right.
"""

import builtins
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from certiprob import lexis, runs
from certiprob.runs import (
    BETA_TOL,
    CancellationError,
    RunSpec,
    run_prob_beta,
    run_prob_demoivre,
    run_prob_oracle,
    run_prob_recursive,
)

from _oracles import gf_series_coefficients, run_count_table, run_prob_enumeration

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

    @pytest.mark.parametrize("p", [0.5127250459522125, 0.5])
    def test_closed_form_past_the_float_range(self, p):
        # the bound passes, but C(m - k*r, k) passes the float range while
        # w**k underflows, so float(C) * w**k cannot form those terms
        n, r = 6232, 13
        assert max(math.comb(n - k * r, k) for k in range(n // (r + 1) + 1)) > 2**1024
        spec = RunSpec(n, r, p)
        got = run_prob_beta(spec)
        assert got == pytest.approx(run_prob_recursive(spec), abs=BETA_TOL)
        if p == 0.5:
            exact = run_prob_recursive(RunSpec(n, r, Fraction(1, 2)))
            assert abs(Fraction(got) - exact) <= BETA_TOL


@st.composite
def run_cases(draw):
    """(n, r, a) for p = a/100 near (1/n)**(1/r), where a run of r turns
    up in n tosses with odds near even, so y_n sits away from 0 and 1."""
    n = round(10 ** draw(st.floats(1, 4)))
    r = draw(st.integers(1, min(n, 30)))
    a = round(100 * n ** (-1 / r)) + draw(st.integers(-5, 5))
    return n, r, min(max(a, 1), 99)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(run_cases())
@example((10**4, 30, 74))
def test_float_paths_match_the_exact_oracle(case):
    n, r, a = case
    want = float(run_prob_oracle(RunSpec(n, r, Fraction(a, 100))))
    spec = RunSpec(n, r, a / 100)
    assert run_prob_recursive(spec) == pytest.approx(want, abs=1e-12)
    assert run_prob_demoivre(spec) == pytest.approx(want, abs=1e-12)
    try:
        beta = run_prob_beta(spec)
    except CancellationError:
        return
    assert beta == pytest.approx(want, abs=BETA_TOL)


@st.composite
def exact_cases(draw):
    """(n, r, p): p a fraction with denominator up to 1000, n up to 3000."""
    d = draw(st.integers(2, 1000))
    n = round(10 ** draw(st.floats(0, math.log10(3000))))
    return n, draw(st.integers(1, min(n, 40))), Fraction(draw(st.integers(1, d - 1)), d)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(exact_cases())
@example((3000, 30, Fraction(997, 1000)))
def test_exact_methods_agree_exactly(case):
    spec = RunSpec(*case)
    want = run_prob_oracle(spec)
    assert isinstance(want, Fraction) and 0 <= want <= 1
    for fn in (run_prob_recursive, run_prob_beta, run_prob_demoivre):
        assert fn(spec) == want


GOLDEN_PATH = Path(__file__).parent / "data" / "runs_golden.json"
METHODS = {
    "recursive": run_prob_recursive,
    "beta": run_prob_beta,
    "demoivre": run_prob_demoivre,
    "oracle": run_prob_oracle,
}


def _encode(x) -> str:
    return f"{x.numerator}/{x.denominator}" if isinstance(x, Fraction) else x.hex()


def _decode_p(s: str):
    return Fraction(s) if "/" in s else float.fromhex(s)


def _outputs(case) -> dict:
    """Each method's value on one case, encoded, or the name of what it raised."""
    spec = RunSpec(case["n"], case["r"], _decode_p(case["p"]))
    out = {}
    for name, fn in METHODS.items():
        try:
            out[name] = _encode(fn(spec))
        except ArithmeticError as exc:
            out[name] = type(exc).__name__
    return out


def _golden_cases(rng):
    """Seeded (n, r, p): rational triples in both types, then float p and edges.

    An exact output has about n * log10(d) digits a side, so d shrinks as
    n grows to keep the file small; the property tests reach the rest.
    """
    out = []

    def add(n, r, p):
        out.append({"n": n, "r": r, "p": _encode(p)})

    def draw_r(n, pf):
        if rng.random() < 0.5:
            # near the length whose run has even odds in n tosses
            r = round(math.log(n + 1) / -math.log(pf)) + rng.randint(-3, 3)
        else:
            r = rng.randint(1, min(n, 40))
        return min(max(r, 1), n)

    for _ in range(120):
        n = round(10 ** rng.uniform(0, 3.3))
        d = round(10 ** rng.uniform(0.3, min(3, 3000 / (n * 2))))
        p = Fraction(rng.randint(1, d - 1), d)
        r = draw_r(n, float(p))
        add(n, r, p)
        add(n, r, float(p))
    for _ in range(40):
        n = round(10 ** rng.uniform(0, 3.3))
        p = rng.uniform(0.02, 0.98)
        add(n, draw_r(n, p), p)
    for n in (1, 2, 3, 7, 40, 300, 1999):
        for p in (Fraction(1, 2), 0.5, Fraction(1, 3), 0.9):
            add(n, 1, p)
            add(n, n, p)
        add(n, min(n, 4), Fraction(1, 2))
        add(n, min(n, 4), 0.5)
    # the float closed form past the float range, with a passing bound
    add(6232, 13, 0.5127250459522125)
    add(6232, 13, 0.5)
    return out


def record():
    cases = [{**c, "want": _outputs(c)} for c in _golden_cases(random.Random(1902))]
    with GOLDEN_PATH.open("w") as fh:
        fh.write('{"cases": [\n')
        fh.write(",\n".join(json.dumps(c) for c in cases))
        fh.write("\n]}\n")
    print(f"{len(cases)} cases written to {GOLDEN_PATH}")


GOLDEN = json.loads(GOLDEN_PATH.read_text())["cases"] if GOLDEN_PATH.exists() else []


@pytest.mark.parametrize("case", GOLDEN, ids=[f"{c['n']}-{c['r']}-{c['p']}" for c in GOLDEN])
def test_golden_replay_is_bit_identical(case):
    assert _outputs(case) == case["want"]


def test_golden_is_recorded():
    assert len(GOLDEN) >= 300


def _compensated_sum(iterable, /, start=0):
    """Built-in sum() as CPython 3.12 and later compute it: exact int
    items, then Neumaier compensated summation over float (and small int)
    items, and plain addition once any other type appears."""
    it = iter(iterable)
    result = start
    if type(result) is int:
        for item in it:
            result = result + item
            if type(item) not in (int, bool):
                break
    if type(result) is not float:
        return builtins.sum(it, result)
    total, c = result, 0.0
    for item in it:
        if type(item) is float:
            t = total + item
            c += (total - t) + item if abs(total) >= abs(item) else (item - t) + total
            total = t
        elif type(item) in (int, bool) and -2**63 <= item < 2**63:
            total += float(item)
        else:
            if c and math.isfinite(c):
                total += c
            return builtins.sum(it, total + item)
    if c and math.isfinite(c):
        total += c
    return total


@pytest.mark.xfail(
    strict=True,
    reason="runs' float sums rely on the built-in sum's left-to-right "
    "rounding, which Python 3.12 made compensated; about 74 golden cases "
    "move by an ulp or so until no output depends on the built-in sum",
)
def test_golden_replay_under_compensated_sum(monkeypatch):
    for module in (runs, lexis):
        monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    moved = [case for case in GOLDEN if _outputs(case) != case["want"]]
    assert moved == []


if __name__ == "__main__":
    sys.exit(record())
