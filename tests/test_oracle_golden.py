"""Bit-identity of the float oracle tier against recorded outputs.

`tests/data/oracle_golden.json` holds outputs of `numerics.binom_tail_exact`
(float and `Fraction` p, n up to 2*10^4, l from -1 to n) and of the float
`lexis.moments_Q_hat`, both built on the one float pmf recurrence
`numerics._pmf_sweeps`.  Floats are stored as `float.hex`, p as `float.hex`
or "a/b".  Every replay must agree bit for bit.

`python tests/test_oracle_golden.py` rebuilds the file from the same
seeded case list; run it only on code whose outputs are known to be right.
"""

import json
import math
import random
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from certiprob.lexis import moments_Q_hat
from certiprob.numerics import binom_tail_exact

GOLDEN_PATH = Path(__file__).parent / "data" / "oracle_golden.json"


def _encode_p(p) -> str:
    return f"{p.numerator}/{p.denominator}" if isinstance(p, Fraction) else p.hex()


def _decode_p(s: str):
    return Fraction(s) if "/" in s else float.fromhex(s)


def _run(case):
    """The recorded outputs of one case, floats as hex strings."""
    p = _decode_p(case["p"])
    if case["fn"] == "moments":
        return [None if x is None else x.hex() for x in moments_Q_hat(case["n"], case["s"], p)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # l > n warns, by convention
        return binom_tail_exact(case["n"], case["l"], p).hex()


def _draw_p(rng):
    return rng.choice([
        rng.uniform(0.001, 0.999),
        rng.uniform(0.3, 0.7),
        10 ** rng.uniform(-6, -1),
        1 - 10 ** rng.uniform(-6, -1),
        Fraction(rng.randint(1, 99), 100),
        Fraction(1, rng.randint(2, 1000)),
        Fraction(rng.randint(1, 2**20 - 1), 2**20),
    ])


def _cases(rng):
    """Seeded inputs: binom_tail_exact (n, l, p), then moments_Q_hat (n, s, p)."""
    out = []
    while len(out) < 400:
        n = min(round(10 ** rng.uniform(0, 4.31)), 20000)
        p = _draw_p(rng)
        pf = float(p)
        sd = math.sqrt(n * pf * (1 - pf))
        u = rng.random()
        if u < 0.2:
            l = rng.choice([-1, 0, n - 1, n, n + 1])
        elif u < 0.35:
            l = rng.randint(-1, n)
        else:
            l = math.floor(n * pf + rng.uniform(-8, 8) * sd)
        l = min(max(l, -1), n + 1)
        for q in ([p, pf] if isinstance(p, Fraction) else [p]):
            out.append({"fn": "exact", "n": n, "l": l, "p": _encode_p(q)})
    for _ in range(100):
        n = rng.randint(2, 60)
        s = rng.randint(max(1, 4 // n + 1), max(2, 20000 // n))
        out.append({"fn": "moments", "n": n, "s": s, "p": float(_draw_p(rng)).hex()})
    return out


def record():
    cases = [{**c, "want": _run(c)} for c in _cases(random.Random(1937))]
    with GOLDEN_PATH.open("w") as fh:
        fh.write('{"cases": [\n')
        fh.write(",\n".join(json.dumps(c) for c in cases))
        fh.write("\n]}\n")
    print(f"{len(cases)} cases written to {GOLDEN_PATH}")


GOLDEN = json.loads(GOLDEN_PATH.read_text())["cases"] if GOLDEN_PATH.exists() else []


@pytest.mark.parametrize(
    "case", GOLDEN,
    ids=[f"{c['fn']}-{c['n']}-{c.get('l', c.get('s'))}-{c['p']}" for c in GOLDEN],
)
def test_replay_is_bit_identical(case):
    assert _run(case) == case["want"]


def test_golden_is_recorded():
    assert len(GOLDEN) >= 450


if __name__ == "__main__":
    sys.exit(record())
