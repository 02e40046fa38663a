"""Bit-identity of the tail engine against recorded outputs.

`tests/data/tail_golden.json` holds about 400 outputs of `bracket_tail`,
`left_tail_bracket` and `bahadur_tail`, recorded from the scalar-generic
state-object walk that preceded the float walk: float and `Fraction`
p, n up to 1e6, tol from 1e-3 to 1e-12, `k_max` None and 1 to 7, and
l = n - 1.  Floats are stored as `float.hex`, p as `float.hex` or "a/b".
Every replay must agree bit for bit.

No case has a hopeless tolerance (a guard past tol / (2 - tol) at the
depth reached without `k_max`): those stop early on purpose now.

`python tests/test_tail_golden.py` rebuilds the file from the same seeded
case list; run it only on code whose outputs are known to be right.
"""

import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from certiprob.binom_tail import TailQuery, bahadur_tail, bracket_tail, left_tail_bracket

GOLDEN_PATH = Path(__file__).parent / "data" / "tail_golden.json"
TOLS = [10.0**-e for e in range(3, 13)]
K_MAXES = [None, None, None, 1, 2, 3, 4, 5, 6, 7]


def _encode_p(p) -> str:
    return f"{p.numerator}/{p.denominator}" if isinstance(p, Fraction) else p.hex()


def _decode_p(s: str):
    return Fraction(s) if "/" in s else float.fromhex(s)


def _run(case):
    """The recorded fields of one case, floats as hex strings."""
    p = _decode_p(case["p"])
    if case["fn"] == "bahadur":
        return {"value": bahadur_tail(case["n"], case["l"], p).hex()}
    if case["fn"] == "right":
        b = bracket_tail(TailQuery(case["n"], case["l"], p), tol=case["tol"], k_max=case["k_max"])
    else:
        b = left_tail_bracket(case["n"], case["l"], p, tol=case["tol"], k_max=case["k_max"])
    return {
        "lower": b.lower.hex(),
        "upper": b.upper.hex(),
        "lead_term_log": b.lead_term_log.hex(),
        "k_used": b.k_used,
        "converged": b.converged,
    }


def _cases(rng):
    """Seeded inputs: (fn, n, l, p, tol, k_max); l is j for bahadur."""
    out = []
    while len(out) < 400:
        n = round(10 ** rng.uniform(1, 6))
        p = rng.choice([
            rng.uniform(0.02, 0.98),
            Fraction(rng.randint(1, 99), 100),
            Fraction(1, rng.randint(2, 50)),
        ])
        pf = float(p)
        sd = math.sqrt(n * pf * (1 - pf))
        fn = rng.choice(["right", "right", "left", "bahadur"])
        z = rng.choice([rng.uniform(0.2, 3), rng.uniform(3, 12)])
        tol, k_max = rng.choice(TOLS), rng.choice(K_MAXES)
        if fn == "left":
            l = math.floor(n * pf - z * sd) - 2
            if not 0 <= l < n * pf - 1:
                continue
        else:
            l = min(math.ceil(n * pf + z * sd), n - 1)
            if rng.random() < 0.05:
                l = n - 1
                k_max = rng.choice([None, 0, 1])
        if fn == "bahadur":
            out.append({"fn": fn, "n": n, "l": l + 1, "p": _encode_p(p)})
            continue
        try:
            TailQuery(n, l if fn == "right" else n - l - 1, p if fn == "right" else 1 - Fraction(p))
        except ValueError:
            continue
        out.append({"fn": fn, "n": n, "l": l, "p": _encode_p(p), "tol": tol, "k_max": k_max})
    # deep walks near the mean, where A and B get rescaled
    for _ in range(30):
        n, p = round(10 ** rng.uniform(4, 6)), rng.uniform(0.1, 0.9)
        l = math.ceil(n * p + rng.uniform(0.3, 1.5) * math.sqrt(n * p * (1 - p)))
        out.append({"fn": "right", "n": n, "l": l, "p": p.hex(), "tol": rng.choice(TOLS[2:9]), "k_max": None})
    # short fractions that collapse onto the terminal convergent
    for _ in range(20):
        n, p = rng.randint(8, 60), Fraction(rng.randint(1, 9), 20)
        l = n - rng.randint(2, 6)
        out.append({"fn": "right", "n": n, "l": l, "p": _encode_p(rng.choice([p, float(p)])), "tol": 1e-12, "k_max": None})
    return out


def _may_stop_early(case, got) -> bool:
    """A walk without k_max that ran out of depth: the only kind whose
    output the early stop may change."""
    return case["fn"] != "bahadur" and case["k_max"] is None and not got["converged"]


def record():
    cases = []
    for case in _cases(random.Random(20260)):
        got = _run(case)
        if not _may_stop_early(case, got):
            cases.append({**case, "want": got})
    with GOLDEN_PATH.open("w") as fh:
        fh.write('{"cases": [\n')
        fh.write(",\n".join(json.dumps(c) for c in cases))
        fh.write("\n]}\n")
    print(f"{len(cases)} cases written to {GOLDEN_PATH}")


GOLDEN = json.loads(GOLDEN_PATH.read_text())["cases"] if GOLDEN_PATH.exists() else []


@pytest.mark.parametrize(
    "case", GOLDEN,
    ids=[f"{c['fn']}-{c['n']}-{c['l']}-{c['p']}-{c.get('tol')}-{c.get('k_max')}" for c in GOLDEN],
)
def test_replay_is_bit_identical(case):
    assert _run(case) == case["want"]


def test_golden_is_recorded():
    assert len(GOLDEN) >= 350


if __name__ == "__main__":
    sys.exit(record())
