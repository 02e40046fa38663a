"""Bit-identity of the Beatty tiling checks and the Monte Carlo harness.

`tests/data/kernel_golden.json` holds reports of `gems.beatty_pair_check`
and `gems.triple_spectrum_search` for `QuadSurd`, `Fraction`, int and
float generators, and `concentration.mc_abs_sum_tail` outputs as
`float.hex`.  The horizons straddle 2^15, and the sample counts straddle
the 20,000-sample chunk, so a change to how either kernel walks its input
shows here.  Every replay must agree exactly.

`python tests/test_kernel_golden.py` rebuilds the file from the same
seeded case list; run it only on code whose outputs are known to be right.
"""

import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from certiprob.concentration import mc_abs_sum_tail
from certiprob.gems import QuadSurd, beatty_pair_check, triple_spectrum_search

GOLDEN_PATH = Path(__file__).parent / "data" / "kernel_golden.json"

EDGE_HORIZONS = [1, 2**15 - 1, 2**15, 2**15 + 1, 500_000]


def _encode_alpha(a) -> str:
    """q:x,y,d for a QuadSurd, f:a/b for a Fraction, i:k for an int, x:hex for a float."""
    if isinstance(a, QuadSurd):
        return f"q:{a.x},{a.y},{a.d}"
    if isinstance(a, Fraction):
        return f"f:{a.numerator}/{a.denominator}"
    if isinstance(a, int):
        return f"i:{a}"
    return f"x:{a.hex()}"


def _decode_alpha(s: str):
    kind, body = s.split(":", 1)
    if kind == "q":
        x, y, d = body.split(",")
        return QuadSurd(Fraction(x), Fraction(y), int(d))
    if kind == "f":
        return Fraction(body)
    if kind == "i":
        return int(body)
    return float.fromhex(body)


def _run(case):
    """The recorded outputs of one case, floats as hex strings."""
    if case["fn"] == "pair":
        r = beatty_pair_check(_decode_alpha(case["alpha"]), case["horizon"])
        return [str(r.beta), r.disjoint, r.covers, r.first_missing, r.first_double]
    if case["fn"] == "triple":
        w = triple_spectrum_search([_decode_alpha(a) for a in case["alphas"]], case["horizon"])
        return [w.witness, w.kind, w.inconclusive]
    t = float.fromhex(case["t"])
    p_hat, se = mc_abs_sum_tail(case["n"], t, seed=case["seed"], samples=case["samples"])
    return [p_hat.hex(), se.hex()]


FIXED_GENERATORS = [
    QuadSurd.golden(),
    QuadSurd.golden_sq(),
    QuadSurd.sqrt(2),
    QuadSurd(Fraction(7, 3), Fraction(-1, 4), 11),
    QuadSurd(Fraction(-99999999), Fraction(1), 10000000076123709),
    Fraction(3, 2),
    Fraction(1681, 1000),
    Fraction(104348, 33215),  # a convergent of pi: the collision comes late
    2,
    3,
    (1 + math.sqrt(5)) / 2,
    2.5,
    3.5,
]

FIXED_TRIPLES = [
    [QuadSurd.golden(), 2.5, QuadSurd.sqrt(2)],
    [Fraction(3, 2), Fraction(7, 4), Fraction(5, 2)],
    [QuadSurd.golden(), QuadSurd.golden_sq(), QuadSurd.sqrt(7)],
    [2, 3, 6],
    # a tiling pair and a third spectrum starting past the first 2^15
    [QuadSurd.golden(), QuadSurd.golden_sq(), Fraction(80001, 2)],
    [QuadSurd.sqrt(2), QuadSurd.sqrt(2).pair_partner(), 2**15 + 1],
    # no witness below 10^6: the search runs out and is inconclusive
    [QuadSurd.golden(), QuadSurd.golden_sq(), 10**6],
]


def _draw_alpha(rng):
    kind = rng.choice(["fraction", "float", "dyadic", "surd", "int"])
    if kind == "fraction":
        den = rng.randint(1, 60000)
        return Fraction(rng.randint(den + 1, 6 * den), den)
    if kind == "float":
        return rng.uniform(1.0001, 6.0)
    if kind == "dyadic":
        return rng.randint(1025, 6 * 1024) / 1024
    if kind == "int":
        return rng.randint(2, 9)
    d = rng.choice([2, 3, 5, 6, 7, 10, 13])
    y = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
    x = Fraction(rng.randint(1, 4 * 64), 64) - y * math.isqrt(d)
    surd = QuadSurd(x, y, d)
    return surd if float(surd) > 1 else QuadSurd(x + 1 - math.floor(float(surd)), y, d)


def _draw_horizon(rng):
    if rng.random() < 0.5:
        return max(1, rng.randint(1, 4) * 2**15 + rng.randint(-3, 3))
    return rng.randint(1, 150_000)


def _draw_triple(rng):
    if rng.random() < 0.4:  # a tiling pair: the witness comes from the third
        surd = _draw_alpha(rng)
        while not isinstance(surd, QuadSurd):
            surd = _draw_alpha(rng)
        third = rng.choice([_draw_alpha(rng), Fraction(rng.randint(2**15, 2**17), rng.randint(1, 3))])
        return [surd, surd.pair_partner(), third]
    return [_draw_alpha(rng) for _ in range(3)]


def _cases(rng):
    """Seeded inputs: pair, triple, then Monte Carlo cases."""
    out = []
    for a in FIXED_GENERATORS:
        for h in EDGE_HORIZONS:
            out.append({"fn": "pair", "alpha": _encode_alpha(a), "horizon": h})
    for _ in range(80):
        out.append({"fn": "pair", "alpha": _encode_alpha(_draw_alpha(rng)), "horizon": _draw_horizon(rng)})
    for gens in FIXED_TRIPLES:
        for h in EDGE_HORIZONS:
            out.append({"fn": "triple", "alphas": [_encode_alpha(a) for a in gens], "horizon": h})
    for _ in range(80):
        gens = _draw_triple(rng)
        out.append({"fn": "triple", "alphas": [_encode_alpha(a) for a in gens], "horizon": _draw_horizon(rng)})
    # n = 40000 rows are wider than any block; draws are n * samples doubles,
    # so the largest sample counts run at the smaller n only
    mc = []
    for n, t_mid, sample_counts in (
        (1, 0.5, [1, 999, 20000, 20001, 10**5]),
        (30, 3.0, [1, 999, 20000, 20001, 10**5]),
        (1000, 30.0, [1, 999, 20000, 20001, 10**5]),
        (40000, 200.0, [1, 3, 999]),
    ):
        for samples in sample_counts:
            big = n * samples > 10**7
            for t in ([t_mid] if big else [0.0, t_mid, math.inf]):
                mc.append((n, t, samples))
    for n, t, samples in mc:
        out.append({"fn": "mc", "n": n, "t": t.hex(), "samples": samples, "seed": rng.randint(0, 2**32)})
    return out


def record():
    cases = [{**c, "want": _run(c)} for c in _cases(random.Random(1927))]
    with GOLDEN_PATH.open("w") as fh:
        fh.write('{"cases": [\n')
        fh.write(",\n".join(json.dumps(c) for c in cases))
        fh.write("\n]}\n")
    print(f"{len(cases)} cases written to {GOLDEN_PATH}")


GOLDEN = json.loads(GOLDEN_PATH.read_text())["cases"] if GOLDEN_PATH.exists() else []


def _case_id(c):
    if c["fn"] == "pair":
        return f"pair-{c['alpha']}-{c['horizon']}"
    if c["fn"] == "triple":
        return f"triple-{'|'.join(c['alphas'])}-{c['horizon']}"
    return f"mc-{c['n']}-{c['t']}-{c['samples']}-{c['seed']}"


@pytest.mark.parametrize("case", GOLDEN, ids=[_case_id(c) for c in GOLDEN])
def test_replay_is_identical(case):
    assert _run(case) == case["want"]


def test_golden_is_recorded():
    kinds = [c["fn"] for c in GOLDEN]
    assert kinds.count("pair") >= 140 and kinds.count("triple") >= 110 and kinds.count("mc") >= 30


if __name__ == "__main__":
    sys.exit(record())
