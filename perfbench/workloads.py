"""The four workloads: seeded, fixed lists of operations of similar cost.

``build(name, seed, tiny)`` makes a workload's inputs, all drawn from
``random.Random("<name>:<seed>")``; together with ``import certiprob`` it
is what ``setup_s`` times.  A seed changes every input but hardly the
cost of a pass: sizes stay within a few per cent of fixed points, and a
tail query's kind, depth and p are set by its position in the list.
Operations call the library through module attributes
(``binom_tail.bracket_tail``), so the tracer's wrappers see them.  Each
op's ``reference`` closure computes its reference with ``refs``, outside
the timed windows.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from certiprob import binom_tail, cli, concentration, gems, lexis, lln_bounds, ruin, runs

from harness import Op
from refs import PARTITION_MAX

# every operation kind, the key of its "<kind>.failed" per-layer metric
KINDS = (
    "binom_tail.bracket", "binom_tail.left", "binom_tail.bahadur",
    "ruin.chain", "ruin.roots",
    "gems.beatty_pair", "gems.beatty_triple", "gems.wythoff", "gems.shuffle_order",
    "gems.monge_order", "gems.partition",
    "runs.recursive", "runs.beta", "runs.demoivre", "runs.oracle",
    "lexis.moments", "lexis.expected_D", "lln_bounds.batch", "concentration.mc",
    "cli.tail", "cli.bahadur", "cli.lln", "cli.lexis", "cli.runs", "cli.ruin",
    "cli.bernstein", "cli.shuffle", "cli.beatty", "cli.partition",
)

FAULT_GUARD_WIDTH = (
    "bracket_tail widens a converged bracket by the fixed 1e-12 guard after "
    "the tol test, so at tol=1e-12 its width always exceeds tol*upper"
)
FAULT_RUNS_BETA = "run_prob_beta with float p cancels catastrophically (returns -2.59e34)"
FAULT_MOMENTS = "moments_Q_hat with float p raises OverflowError once N = n*s >= 1030"
FAULT_ROOT_POLISH = (
    "ruin_root_equation's root polishing fails its own residual check for "
    "some games with alpha well above beta (ArithmeticError)"
)


def against(make_ref, check):
    """An Op.reference: make the reference once, then check(output, reference)."""

    def reference():
        ref = make_ref()
        return lambda out: check(out, ref)

    return reference


def log_stratified_ints(rng, count, lo, hi):
    """One integer from each of `count` equal slices of [log lo, log hi], in order.

    Each draw keeps to the central fifth of its slice, so sizes, and with
    them costs, barely move from seed to seed.
    """
    lo, hi = math.log(lo), math.log(hi)
    width = (hi - lo) / count
    return [int(math.exp(lo + (i + 0.5 + 0.2 * (rng.random() - 0.5)) * width)) for i in range(count)]


GOLDEN = 0.6180339887498949
PLASTIC = 0.7548776662466927


def slot(rng, i, step):
    """A point of the low-discrepancy sequence i*step mod 1, nudged by the seed by under 0.01."""
    return (i * step + 0.01 * rng.random()) % 1.0


def near(rng, center, rel=0.05):
    """An integer within rel of center."""
    return int(center * (1 + rel * (2 * rng.random() - 1)))


# --------------------------------------------------------------------------
# tail workloads


def _tail_ops(rng, count, n_lo, n_hi, draw_p, tols):
    """Right brackets, left brackets and bahadur_tail, n log-uniform, 1-6 sd out.

    draw_p(rng, i) gives the probability of the i-th query.
    """
    from refs import check_bracket, check_close, tail_interval

    ops = []
    for i, n in enumerate(log_stratified_ints(rng, count, n_lo, n_hi)):
        # The position fixes each query's kind, depth and probability and
        # the seed only nudges them, so every seed's list costs the same.
        z = 1.0 + 5.0 * slot(rng, i, GOLDEN)
        p = draw_p(rng, i)
        tol = tols[(i // 3) % len(tols)]
        pf = float(p)
        sd = math.sqrt(n * pf * (1 - pf))
        kind = ("right", "left", "bahadur")[i % 3]
        if kind == "right":
            l = int(n * pf + z * sd)
            query = binom_tail.TailQuery(n=n, l=l, p=p)
            ops.append(Op(
                "binom_tail.bracket", f"bracket_tail({n}, {l}, {p}, tol={tol:g})",
                lambda q=query, t=tol: binom_tail.bracket_tail(q, tol=t),
                against(lambda n=n, l=l, p=p: tail_interval(n, l, p, "right"),
                        lambda br, ref, t=tol: check_bracket(br, ref, t)),
            ))
        elif kind == "left":
            l = int(n * pf - z * sd) - 1
            ops.append(Op(
                "binom_tail.left", f"left_tail_bracket({n}, {l}, {p}, tol={tol:g})",
                lambda n=n, l=l, p=p, t=tol: binom_tail.left_tail_bracket(n, l, p, tol=t),
                against(lambda n=n, l=l, p=p: tail_interval(n, l, p, "left"),
                        lambda br, ref, t=tol: check_bracket(br, ref, t)),
            ))
        else:
            j = int(n * pf + z * sd) + 1
            ops.append(Op(
                "binom_tail.bahadur", f"bahadur_tail({n}, {j}, {p})",
                lambda n=n, j=j, p=p: binom_tail.bahadur_tail(n, j, p),
                against(lambda n=n, j=j, p=p: tail_interval(n, j - 1, p, "right"),
                        lambda v, ref: check_close(v, ref, rel=1e-9)),
            ))
    return ops


def _fixed_bracket(n, l, p, tol, known_fault=None):
    from refs import check_bracket, tail_interval

    query = binom_tail.TailQuery(n=n, l=l, p=p)
    return Op(
        "binom_tail.bracket", f"bracket_tail({n}, {l}, {p}, tol={tol:g})",
        lambda: binom_tail.bracket_tail(query, tol=tol),
        against(lambda: tail_interval(n, l, p, "right"), lambda br, ref: check_bracket(br, ref, tol)),
        known_fault=known_fault,
    )


def tail_float(rng, tiny):
    # n stops at 1e4, where a query takes about 40 ms: this host's fast
    # spells last about 0.2 s, and a best-of-N time only reaches the fast
    # state for an operation that fits inside one.
    ops = _tail_ops(rng, 9 if tiny else 27, 1000, 3000 if tiny else 10000,
                    lambda r, i: 0.15 + 0.3 * slot(r, i, PLASTIC), (1e-6, 1e-7))
    ops.append(_fixed_bracket(9000, 2800, 0.3, 1e-12, FAULT_GUARD_WIDTH))
    return ops


# Exact queries cycle through these by position: the cost of the Fraction
# arithmetic grows with the denominator, so a seeded choice would move
# the workload's total from seed to seed.
EXACT_PS = tuple(Fraction(a, b) for a, b in
                 ((1, 3), (1, 4), (2, 5), (1, 6), (3, 10), (2, 7), (1, 5), (3, 8)))


def tail_exact(rng, tiny):
    ops = _tail_ops(rng, 9 if tiny else 30, 1000, 3000 if tiny else 16000,
                    lambda r, i: EXACT_PS[i % len(EXACT_PS)], (1e-6, 1e-7))
    ops.append(_fixed_bracket(9000, 3090, Fraction(1, 3), 1e-6))
    ops.append(_fixed_bracket(9000, 3090, Fraction(1, 3), 1e-12, FAULT_GUARD_WIDTH))
    return ops


# --------------------------------------------------------------------------
# classics


# The banded solve certifies its residual (<= 1e-10), not its error; the
# error grows with the square of the chain length, to about 4e-9 at 40k
# states, so ruin values are checked to 1e-7 absolute.
RUIN_ABS_TOL = 1e-7


def _ruin_equal(a, b, stake, p):
    from refs import check_close, ruin_equal_stakes

    game = ruin.RuinGame(a=a, b=b, alpha=stake, beta=stake, p=p)
    return Op(
        "ruin.chain", f"ruin_exact_chain(a={a}, b={b}, stake={stake}, p={p:.6g})",
        lambda: ruin.ruin_exact_chain(game),
        against(lambda: ruin_equal_stakes(a, b, stake, p),
                lambda y, ref: check_close(y, ref, rel=0, absolute=RUIN_ABS_TOL)),
    )


def _ruin_fair(a, b, alpha, beta):
    from refs import ruin_fair_bounds

    game = ruin.RuinGame(a=a, b=b, alpha=alpha, beta=beta, p=alpha / (alpha + beta))

    def reference():
        lower, upper = ruin_fair_bounds(a, b, alpha, beta)
        b_side = ruin.ruin_chain_b_side(game)

        def check(y):
            if not lower - 1e-12 <= y <= upper + 1e-12:
                return f"ruin probability {y!r} outside the fair-game bounds [{float(lower)}, {float(upper)}]"
            if abs(y + b_side - 1) > RUIN_ABS_TOL:
                return f"A-ruin {y!r} + B-ruin {b_side!r} != 1"
            return None

        return check

    return Op("ruin.chain", f"ruin_exact_chain(a={a}, b={b}, alpha={alpha}, beta={beta}, fair)",
              lambda: ruin.ruin_exact_chain(game), reference)


def _ruin_roots(alpha, beta, p, known_fault=None):
    from refs import check_roots

    game = ruin.RuinGame(a=alpha, b=beta, alpha=alpha, beta=beta, p=p)
    return Op("ruin.roots", f"ruin_root_equation(alpha={alpha}, beta={beta}, p={p:.6g})",
              lambda: ruin.ruin_root_equation(game),
              lambda: lambda roots: check_roots(roots, alpha, beta, p), known_fault)


def _surd(gen):
    """A generator spec ("surd", x, y, d) as a QuadSurd; others pass through."""
    return gems.QuadSurd(gen[1], gen[2], gen[3]) if isinstance(gen, tuple) else gen


def _beatty_pair(gen, horizon):
    """Pair tiling against exact floors; program floors against mpmath at sampled n."""
    from refs import first_defect, floor_fn, mp_floor, mp_value

    alpha = _surd(gen)

    def reference():
        if isinstance(gen, tuple):
            missing = double = None  # Beatty's theorem: an irrational pair tiles
        else:
            partner = gen / (gen - 1) if isinstance(gen, Fraction) else gen / (gen - 1.0)
            missing, double = first_defect([gen, partner], horizon)
        spec = gems.spectrum(alpha, min(horizon, 200000)).values
        value = mp_value(gen)
        exact = floor_fn(gen)
        sample = random.Random(horizon).sample(range(1, len(spec) + 1), min(50, len(spec)))
        bad = [n for n in sample if spec[n - 1] != exact(n) or
               (not isinstance(gen, Fraction) and spec[n - 1] != mp_floor(n, value))]

        def check(report):
            if bad:
                return f"floor({bad[0]} * alpha) differs from the reference floor"
            got = (report.first_missing, report.first_double)
            if got != (missing, double) or report.ok != (missing is None and double is None):
                return f"tiling report {got} != reference {(missing, double)}"
            return None

        return check

    return Op("gems.beatty_pair", f"beatty_pair_check({gen!r}, {horizon})",
              lambda: gems.beatty_pair_check(alpha, horizon), reference)


def _beatty_triple(gens, horizon):
    from refs import first_defect

    alphas = [_surd(g) for g in gens]

    def reference():
        missing, double = first_defect(gens, horizon, need_both=False)
        cands = [(w, k) for w, k in ((missing, "missing"), (double, "double")) if w is not None]
        want = min(cands) if cands else (None, None)

        def check(w):
            if (w.witness, w.kind) != want or w.inconclusive != (want[0] is None):
                return f"triple witness {(w.witness, w.kind)} != reference {want}"
            return None

        return check

    return Op("gems.beatty_triple", f"triple_spectrum_search({gens!r}, {horizon})",
              lambda: gems.triple_spectrum_search(alphas, horizon), reference)


def _runs_op(method, n, r, p, known_fault=None):
    from refs import check_close, run_prob_markov

    spec = runs.RunSpec(n=n, r=r, p=p)
    fn_name = f"run_prob_{method}"

    def reference():
        ref = run_prob_markov(n, r, p)
        if isinstance(p, Fraction):
            return lambda y: None if y == ref else f"{fn_name} = {y!r} != exact {ref}"
        return lambda y: check_close(y, ref, rel=1e-9, absolute=1e-12)

    return Op(f"runs.{method}", f"{fn_name}({n}, {r}, {p})",
              lambda: getattr(runs, fn_name)(spec), reference, known_fault)


def _moments_op(n, s, p, known_fault=None):
    from refs import check_moments, q_hat_moments_enumerated

    def reference():
        exact = None
        if isinstance(p, Fraction) and (s + 1) ** n <= 5000:
            exact = q_hat_moments_enumerated(n, s, p)[1]
        return lambda out: check_moments(out, n, s, p, exact)

    return Op("lexis.moments", f"moments_Q_hat({n}, {s}, {p})",
              lambda: lexis.moments_Q_hat(n, s, p), reference, known_fault)


def _expected_d_op(rng, regime, n, s):
    from refs import check_close, expected_d_exact

    if regime == "bernoulli":
        x = rng.randint(10, 90) / 100
        rows = [[x] * s for _ in range(n)]
    elif regime == "lexis":
        rows = [[rng.randint(10, 90) / 100] * s for _ in range(n)]
    else:  # poisson: identical rows that vary within
        row = [rng.randint(10, 90) / 100 for _ in range(s)]
        rows = [list(row) for _ in range(n)]
    trials = lexis.TrialMatrix(p=tuple(tuple(r) for r in rows))

    def reference():
        ref = expected_d_exact(rows)

        def check(out):
            D, got = out
            if got.value != regime:
                return f"regime {got.value} != {regime}"
            # naive float sums of N terms carry up to about N * 2^-53 relative error
            return check_close(D, ref, rel=n * s * 2.0**-50)

        return check

    return Op("lexis.expected_D", f"expected_D({regime}, {n}x{s})",
              lambda: lexis.expected_D(trials), reference)


def _lln_op(queries, cantelli):
    from refs import cantelli_ref, lln_n_bound_ref

    built = [lln_bounds.LlnQuery(p=p, eps=e, eta=h) for p, e, h in queries]

    def run():
        return ([lln_bounds.bernoulli_n_bound(q) for q in built],
                [lln_bounds.cantelli_n(e, h) for e, h in cantelli])

    def reference():
        want = ([lln_n_bound_ref(*q) for q in queries], [cantelli_ref(e, h) for e, h in cantelli])
        return lambda got: None if got == want else f"sample sizes {got} != reference {want}"

    return Op("lln_bounds.batch", f"lln_bounds x{len(queries) + len(cantelli)}", run, reference)


def _mc_op(n, t, seed, samples):
    from refs import check_mc

    def reference():
        first = concentration.mc_abs_sum_tail(n, t, seed=seed, samples=samples)
        return lambda out: check_mc(out, n, t, samples, first)

    return Op("concentration.mc", f"mc_abs_sum_tail({n}, {t:.4g}, samples={samples})",
              lambda: concentration.mc_abs_sum_tail(n, t, seed=seed, samples=samples), reference)


def _shuffle_op(two_n):
    from refs import check_shuffle_order

    return Op("gems.shuffle_order", f"shuffle_order({two_n})",
              lambda: gems.shuffle_order(two_n),
              lambda: lambda order: check_shuffle_order(order, two_n))


def _monge_op(two_n):
    from refs import monge_order_ref

    def reference():
        want = monge_order_ref(two_n)
        return lambda got: None if got == want else f"monge_order {got} != {want}"

    return Op("gems.monge_order", f"monge_order({two_n})", lambda: gems.monge_order(two_n), reference)


def _wythoff_op(count):
    from refs import check_wythoff, mp_value

    phi = ("surd", Fraction(1, 2), Fraction(1, 2), 5)
    return Op("gems.wythoff", f"wythoff_cold({count})", lambda: gems.wythoff_cold(count),
              against(lambda: mp_value(phi), lambda pairs, phi_mp: check_wythoff(pairs, count, phi_mp)))


def _cold_partitions():
    """Empty partition_exact's memo but for p(0), so the next call recurs from scratch."""
    with gems._PARTITION_LOCK:
        del gems._PARTITION_CACHE[1:]


def _partition_op(n):
    from refs import check_partition, load_partition_table

    return Op("gems.partition", f"partition_exact({n}), cold", lambda: gems.partition_exact(n),
              against(load_partition_table, lambda value, table: check_partition(value, n, table)),
              prepare=_cold_partitions)


def _rand_surd(rng):
    """x + sqrt(d) for a random non-square d, with the half-integer x that puts it near 2.

    Keeping alpha and its partner near 2 keeps the largest floor array,
    and so the peak memory, the same for every seed.
    """
    d = rng.choice([2, 3, 5, 6, 7, 10, 11, 13])
    return ("surd", Fraction(round((2 - math.sqrt(d)) * 2), 2), Fraction(1, 1), d)


def _rand_fraction(rng, lo, hi):
    """k/1000 in lowest terms: _floors recomputes exactly every multiple that
    lands on an integer, one in every denominator, so a smaller denominator
    would make the cost depend on the seed."""
    while math.gcd(k := rng.randint(lo, hi), 1000) != 1:
        pass
    return Fraction(k, 1000)


def _screened_float(rng, lo, hi, horizon):
    """A float alpha whose multiples up to horizon, and its partner's, sit 1e-7 clear of integers.

    The program refuses float multiples within 1e-9 of an integer, by
    design; the wider screen keeps every seed's floats unambiguous.
    """
    while True:
        a = rng.uniform(lo, hi)
        if all(np.abs((x := np.arange(1, int(horizon / g) + 3) * g) - np.rint(x)).min() > 1e-7
               for g in (a, a / (a - 1.0))):
            return a


def _prime_deck(start: int) -> int:
    """Deck size 2n with 2n+1 the least prime >= start.

    A prime modulus makes shuffle_order's trial division run to sqrt(2n+1),
    so the cost follows the size and not the luck of the factorization.
    """
    m = start | 1
    while not all(pow(b, m - 1, m) == 1 for b in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)):
        m += 2
    return m - 1


def classics(rng, tiny):
    # Sizes put most operations near 10-20 ms, so the median operation sits
    # in a dense cluster and no one operation dominates a pass.
    k = 10 if tiny else 1
    ops = []
    for a in log_stratified_ints(rng, 3, 4000 // k, 6000 // k):
        ops.append(_ruin_equal(a, a + rng.randint(-200 // k, 200 // k), rng.choice((1, 2)),
                               rng.uniform(0.498, 0.502)))
    for alpha, beta in ((2, 1), (3, 2)):
        a = near(rng, 5000 // k)
        ops.append(_ruin_fair(a, a + rng.randint(0, 100), alpha, beta))
    # Seeded games keep alpha <= beta: with alpha far above beta the root
    # polishing fails on some games only, which no seed may hit; one fixed
    # game keeps that fault in view.
    for deg in log_stratified_ints(rng, 2, 40 // k + 4, 80 // k + 4):
        alpha = rng.randint(1, deg // 2)
        ops.append(_ruin_roots(alpha, deg - alpha, rng.uniform(0.2, 0.8)))
    ops.append(_ruin_roots(72, 1, 0.47766, FAULT_ROOT_POLISH))
    # Spectra cost one floor per multiple below the horizon, so each
    # horizon is set from the generators to fix that count.
    floors = 500000 // k
    ops.append(_beatty_pair(("surd", Fraction(1, 2), Fraction(1, 2), 5), near(rng, floors, 0.01)))
    ops.append(_beatty_pair(_rand_surd(rng), near(rng, floors, 0.01)))
    ops.append(_beatty_pair(_rand_fraction(rng, 1001, 2999), near(rng, floors // 2, 0.01)))
    ops.append(_beatty_pair(_screened_float(rng, 1.1, 3.0, floors), near(rng, floors, 0.01)))
    for gens, count in (([_rand_surd(rng) for _ in range(3)], floors),
                        ([_rand_fraction(rng, 1001, 3999) for _ in range(3)], floors),
                        ([_screened_float(rng, 1.5, 4.0, floors // 2) for _ in range(3)], floors // 2)):
        per_unit = sum(1 / float(_surd(g)) for g in gens)
        ops.append(_beatty_triple(gens, near(rng, count / per_unit, 0.01)))
    ops.append(_wythoff_op(near(rng, 50000 // k)))
    for start in log_stratified_ints(rng, 2, 2 * 10**10 // k**4, 5 * 10**10 // k**4):
        ops.append(_shuffle_op(_prime_deck(start)))
    ops.append(_monge_op(2 * near(rng, 4000 // k, 0.02)))
    ops.append(_partition_op(near(rng, PARTITION_MAX // 2 // k)))
    ops.append(_runs_op("recursive", near(rng, 50000 // k), rng.randint(14, 17),
                        rng.uniform(0.45, 0.55)))
    ops.append(_runs_op("beta", near(rng, 1500 // k), rng.randint(8, 10), Fraction(1, 2)))
    ops.append(_runs_op("beta", 2000, 3, 0.9, FAULT_RUNS_BETA))
    ops.append(_runs_op("demoivre", near(rng, 350 // k), rng.randint(3, 5),
                        rng.choice((Fraction(1, 2), Fraction(2, 3)))))
    ops.append(_runs_op("oracle", near(rng, 6000 // k), 13, rng.uniform(0.45, 0.55)))
    ops.append(_moments_op(20, rng.randint(38, 40), rng.uniform(0.2, 0.5)))
    ops.append(_moments_op(12, 12, rng.choice(EXACT_PS)))
    ops.append(_moments_op(5, 4, rng.choice(EXACT_PS)))
    ops.append(_moments_op(40, 30, 0.3, FAULT_MOMENTS))
    for regime in ("bernoulli", "lexis", "poisson"):
        ops.append(_expected_d_op(rng, regime, near(rng, 250 // k, 0.02), near(rng, 250 // k, 0.02)))
    ops.append(_lln_op(
        [(Fraction(rng.randint(2, 8), 10), Fraction(1, rng.randint(90, 110)),
          Fraction(1, 10 ** rng.randint(35, 45))) for _ in range(15)],
        [(rng.uniform(0.001, 0.1), rng.uniform(0.001, 0.1)) for _ in range(20)]))
    ops.append(_mc_op(30, rng.uniform(10.0, 14.0), rng.randrange(2**32), 100000 // k))
    return ops


# --------------------------------------------------------------------------
# cli


def _cli_main(argv):
    """cli.main(argv) in this process: (exit code, standard output)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _cli_op(family, argv, result_reference, prepare=None):
    """result_reference() -> check(result dict), wrapped to demand exit 0 and an envelope that parses."""

    def reference():
        check = result_reference()

        def check_envelope(out):
            code, text = out
            if code != 0:
                return f"exit code {code}"
            try:
                env = json.loads(text)
            except json.JSONDecodeError as exc:
                return f"envelope does not parse: {exc}"
            if env.get("error") or not isinstance(env.get("result"), dict):
                return f"error envelope: {env.get('error')}"
            return check(env["result"])

        return check_envelope

    return Op(f"cli.{family}", "certiprob " + " ".join(argv), lambda: _cli_main(argv), reference,
              prepare=prepare)


def cli_ops(rng, tiny):
    from refs import (check_bracket, check_close, check_moments, check_mc, check_partition,
                      check_shuffle_order, lln_n_bound_ref, load_partition_table,
                      q_hat_moments_enumerated, ruin_equal_stakes, run_prob_markov, tail_interval)

    k = 10 if tiny else 1
    ops = []

    def tail_check(n, l, p, tol):
        def check(res, ref):
            br = SimpleNamespace(lower=res["lower"], upper=res["upper"], converged=res["converged"])
            return check_bracket(br, ref, tol) or check_close(res["exact"], ref, rel=1e-9)

        return against(lambda: tail_interval(n, l, p, "right"), check)

    # In-process commands are sized near 5-30 ms each, like the classics list.
    n = near(rng, 6000 // k)
    p = rng.uniform(0.2, 0.4)  # never a short dyadic like 0.25, whose lead term is cheap
    l = int(n * p + rng.uniform(2, 4) * math.sqrt(n * p * (1 - p)))
    ops.append(_cli_op("tail", ["tail", "--n", str(n), "--l", str(l), "--p", str(p), "--tol", "1e-6"],
                       tail_check(n, l, p, 1e-6)))
    n = near(rng, 9000 // k)
    l = int(n / 3 + rng.uniform(1, 3) * math.sqrt(n * 2 / 9))
    ops.append(_cli_op("tail", ["tail", "--n", str(n), "--l", str(l), "--p", "1/3", "--tol", "1e-6"],
                       tail_check(n, l, Fraction(1, 3), 1e-6)))

    n = near(rng, 5000 // k)
    p = rng.uniform(0.2, 0.4)  # never a short dyadic like 0.25, whose lead term is cheap
    j = int(n * p + rng.uniform(1, 4) * math.sqrt(n * p * (1 - p))) + 1
    ops.append(_cli_op("bahadur", ["bahadur", "--n", str(n), "--j", str(j), "--p", str(p)],
                       against(lambda n=n, j=j, p=p: tail_interval(n, j - 1, p, "right"),
                               lambda res, ref: check_close(res["value"], ref, rel=1e-9))))

    pe, eps, eta = Fraction(rng.randint(1, 9), 10), Fraction(1, rng.randint(50, 200)), Fraction(1, 10 ** rng.randint(6, 30))
    argv = ["lln", "bernoulli", "--p", str(pe), "--eps", str(eps), "--eta", str(eta)]
    ops.append(_cli_op("lln", argv, against(
        lambda: lln_n_bound_ref(pe, eps, eta),
        lambda res, want: None if res["n_bound"] == want else f"n_bound {res['n_bound']} != {want}")))

    ln, ls, lp = 6, 3, rng.choice(EXACT_PS)
    argv = ["lexis", "moments", "--n", str(ln), "--s", str(ls), "--p", str(lp)]

    ops.append(_cli_op("lexis", argv, against(
        lambda: q_hat_moments_enumerated(ln, ls, lp)[1],
        lambda res, var: check_moments((res["mean"], res["variance"], res["bound1"], res["bound2"]),
                                       ln, ls, lp) or check_close(res["variance"], float(var), rel=1e-12))))

    rn, rr, rp = near(rng, 250 // k), rng.randint(3, 5), rng.choice((Fraction(1, 2), Fraction(2, 3)))
    argv = ["runs", "--n", str(rn), "--r", str(rr), "--p", str(rp), "--method", "all"]

    ops.append(_cli_op("runs", argv, against(
        lambda: float(run_prob_markov(rn, rr, rp)),
        lambda res, ref: next((f"{m}: {msg}" for m in ("recursive", "beta", "demoivre", "oracle")
                               if (msg := check_close(res[m], ref, rel=1e-12))), None))))

    fortune = near(rng, 5000 // k)
    ruin_p = round(rng.uniform(0.499, 0.501), 4)
    argv = ["ruin", "exact", "--a", str(fortune), "--b", str(fortune), "--alpha", "1", "--beta", "1",
            "--p", str(ruin_p)]
    ops.append(_cli_op("ruin", argv, against(
        lambda: ruin_equal_stakes(fortune, fortune, 1, ruin_p),
        lambda res, ref: check_close(res["ruin_probability"], ref, rel=0, absolute=RUIN_ABS_TOL))))

    mseed, mt, msamples = rng.randrange(2**31), round(rng.uniform(10, 14), 3), 100000 // k
    argv = ["--seed", str(mseed), "bernstein", "mc", "--n", "30", "--t", str(mt), "--samples", str(msamples)]

    ops.append(_cli_op("bernstein", argv, against(
        lambda: concentration.mc_abs_sum_tail(30, mt, seed=mseed, samples=msamples),
        lambda res, first: check_mc((res["p_hat"], res["se"]), 30, mt, msamples, first))))

    deck = _prime_deck(near(rng, 10**10 // k**4))
    ops.append(_cli_op("shuffle", ["shuffle", "order", "--deck", str(deck)],
                       lambda: lambda res: check_shuffle_order(res["order"], deck)))

    horizon = near(rng, 500000 // k)
    ops.append(_cli_op("beatty", ["beatty", "pair", "--alpha", "phi", "--horizon", str(horizon)],
                       lambda: lambda res: None if (res["disjoint"], res["covers"]) == (True, True)
                       and abs(res["beta"] - (3 + 5**0.5) / 2) < 1e-12 else f"phi pair does not tile: {res}"))

    pn = near(rng, PARTITION_MAX // 2 // k)
    ops.append(_cli_op("partition", ["partition", "exact", "--n", str(pn)],
                       against(load_partition_table, lambda res, table: check_partition(res["p_n"], pn, table)),
                       prepare=_cold_partitions))
    return ops


BUILDERS = {"tail-float": tail_float, "tail-exact": tail_exact, "classics": classics, "cli": cli_ops}


def build(name: str, seed: int, tiny: bool = False):
    """The workload's operation list for this seed."""
    return BUILDERS[name](random.Random(f"{name}:{seed}"), tiny)
