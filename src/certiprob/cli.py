"""Command-line front end: every capability as a subcommand.

Output is a deterministic envelope {command, inputs, result, provenance,
warnings} rendered as JSON (default), CSV (flattened key,value rows) or
plain text.  Probabilities accept exact rationals ("1/3") as well as
decimals; rational inputs reach the exact arithmetic paths untouched.

Exit codes: 0 success, 1 domain/numeric error (structured error envelope
on stdout), 2 usage error (argparse diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import warnings
from fractions import Fraction

from . import binom_tail, concentration, gems, lexis, lln_bounds, numerics, ruin, runs

PROB_HELP = "probability: decimal (0.25) or exact rational (1/3)"


def parse_prob(text: str):
    """Decimal -> float, "a/b" -> exact Fraction."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return float(text)


def parse_alpha(text: str):
    """Spectrum generators: phi | phi2 | sqrt:D | quad:x,y,d | number.

    quad:x,y,d means x + y*sqrt(d) with rational x and y.
    """
    t = text.strip().lower()
    if t in ("phi", "golden"):
        return gems.QuadSurd.golden()
    if t in ("phi2", "golden2"):
        return gems.QuadSurd.golden_sq()
    if t.startswith("sqrt:"):
        return gems.QuadSurd.sqrt(int(t.split(":", 1)[1]))
    if t.startswith("quad:"):
        x, y, d = t.split(":", 1)[1].split(",")
        return gems.QuadSurd(Fraction(x), Fraction(y), int(d))
    return parse_prob(text)  # rational or float, checked downstream


def parse_int_list(text: str):
    return [int(x) for x in text.replace(",", " ").split()]


def read_counts_csv(path: str):
    """Header-less CSV, one series per row; single column of counts."""
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            rows.append(int(row[0]))
    return rows


def read_matrix_csv(path: str):
    """Header-less CSV of probabilities, one series per row."""
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            rows.append([float(parse_prob(x)) for x in row])
    return rows


# --------------------------------------------------------------------------
# envelope rendering


def _plainify(value):
    """Envelope-safe scalars: Fractions as strings, tuples as lists."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (list, tuple)):
        return [_plainify(v) for v in value]
    if isinstance(value, dict):
        return {k: _plainify(v) for k, v in value.items()}
    return value


def _flatten(prefix, value, out):
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, out)
    else:
        out.append((prefix, value))


def render(envelope: dict, fmt: str) -> str:
    envelope = _plainify(envelope)
    if fmt == "json":
        return json.dumps(envelope, indent=2)
    rows: list = []
    _flatten("", envelope, rows)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for key, val in rows:
            if isinstance(val, float):
                val = format(val, ".17g")
            writer.writerow([key, val])
        return buf.getvalue().rstrip("\n")
    lines = []
    for key, val in rows:
        if isinstance(val, float):
            val = format(val, ".6g")
        lines.append(f"{key} = {val}")
    return "\n".join(lines)


def emit(args, command: str, inputs: dict, result: dict, provenance, warn):
    envelope = {
        "command": command,
        "inputs": _plainify(inputs),
        "result": _plainify(result),
        "provenance": list(provenance),
        "warnings": list(warn),
    }
    print(render(envelope, args.format))
    return 0


# --------------------------------------------------------------------------
# command handlers


def _tol(args, default):
    if args.tol is not None:
        return args.tol
    if args.global_tol is not None:
        return args.global_tol
    return default


def cmd_tail(args):
    tol = _tol(args, 1e-8)
    query = binom_tail.TailQuery(n=args.n, l=args.l, p=args.p)
    bracket = binom_tail.bracket_tail(query, tol=tol, k_max=args.kmax)
    exact = numerics.binom_tail_exact(args.n, args.l, args.p)
    warn = [] if bracket.converged else ["tolerance not reached before k_max"]
    return emit(
        args,
        "tail",
        {"n": args.n, "l": args.l, "p": args.p, "tol": tol, "kmax": args.kmax},
        {
            "lower": bracket.lower,
            "upper": bracket.upper,
            "k_used": bracket.k_used,
            "converged": bracket.converged,
            "lead_term_log": bracket.lead_term_log,
            "exact": exact,
        },
        ["cf-bracket-forward-recursion", "exact-sum-oracle"],
        warn,
    )


def cmd_bahadur(args):
    value = binom_tail.bahadur_tail(args.n, args.j, args.p)
    return emit(
        args,
        "bahadur",
        {"n": args.n, "j": args.j, "p": args.p},
        {"value": value},
        ["hypergeometric-closed-form"],
        [],
    )


def cmd_lln_bernoulli(args):
    query = lln_bounds.LlnQuery(p=args.p, eps=args.eps, eta=args.eta)
    alpha = lln_bounds.bernoulli_alpha(query)
    n_bound = lln_bounds.bernoulli_n_bound(query)
    return emit(
        args,
        "lln bernoulli",
        {"p": args.p, "eps": args.eps, "eta": args.eta},
        {
            "alpha": alpha,
            "n_bound": n_bound,
            "upper_count_at_n": lln_bounds.upper_count(n_bound, query),
        },
        ["geometric-blocking-bound"],
        [],
    )


def cmd_lln_cantelli(args):
    n = lln_bounds.cantelli_n(args.eps, args.eta)
    return emit(
        args,
        "lln cantelli",
        {"eps": args.eps, "eta": args.eta},
        {"n": n},
        ["all-following-trials-bound"],
        [],
    )


def _counts_from_args(args) -> lexis.CountVector:
    if args.counts_csv:
        m = read_counts_csv(args.counts_csv)
    elif args.m:
        m = parse_int_list(args.m)
    else:
        raise ValueError("provide counts via --counts-csv FILE or --m LIST")
    return lexis.CountVector(m=tuple(m), s=args.s)


def _matrix_from_args(args) -> lexis.TrialMatrix:
    if args.matrix_csv:
        rows = read_matrix_csv(args.matrix_csv)
    else:
        raise ValueError("provide a probability matrix via --matrix-csv FILE")
    return lexis.TrialMatrix(p=tuple(tuple(r) for r in rows))


def cmd_lexis_q(args):
    counts = _counts_from_args(args)
    value = lexis.dispersion_Q(counts, args.p)
    return emit(
        args,
        "lexis q",
        {"m": list(counts.m), "s": args.s, "p": args.p},
        {"Q": float(value)},
        ["dispersion-coefficient"],
        [],
    )


def cmd_lexis_qhat(args):
    counts = _counts_from_args(args)
    value = lexis.empirical_Q_hat(counts)
    warn = []
    if counts.M in (0, counts.N):
        warn.append("degenerate pooled frequency: Q_hat = 1 by definition")
    return emit(
        args,
        "lexis qhat",
        {"m": list(counts.m), "s": args.s},
        {"Q_hat": float(value)},
        ["plug-in-dispersion"],
        warn,
    )


def cmd_lexis_moments(args):
    mean, var, bound1, bound2 = lexis.moments_Q_hat(args.n, args.s, args.p)
    return emit(
        args,
        "lexis moments",
        {"n": args.n, "s": args.s, "p": args.p},
        {
            "mean": float(mean),
            "variance": float(var),
            "bound1": float(bound1),
            "bound2": None if bound2 is None else float(bound2),
        },
        ["exact-moment-sum"],
        [],
    )


def cmd_lexis_d(args):
    trials = _matrix_from_args(args)
    D, regime = lexis.expected_D(trials)
    return emit(
        args,
        "lexis d",
        {"n": trials.n, "s": trials.s},
        {"D": float(D), "regime": regime.value},
        ["exact-expectation"],
        [],
    )


def cmd_runs(args):
    spec = runs.RunSpec(n=args.n, r=args.r, p=args.p)
    methods = {
        "recursive": runs.run_prob_recursive,
        "beta": runs.run_prob_beta,
        "demoivre": runs.run_prob_demoivre,
        "oracle": runs.run_prob_oracle,
    }
    if args.method == "all":
        result = {name: float(fn(spec)) for name, fn in methods.items()}
        prov = list(methods)
    else:
        result = {args.method: float(methods[args.method](spec))}
        prov = [args.method]
    return emit(
        args,
        "runs",
        {"n": args.n, "r": args.r, "p": args.p, "method": args.method},
        result,
        prov,
        [],
    )


def _game_from_args(args) -> ruin.RuinGame:
    a = args.a if args.a is not None else args.alpha
    b = args.b if args.b is not None else args.beta
    return ruin.RuinGame(a=a, b=b, alpha=args.alpha, beta=args.beta, p=float(args.p))


def cmd_ruin_bounds(args):
    game = _game_from_args(args)
    lower, upper = ruin.ruin_bounds_fair(game)
    return emit(
        args,
        "ruin bounds",
        {"a": game.a, "b": game.b, "alpha": game.alpha, "beta": game.beta, "p": args.p},
        {"lower": lower, "upper": upper},
        ["fair-game-bounds"],
        [],
    )


def cmd_ruin_exact(args):
    tol = _tol(args, 1e-10)
    game = _game_from_args(args)
    value = ruin.ruin_exact_chain(game, tol=tol)
    return emit(
        args,
        "ruin exact",
        {"a": game.a, "b": game.b, "alpha": game.alpha, "beta": game.beta,
         "p": args.p, "tol": tol},
        {"ruin_probability": value},
        ["absorbing-chain-banded-solve"],
        [],
    )


def cmd_ruin_roots(args):
    game = _game_from_args(args)
    roots = ruin.ruin_root_equation(game)
    return emit(
        args,
        "ruin roots",
        {"alpha": game.alpha, "beta": game.beta, "p": args.p},
        {"roots": [{"re": z.real, "im": z.imag} for z in roots]},
        ["characteristic-polynomial"],
        [],
    )


def cmd_bernstein_bound(args):
    inp = concentration.BernsteinInput(
        B_n_sq=args.b2, t=args.t, c=args.c, M=args.m_bound
    )
    return emit(
        args,
        "bernstein bound",
        {"B_n_sq": args.b2, "t": args.t, "c": inp.c, "M": args.m_bound},
        {"bound": concentration.bernstein_bound(inp)},
        ["exponential-tail-bound"],
        [],
    )


def cmd_bernstein_check(args):
    if args.family == "uniform":
        half = args.half_width
        sigma_sq = [half * half / 3.0] * args.count
        moment_fn = lambda j, k: half**k / (k + 1.0)
        c = args.c if args.c is not None else half / 3.0
    else:  # two-point +/- sigma
        s = args.scale
        sigma_sq = [s * s] * args.count
        moment_fn = lambda j, k: s**k
        c = args.c if args.c is not None else s
    report = concentration.moment_condition_check(
        sigma_sq, c, moment_fn, k_max=args.kmax
    )
    return emit(
        args,
        "bernstein check",
        {"family": args.family, "count": args.count, "c": c, "kmax": args.kmax},
        {"holds": report.holds, "failures": [list(f) for f in report.failures]},
        ["moment-growth-check"],
        [],
    )


def cmd_bernstein_mc(args):
    if args.seed is None:
        raise ValueError("Monte Carlo runs require an explicit --seed")
    p_hat, se = concentration.mc_abs_sum_tail(
        args.n, args.t, seed=args.seed, samples=args.samples
    )
    inp = concentration.BernsteinInput(B_n_sq=args.n / 3.0, t=args.t, M=1.0)
    return emit(
        args,
        "bernstein mc",
        {"n": args.n, "t": args.t, "samples": args.samples, "seed": args.seed},
        {"p_hat": p_hat, "se": se, "bound": concentration.bernstein_bound(inp)},
        ["seeded-monte-carlo", "exponential-tail-bound"],
        [],
    )


def cmd_shuffle_order(args):
    return emit(
        args,
        "shuffle order",
        {"deck": args.deck},
        {"order": gems.shuffle_order(args.deck)},
        ["multiplicative-order"],
        [],
    )


def cmd_shuffle_perfect(args):
    deck = gems.Deck.identity(args.deck)
    for _ in range(args.times):
        deck = gems.perfect_in_shuffle(deck)
    return emit(
        args,
        "shuffle perfect",
        {"deck": args.deck, "times": args.times},
        {"arrangement": list(deck.order)},
        ["in-shuffle-permutation"],
        [],
    )


def cmd_shuffle_monge(args):
    deck = gems.Deck.identity(args.deck)
    for _ in range(args.times):
        deck = gems.monge_shuffle(deck)
    return emit(
        args,
        "shuffle monge",
        {"deck": args.deck, "times": args.times},
        {"arrangement": list(deck.order), "order": gems.monge_order(args.deck)},
        ["over-under-permutation"],
        [],
    )


def cmd_beatty_pair(args):
    report = gems.beatty_pair_check(parse_alpha(args.alpha), args.horizon)
    return emit(
        args,
        "beatty pair",
        {"alpha": args.alpha, "horizon": args.horizon},
        {
            "beta": float(report.beta),
            "disjoint": report.disjoint,
            "covers": report.covers,
            "first_missing": report.first_missing,
            "first_double": report.first_double,
        },
        ["exact-floor-spectra"],
        [],
    )


def cmd_beatty_triple(args):
    witness = gems.triple_spectrum_search(
        [parse_alpha(a) for a in args.alpha], args.horizon
    )
    return emit(
        args,
        "beatty triple",
        {"alphas": args.alpha, "horizon": args.horizon},
        {
            "witness": witness.witness,
            "kind": witness.kind,
            "inconclusive": witness.inconclusive,
        },
        ["exhaustive-scan"],
        [],
    )


def cmd_beatty_wythoff(args):
    pairs = gems.wythoff_cold(args.count)
    return emit(
        args,
        "beatty wythoff",
        {"count": args.count},
        {"cold_positions": [list(p) for p in pairs]},
        ["golden-ratio-floors"],
        [],
    )


def cmd_partition_exact(args):
    return emit(
        args,
        "partition exact",
        {"n": args.n},
        {"p_n": gems.partition_exact(args.n)},
        ["pentagonal-recurrence"],
        [],
    )


def cmd_partition_asymptotic(args):
    simple, refined = gems.partition_uspensky(args.n)
    return emit(
        args,
        "partition asymptotic",
        {"n": args.n},
        {"simple": simple, "refined": refined},
        ["asymptotic-formulas"],
        [],
    )


# --------------------------------------------------------------------------
# parser assembly


def _add_global_flags(parser, leaf: bool):
    """--format/--tol/--seed work before or after the subcommand.

    Leaf parsers register them with SUPPRESS defaults so a value given
    after the subcommand overrides one given before, and absence leaves
    the top-level default in place.  Leaves owning their own --tol (the
    bracket and chain tolerances) keep it; the global --tol then only
    exists up front for them.
    """
    default = argparse.SUPPRESS if leaf else None
    parser.add_argument(
        "--format", choices=("json", "csv", "plain"),
        default=argparse.SUPPRESS if leaf else "json",
        help="output format (default json)" if not leaf else argparse.SUPPRESS,
    )
    parser.add_argument(
        "--seed", type=int, default=default,
        help="Monte Carlo seed" if not leaf else argparse.SUPPRESS,
    )
    try:
        parser.add_argument(
            "--tol", type=float, default=default, dest="global_tol",
            help="tolerance for subcommands that take one" if not leaf
            else argparse.SUPPRESS,
        )
    except argparse.ArgumentError:
        pass  # leaf already owns a --tol with the same meaning


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="certiprob",
        description="classical probability with certified brackets and oracles",
    )
    _add_global_flags(top, leaf=False)
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("tail", help="certified bracket for P(S_n > l)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--p", type=parse_prob, required=True, help=PROB_HELP)
    p.add_argument("--tol", type=float, default=None, help="relative width target (default 1e-8)")
    p.add_argument("--kmax", type=int, default=None, help="depth cap")
    p.set_defaults(fn=cmd_tail)

    p = sub.add_parser("bahadur", help="P(S_n >= j) via hypergeometric closed form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--p", type=parse_prob, required=True, help=PROB_HELP)
    p.set_defaults(fn=cmd_bahadur)

    lln = sub.add_parser("lln", help="sample-size bounds").add_subparsers(
        dest="sub", required=True
    )
    p = lln.add_parser("bernoulli", help="one-sided geometric-blocking bound")
    p.add_argument("--p", type=parse_prob, required=True, help=PROB_HELP)
    p.add_argument("--eps", type=parse_prob, required=True)
    p.add_argument("--eta", type=parse_prob, required=True)
    p.set_defaults(fn=cmd_lln_bernoulli)
    p = lln.add_parser("cantelli", help="all-following-trials bound")
    p.add_argument("--eps", type=parse_prob, required=True)
    p.add_argument("--eta", type=parse_prob, required=True)
    p.set_defaults(fn=cmd_lln_cantelli)

    lx = sub.add_parser("lexis", help="dispersion analysis").add_subparsers(
        dest="sub", required=True
    )
    for name, fn, needs in (
        ("q", cmd_lexis_q, "counts+p"),
        ("qhat", cmd_lexis_qhat, "counts"),
        ("moments", cmd_lexis_moments, "nsp"),
        ("d", cmd_lexis_d, "matrix"),
    ):
        p = lx.add_parser(name)
        if needs in ("counts+p", "counts"):
            p.add_argument("--counts-csv", default=None,
                           help="header-less CSV, one series count per row")
            p.add_argument("--m", default=None, help="inline counts, e.g. 3,5,2")
            p.add_argument("--s", type=int, required=True, help="trials per series")
        if needs == "counts+p":
            p.add_argument("--p", type=parse_prob, required=True, help=PROB_HELP)
        if needs == "nsp":
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--s", type=int, required=True)
            p.add_argument("--p", type=parse_prob, required=True, help=PROB_HELP)
        if needs == "matrix":
            p.add_argument("--matrix-csv", required=True,
                           help="header-less CSV of p_ij, one series per row")
        p.set_defaults(fn=fn)

    p = sub.add_parser("runs", help="probability of a success run")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--p", type=parse_prob, required=True, help=PROB_HELP)
    p.add_argument(
        "--method",
        choices=("recursive", "beta", "demoivre", "oracle", "all"),
        default="all",
    )
    p.set_defaults(fn=cmd_runs)

    rn = sub.add_parser("ruin", help="unequal-stakes gambler's ruin").add_subparsers(
        dest="sub", required=True
    )
    for name, fn in (("bounds", cmd_ruin_bounds), ("exact", cmd_ruin_exact),
                     ("roots", cmd_ruin_roots)):
        p = rn.add_parser(name)
        p.add_argument("--a", type=int, default=None, help="A's fortune")
        p.add_argument("--b", type=int, default=None, help="B's fortune")
        p.add_argument("--alpha", type=int, required=True, help="A's stake")
        p.add_argument("--beta", type=int, required=True, help="B's stake")
        p.add_argument("--p", type=parse_prob, required=True, help=PROB_HELP)
        if name == "exact":
            p.add_argument("--tol", type=float, default=None)
        p.set_defaults(fn=fn)

    bn = sub.add_parser("bernstein", help="exponential tail bound").add_subparsers(
        dest="sub", required=True
    )
    p = bn.add_parser("bound")
    p.add_argument("--b2", type=float, required=True, help="variance of the sum")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--m-bound", type=float, default=None, help="uniform bound M")
    p.set_defaults(fn=cmd_bernstein_bound)
    p = bn.add_parser("check")
    p.add_argument("--family", choices=("uniform", "two-point"), default="uniform")
    p.add_argument("--half-width", type=float, default=1.0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--kmax", type=int, default=10)
    p.set_defaults(fn=cmd_bernstein_check)
    p = bn.add_parser("mc")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--samples", type=int, default=10**6)
    p.set_defaults(fn=cmd_bernstein_mc)

    sh = sub.add_parser("shuffle", help="perfect and over-under shuffles").add_subparsers(
        dest="sub", required=True
    )
    p = sh.add_parser("order")
    p.add_argument("--deck", type=int, required=True, help="deck size 2n")
    p.set_defaults(fn=cmd_shuffle_order)
    for name, fn in (("perfect", cmd_shuffle_perfect), ("monge", cmd_shuffle_monge)):
        p = sh.add_parser(name)
        p.add_argument("--deck", type=int, required=True, help="deck size 2n")
        p.add_argument("--times", type=int, default=1)
        p.set_defaults(fn=fn)

    bt = sub.add_parser("beatty", help="spectra and Wythoff positions").add_subparsers(
        dest="sub", required=True
    )
    p = bt.add_parser("pair")
    p.add_argument("--alpha", required=True,
                   help="phi | phi2 | sqrt:D | quad:x,y,d | number")
    p.add_argument("--horizon", type=int, required=True)
    p.set_defaults(fn=cmd_beatty_pair)
    p = bt.add_parser("triple")
    p.add_argument("--alpha", action="append", required=True,
                   help="repeat three times")
    p.add_argument("--horizon", type=int, required=True)
    p.set_defaults(fn=cmd_beatty_triple)
    p = bt.add_parser("wythoff")
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(fn=cmd_beatty_wythoff)

    pt = sub.add_parser("partition", help="partition counts").add_subparsers(
        dest="sub", required=True
    )
    p = pt.add_parser("exact")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_partition_exact)
    p = pt.add_parser("asymptotic")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_partition_asymptotic)

    for leaf in _iter_leaf_parsers(top):
        _add_global_flags(leaf, leaf=True)
    return top


def _iter_leaf_parsers(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            seen = set()
            for sp in action.choices.values():
                if id(sp) in seen:
                    continue  # aliases share a parser
                seen.add(id(sp))
                if any(isinstance(a, argparse._SubParsersAction) for a in sp._actions):
                    yield from _iter_leaf_parsers(sp)
                else:
                    yield sp


def _parsed_inputs(args) -> dict:
    """A command's parsed arguments, as its error envelope echoes them.

    The handler and the --format flag are left out, and so are the global
    --seed and --tol when not given.
    """
    inputs = {k: v for k, v in vars(args).items() if k not in ("fn", "cmd", "format")}
    for key in ("seed", "global_tol"):
        if inputs.get(key) is None:
            inputs.pop(key, None)
    return inputs


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = args.fn(args)
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        return code
    except (ValueError, ArithmeticError) as exc:
        inputs = _parsed_inputs(args)
        envelope = {
            "command": " ".join(filter(None, (args.cmd, inputs.pop("sub", None)))),
            "inputs": inputs,
            "result": None,
            "provenance": [],
            "warnings": [],
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        print(render(envelope, args.format))
        return 1


if __name__ == "__main__":
    sys.exit(main())
