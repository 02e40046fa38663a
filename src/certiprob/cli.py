"""Command-line front end: every capability as a subcommand.

Output is a deterministic envelope {command, inputs, result, provenance,
warnings} rendered as JSON (default), CSV (flattened key,value rows) or
plain text.  Probabilities accept exact rationals ("1/3") as well as
decimals; rational inputs reach the exact arithmetic paths untouched.

One table drives the command line.  A subcommand is one COMMANDS row,
keyed by its path ("tail",) or ("ruin", "exact"), holding its help, its
argument specs, its provenance and a handler.  The handler takes the
parsed arguments and returns (inputs, result); build_parser builds every
parser from the table and main wraps what the handler returns in the
envelope.  The parser is built on the first main call and shared by
every later call in the process.  An argv that begins with a command
path is parsed by that row's leaf parser alone (_parse); JSON is written
by _json, json.dumps(indent=2)'s bytes with one join per container.

Warnings have one channel, Python's warnings module: a handler issues
its own notes with warnings.warn, as the library and numpy do, and main
records every one in the envelope's warnings, success or error, in the
order they were emitted.

Exit codes: 0 success, 1 domain/numeric error, unreadable input file or
refused memory allocation (structured error envelope on stdout), a
failed self-check (`runs --method all` methods that disagree: the
envelope keeps its result and names the gap in warnings) or a stdout
closed early (`| head -1`), 2 usage error (argparse diagnostic on
stderr).  stderr carries nothing but argparse's usage diagnostics.  JSON
has no form for inf or nan, so every envelope, success or error, echoes
a non-finite input as its repr string ("inf", "nan"), and render refuses
a non-finite result with NonFiniteResultError (exit 1), in every format.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import math
import os
import re
import sys
import warnings
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import binom_tail, concentration, gems, lexis, lln_bounds, numerics, ruin, runs

PROB_HELP = "probability: decimal (0.25) or exact rational (1/3)"
FORMATS = ("json", "csv", "plain")


def parse_prob(text: str):
    """Decimal -> float, "a/b" -> exact Fraction; b = 0 is a ValueError (a usage error)."""
    text = text.strip()
    if "/" in text:
        num, den = map(int, text.split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(num, den)
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
    with open(path, newline="") as fh:
        return [int(row[0]) for row in csv.reader(fh) if row]


def read_matrix_csv(path: str):
    """Header-less CSV of probabilities, one series per row, each cell read
    by parse_prob, so "1/5" stays an exact Fraction."""
    with open(path, newline="") as fh:
        return [[parse_prob(x) for x in row] for row in csv.reader(fh) if row]


# --------------------------------------------------------------------------
# envelope rendering


def _leaf(value):
    """A Fraction as "a/b" text and a complex as {"re", "im"}; _json's default."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    raise TypeError(f"{type(value).__name__} has no envelope form")


def _json(value, indent="\n") -> str:
    """value as json.dumps(value, indent=2, allow_nan=False, default=_leaf)
    writes it (str keys), where an indent selects a pure-Python encoder with
    a generator per container; indent is the newline and indent of its depth."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        # a dealt deck is a million ints: each is written without a call
        items = [int.__repr__(v) if type(v) is int else _json(v, inner) for v in value]
        return f"[{inner}{(',' + inner).join(items)}{indent}]" if items else "[]"
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in value.items()]
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}" if items else "{}"
    return _json(_leaf(value), indent)


def _flatten(prefix, value, out):
    if isinstance(value, (Fraction, complex)):
        value = _leaf(value)
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, out)
    else:
        out.append((prefix, value))


class NonFiniteResultError(ArithmeticError):
    """A success envelope would carry inf or nan, which JSON has no form for."""


def _non_finite(value) -> bool:
    return isinstance(value, float) and not math.isfinite(value)


def _echo(inputs: dict) -> dict:
    """The inputs as an envelope echoes them: an inf or nan as its repr string."""
    return {k: repr(v) if _non_finite(v) else v for k, v in inputs.items()}


def _refuse_non_finite(rows) -> None:
    bad = [f"{key} = {val!r}" for key, val in rows if _non_finite(val)]
    if bad:
        raise NonFiniteResultError(f"{', '.join(bad)}: an envelope carries only finite numbers")


def render(envelope: dict, fmt: str) -> str:
    """The envelope as text, or NonFiniteResultError if it holds inf or nan."""
    rows: list = []
    if fmt == "json":
        try:
            return _json(envelope)
        except ValueError:  # an inf or nan, or an int past str's digit limit
            _flatten("", envelope, rows)
            _refuse_non_finite(rows)
            raise
    _flatten("", envelope, rows)
    _refuse_non_finite(rows)
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


# --------------------------------------------------------------------------
# handlers: parsed arguments -> (inputs, result); warnings go through warnings.warn


def _tol(args, default):
    if args.tol is not None:
        return args.tol
    if args.global_tol is not None:
        return args.global_tol
    return default


def _tail(args):
    tol = _tol(args, 1e-8)
    query = binom_tail.TailQuery(n=args.n, l=args.l, p=args.p)
    bracket = binom_tail.bracket_tail(query, tol=tol, k_max=args.kmax)
    exact = numerics.binom_tail_exact(args.n, args.l, args.p)
    if not bracket.converged:
        warnings.warn("tolerance below the rounding floor of the bracket" if args.kmax is None
                      else "tolerance not reached before k_max")
    return (
        {"n": args.n, "l": args.l, "p": args.p, "tol": tol, "kmax": args.kmax},
        {
            "lower": bracket.lower,
            "upper": bracket.upper,
            "k_used": bracket.k_used,
            "converged": bracket.converged,
            "lead_term_log": bracket.lead_term_log,
            "exact": exact,
        },
    )


def _lln_bernoulli(args):
    query = lln_bounds.LlnQuery(p=args.p, eps=args.eps, eta=args.eta)
    alpha = lln_bounds.bernoulli_alpha(query)  # once: bernoulli_n_bound would make it again
    n_bound = lln_bounds._n_bound(query, alpha)
    return (
        {"p": args.p, "eps": args.eps, "eta": args.eta},
        {
            "alpha": alpha,
            "n_bound": n_bound,
            "upper_count_at_n": lln_bounds.upper_count(n_bound, query),
        },
    )


def _counts(args) -> lexis.CountVector:
    if args.counts_csv:
        m = read_counts_csv(args.counts_csv)
    elif args.m:
        m = parse_int_list(args.m)
    else:
        raise ValueError("provide counts via --counts-csv FILE or --m LIST")
    return lexis.CountVector(m=tuple(m), s=args.s)


def _lexis_q(args):
    counts = _counts(args)
    value = lexis.dispersion_Q(counts, args.p)
    return {"m": list(counts.m), "s": args.s, "p": args.p}, {"Q": float(value)}


def _lexis_qhat(args):
    counts = _counts(args)
    value = lexis.empirical_Q_hat(counts)
    if counts.M in (0, counts.N):
        warnings.warn("degenerate pooled frequency: Q_hat = 1 by definition")
    return {"m": list(counts.m), "s": args.s}, {"Q_hat": float(value)}


def _lexis_moments(args):
    mean, var, bound1, bound2 = lexis.moments_Q_hat(args.n, args.s, args.p)
    return (
        {"n": args.n, "s": args.s, "p": args.p},
        {
            "mean": float(mean),
            "variance": float(var),
            "bound1": float(bound1),
            "bound2": None if bound2 is None else float(bound2),
        },
    )


def _lexis_d(args):
    trials = lexis.TrialMatrix(p=read_matrix_csv(args.matrix_csv))
    D, regime = lexis.expected_D(trials)
    return {"n": trials.n, "s": trials.s}, {"D": float(D), "regime": regime.value}


RUN_METHODS = {
    "recursive": runs.run_prob_recursive,
    "beta": runs.run_prob_beta,
    "demoivre": runs.run_prob_demoivre,
    "oracle": runs.run_prob_oracle,
}


class SelfCheckFailed(Exception):
    """A handler's own cross-check failed; args are its (inputs, result)."""


def _runs(args):
    spec = runs.RunSpec(n=args.n, r=args.r, p=args.p)
    names = list(RUN_METHODS) if args.method == "all" else [args.method]
    inputs = {"n": args.n, "r": args.r, "p": args.p, "method": args.method}
    result = {name: float(RUN_METHODS[name](spec)) for name in names}
    gaps = [(a, b) for a, b in itertools.combinations(names, 2)
            if abs(result[a] - result[b]) > runs.BETA_TOL]
    for a, b in gaps:
        warnings.warn(f"methods {a} and {b} differ by {abs(result[a] - result[b]):.3g}, "
                      f"above the agreement tolerance {runs.BETA_TOL:g}")
    if gaps:
        raise SelfCheckFailed(inputs, result)
    return inputs, result


def _game(args) -> ruin.RuinGame:
    a = args.a if args.a is not None else args.alpha
    b = args.b if args.b is not None else args.beta
    return ruin.RuinGame(a=a, b=b, alpha=args.alpha, beta=args.beta, p=float(args.p))


def _ruin_bounds(args):
    game = _game(args)
    lower, upper = ruin.ruin_bounds_fair(game)
    return (
        {"a": game.a, "b": game.b, "alpha": game.alpha, "beta": game.beta, "p": args.p},
        {"lower": lower, "upper": upper},
    )


def _ruin_exact(args):
    tol = _tol(args, 1e-10)
    game = _game(args)
    value = ruin.ruin_exact_chain(game, tol=tol)
    return (
        {"a": game.a, "b": game.b, "alpha": game.alpha, "beta": game.beta,
         "p": args.p, "tol": tol},
        {"ruin_probability": value},
    )


def _ruin_roots(args):
    game = _game(args)
    return (
        {"alpha": game.alpha, "beta": game.beta, "p": args.p},
        {"roots": ruin.ruin_root_equation(game)},
    )


def _bernstein_bound(args):
    inp = concentration.BernsteinInput(B_n_sq=args.b2, t=args.t, c=args.c, M=args.m_bound)
    return (
        {"B_n_sq": args.b2, "t": args.t, "c": inp.c, "M": args.m_bound},
        {"bound": concentration.bernstein_bound(inp)},
    )


def _bernstein_check(args):
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
    try:
        report = concentration.moment_condition_check(sigma_sq, c, moment_fn, k_max=args.kmax)
    except RuntimeError as exc:  # the check wraps the OverflowError of a float power
        raise OverflowError(f"{exc}: the moment overflows a float") from exc
    return (
        {"family": args.family, "count": args.count, "c": c, "kmax": args.kmax},
        {"holds": report.holds, "failures": report.failures},
    )


def _bernstein_mc(args):
    if args.seed is None:
        raise ValueError("Monte Carlo runs require an explicit --seed")
    p_hat, se = concentration.mc_abs_sum_tail(args.n, args.t, seed=args.seed, samples=args.samples)
    inp = concentration.BernsteinInput(B_n_sq=args.n / 3.0, t=args.t, M=1.0)
    return (
        {"n": args.n, "t": args.t, "samples": args.samples, "seed": args.seed},
        {"p_hat": p_hat, "se": se, "bound": concentration.bernstein_bound(inp)},
    )


def _dealt(deck: int) -> int:
    """The deck size, refused above MAX_DECK cards: the envelope prints every card."""
    if deck > MAX_DECK:
        raise ValueError(
            f"deck size must be at most {MAX_DECK} to print its arrangement, got {deck}")
    return deck


def _beatty_pair(args):
    report = gems.beatty_pair_check(parse_alpha(args.alpha), args.horizon)
    return (
        {"alpha": args.alpha, "horizon": args.horizon},
        {
            "beta": float(report.beta),
            "disjoint": report.disjoint,
            "covers": report.covers,
            "first_missing": report.first_missing,
            "first_double": report.first_double,
        },
    )


def _beatty_triple(args):
    witness = gems.triple_spectrum_search([parse_alpha(a) for a in args.alpha], args.horizon)
    return (
        {"alphas": args.alpha, "horizon": args.horizon},
        {"witness": witness.witness, "kind": witness.kind, "inconclusive": witness.inconclusive},
    )


def _partition_asymptotic(args):
    simple, refined = gems.partition_uspensky(args.n)
    return {"n": args.n}, {"simple": simple, "refined": refined}


# --------------------------------------------------------------------------
# the command table


def _arg(flag, **kwargs):
    return flag, kwargs


def _int(flag, **kwargs):
    return _arg(flag, type=int, required=True, **kwargs)


_N = _int("--n")
_P = _arg("--p", type=parse_prob, required=True, help=PROB_HELP)
_EPS = _arg("--eps", type=parse_prob, required=True)
_ETA = _arg("--eta", type=parse_prob, required=True)
_T = _arg("--t", type=float, required=True)
_C = _arg("--c", type=float)
_COUNTS = [
    _arg("--counts-csv", help="header-less CSV, one series count per row"),
    _arg("--m", help="inline counts, e.g. 3,5,2"),
    _int("--s", help="trials per series"),
]
_GAME = [
    _arg("--a", type=int, help="A's fortune"),
    _arg("--b", type=int, help="B's fortune"),
    _int("--alpha", help="A's stake"),
    _int("--beta", help="B's stake"),
    _P,
]
_DECK = _int("--deck", help="deck size 2n")
# cards in the largest arrangement `shuffle perfect` and `shuffle monge` print
MAX_DECK = 10**6
_DEALT_DECK = _int("--deck", help=f"deck size 2n, at most {MAX_DECK} (every card is printed)")
_TIMES = _arg("--times", type=int, default=1)
_HORIZON = _int("--horizon")

# path -> (help or None, argument specs, provenance, handler).  Provenance
# None means the result keys: `runs` reports the methods that ran.
COMMANDS = {
    ("tail",): (
        "certified bracket for P(S_n > l)",
        [_N, _int("--l"), _P,
         _arg("--tol", type=float, help="relative width target (default 1e-8)"),
         _arg("--kmax", type=int, help="depth cap")],
        ["cf-bracket-forward-recursion", "exact-sum-oracle"], _tail),
    ("bahadur",): (
        "P(S_n >= j) via hypergeometric closed form", [_N, _int("--j"), _P],
        ["hypergeometric-closed-form"],
        lambda a: ({"n": a.n, "j": a.j, "p": a.p},
                   {"value": binom_tail.bahadur_tail(a.n, a.j, a.p)})),
    ("lln", "bernoulli"): (
        "one-sided geometric-blocking bound", [_P, _EPS, _ETA],
        ["geometric-blocking-bound"], _lln_bernoulli),
    ("lln", "cantelli"): (
        "all-following-trials bound", [_EPS, _ETA], ["all-following-trials-bound"],
        lambda a: ({"eps": a.eps, "eta": a.eta},
                   {"n": lln_bounds.cantelli_n(a.eps, a.eta)})),
    ("lexis", "q"): (None, _COUNTS + [_P], ["dispersion-coefficient"], _lexis_q),
    ("lexis", "qhat"): (None, _COUNTS, ["plug-in-dispersion"], _lexis_qhat),
    ("lexis", "moments"): (None, [_N, _int("--s"), _P], ["exact-moment-sum"], _lexis_moments),
    ("lexis", "d"): (
        None, [_arg("--matrix-csv", required=True,
                    help="header-less CSV of p_ij, one series per row")],
        ["exact-expectation"], _lexis_d),
    ("runs",): (
        "probability of a success run",
        [_N, _int("--r"), _P, _arg("--method", choices=(*RUN_METHODS, "all"), default="all")],
        None, _runs),
    ("ruin", "bounds"): (None, _GAME, ["fair-game-bounds"], _ruin_bounds),
    ("ruin", "exact"): (
        None, _GAME + [_arg("--tol", type=float)], ["absorbing-chain-banded-solve"], _ruin_exact),
    ("ruin", "roots"): (None, _GAME, ["characteristic-polynomial"], _ruin_roots),
    ("bernstein", "bound"): (
        None,
        [_arg("--b2", type=float, required=True, help="variance of the sum"), _T, _C,
         _arg("--m-bound", type=float, help="uniform bound M")],
        ["exponential-tail-bound"], _bernstein_bound),
    ("bernstein", "check"): (
        None,
        [_arg("--family", choices=("uniform", "two-point"), default="uniform"),
         _arg("--half-width", type=float, default=1.0),
         _arg("--scale", type=float, default=1.0),
         _arg("--count", type=int, default=1), _C,
         _arg("--kmax", type=int, default=10)],
        ["moment-growth-check"], _bernstein_check),
    ("bernstein", "mc"): (
        None, [_N, _T, _arg("--samples", type=int, default=10**6)],
        ["seeded-monte-carlo", "exponential-tail-bound"], _bernstein_mc),
    ("shuffle", "order"): (
        None, [_DECK], ["multiplicative-order"],
        lambda a: ({"deck": a.deck}, {"order": gems.shuffle_order(a.deck)})),
    ("shuffle", "perfect"): (
        None, [_DEALT_DECK, _TIMES], ["in-shuffle-permutation"],
        lambda a: ({"deck": a.deck, "times": a.times},
                   {"arrangement": gems.in_shuffled(_dealt(a.deck), a.times)})),
    ("shuffle", "monge"): (
        None, [_DEALT_DECK, _TIMES], ["over-under-permutation"],
        lambda a: ({"deck": a.deck, "times": a.times},
                   {"arrangement": gems.monge_shuffled(_dealt(a.deck), a.times),
                    "order": gems.monge_order(a.deck)})),
    ("beatty", "pair"): (
        None,
        [_arg("--alpha", required=True, help="phi | phi2 | sqrt:D | quad:x,y,d | number"),
         _HORIZON],
        ["exact-floor-spectra"], _beatty_pair),
    ("beatty", "triple"): (
        None, [_arg("--alpha", action="append", required=True, help="repeat three times"),
               _HORIZON],
        ["exhaustive-scan"], _beatty_triple),
    ("beatty", "wythoff"): (
        None, [_int("--count")], ["golden-ratio-floors"],
        lambda a: ({"count": a.count}, {"cold_positions": gems.wythoff_cold(a.count)})),
    ("partition", "exact"): (
        None, [_N], ["pentagonal-recurrence"],
        lambda a: ({"n": a.n}, {"p_n": gems.partition_exact(a.n)})),
    ("partition", "asymptotic"): (None, [_N], ["asymptotic-formulas"], _partition_asymptotic),
}

GROUP_HELP = {
    "lln": "sample-size bounds",
    "lexis": "dispersion analysis",
    "ruin": "unequal-stakes gambler's ruin",
    "bernstein": "exponential tail bound",
    "shuffle": "perfect and over-under shuffles",
    "beatty": "spectra and Wythoff positions",
    "partition": "partition counts",
}


class _Parser(argparse.ArgumentParser):
    r"""An ArgumentParser that reads any negative number as a value.

    argparse's own pattern, ^-\d+$|^-\d*\.\d+$, takes -1e3 and -inf for
    flags ("--t -1e3": expected one argument); no flag here starts with a
    digit, inf or nan.  add_subparsers makes every group and leaf parser
    of the top parser's class, so the full parse and a leaf's agree.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf$|infinity$|nan$)", re.I)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The top-level parser with one leaf parser per COMMANDS row.

    Built once per process, on the first call, and shared by every later
    call: callers must not mutate it.  Parsing leaves it unchanged (each
    parse_args starts from a fresh namespace) and help is wrapped to the
    terminal width at the time it is printed.

    --format/--seed/--tol work before or after the subcommand.  Leaves
    register them with SUPPRESS defaults, so a value given after the
    subcommand overrides one given before, and absence leaves the
    top-level value in place.  A leaf that owns a --tol (the bracket and
    chain tolerances) keeps it; the global --tol then only exists up front.
    """
    top = _Parser(
        prog="certiprob",
        description="classical probability with certified brackets and oracles",
    )
    top.add_argument("--format", choices=FORMATS, default="json",
                     help="output format (default json)")
    top.add_argument("--seed", type=int, help="Monte Carlo seed")
    top.add_argument("--tol", type=float, dest="global_tol",
                     help="tolerance for subcommands that take one")
    defaults = {dest: top.get_default(dest) for dest in ("format", "seed", "global_tol")}
    top.leaves = {}  # path -> (leaf parser, the namespace the full parser starts it with)
    hidden = {"default": argparse.SUPPRESS, "help": argparse.SUPPRESS}
    subparsers = {(): top.add_subparsers(dest="cmd", required=True)}
    for path, (help_, specs, _, _) in COMMANDS.items():
        group = path[:-1]
        if group not in subparsers:
            subparsers[group] = subparsers[()].add_parser(
                group[0], help=GROUP_HELP[group[0]]
            ).add_subparsers(dest="sub", required=True)
        # argparse lists a leaf in its group's help once `help` is passed,
        # even as None, so it is passed only when the row has one.
        leaf = subparsers[group].add_parser(
            path[-1], **({} if help_ is None else {"help": help_})
        )
        for flag, kwargs in specs:
            leaf.add_argument(flag, **kwargs)
        leaf.add_argument("--format", choices=FORMATS, **hidden)
        leaf.add_argument("--seed", type=int, **hidden)
        if all(flag != "--tol" for flag, _ in specs):
            leaf.add_argument("--tol", type=float, dest="global_tol", **hidden)
        top.leaves[path] = (leaf, {**defaults, **dict(zip(("cmd", "sub"), path))})
    return top


def _parse(argv):
    """build_parser().parse_args(argv), keys in order, from the leaf parser
    alone when argv begins with a command path; the full parser reports
    what the leaf leaves unrecognized, and parses every other argv."""
    top = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    # The full parser first reads every argument against its own options,
    # and there "--=..." is an ambiguous abbreviation of all of them.
    if not any(arg.startswith("--=") for arg in argv):
        for path in (tuple(argv[:1]), tuple(argv[:2])):
            if path in top.leaves:
                leaf, head = top.leaves[path]
                args, unrecognized = leaf.parse_known_args(argv[len(path):])
                if not unrecognized:
                    return argparse.Namespace(**{**head, **vars(args)})
    return top.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    path = (args.cmd, args.sub) if hasattr(args, "sub") else (args.cmd,)
    _, _, provenance, handler = COMMANDS[path]
    envelope = {"command": " ".join(path)}
    code = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            try:
                inputs, result = handler(args)
            except SelfCheckFailed as exc:
                (inputs, result), code = exc.args, 1
            envelope.update(inputs=_echo(inputs), result=result,
                            provenance=list(result if provenance is None else provenance),
                            warnings=[str(w.message) for w in caught])
            text = render(envelope, args.format)
        except (ValueError, ArithmeticError, OSError, MemoryError) as exc:
            # The error envelope echoes the parsed arguments, leaving out the
            # path, --format, and the global --seed and --tol when not given.
            inputs = {
                k: v for k, v in vars(args).items()
                if k not in ("cmd", "sub", "format")
                and not (v is None and k in ("seed", "global_tol"))
            }
            envelope.update(inputs=_echo(inputs), result=None, provenance=[],
                            warnings=[str(w.message) for w in caught],
                            error={"type": type(exc).__name__, "message": str(exc)})
            text, code = render(envelope, args.format), 1
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left early, as `| head -1` does
        # the Python docs' note on SIGPIPE: the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
