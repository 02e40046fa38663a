"""certiprob benchmark: seeded workloads, best-of-N timing, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload tail-float --seed 1 --seconds 20 --trace 0

Workloads: tail-float, tail-exact, classics, cli (see perfbench/README.md).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a separate traced run.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The
program is imported from ./src, never from an installed copy; without
./src/certiprob the run exits with status 1 and prints no result.
"""

import os

# Single-threaded numerics, for this process and every child it starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
CLI_PROBES = 5

def _transient_states(game):
    """Size of the banded system a ruin game solves."""
    return game.a + game.b - game.alpha - game.beta + 1


# (module, attribute, span name, count from (args, kwargs, result)).
# Each wraps the name as the calling module binds it.
SPANS = (
    ("binom_tail", "log_binom_pmf", "numerics.lead_term", None),
    ("numerics", "log_binom_pmf", "numerics.lead_term", None),
    ("numerics", "binom_tail_exact", "numerics.oracle", None),
    ("binom_tail", "bracket_tail", "binom_tail.bracket", lambda a, k, r: r.k_used),
    ("binom_tail", "bahadur_tail", "binom_tail.bahadur", None),
    ("ruin", "ruin_exact_chain", "ruin.chain", lambda a, k, r: _transient_states(a[0])),
    ("ruin", "ruin_chain_b_side", "ruin.chain", lambda a, k, r: _transient_states(a[0])),
    ("ruin", "ruin_root_equation", "ruin.roots", None),
    ("gems", "beatty_pair_check", "gems.beatty", None),
    ("gems", "triple_spectrum_search", "gems.beatty", None),
    ("gems", "_floors", "gems.floors", lambda a, k, r: len(r)),
    ("gems", "partition_exact", "gems.partition", None),
    ("gems", "shuffle_order", "gems.shuffle", None),
    ("gems", "monge_order", "gems.shuffle", None),
    ("gems", "wythoff_cold", "gems.wythoff", None),
    ("runs", "run_prob_recursive", "runs.recursive", None),
    ("runs", "run_prob_beta", "runs.beta", None),
    ("runs", "run_prob_demoivre", "runs.demoivre", None),
    ("runs", "run_prob_oracle", "runs.oracle", None),
    ("lexis", "moments_Q_hat", "lexis.moments", None),
    ("lexis", "expected_D", "lexis.dispersion", None),
    ("lln_bounds", "bernoulli_alpha", "lln_bounds", None),
    ("lln_bounds", "bernoulli_n_bound", "lln_bounds", None),
    ("lln_bounds", "upper_count", "lln_bounds", None),
    ("lln_bounds", "cantelli_n", "lln_bounds", None),
    ("concentration", "mc_abs_sum_tail", "concentration.mc",
     lambda a, k, r: k.get("samples", 10**6)),
    ("cli", "main", "cli.main", None),
)

# per-layer metric -> (span names, field); field is "calls", "ms" (self time) or "count"
LAYER_METRICS = {
    "numerics.lead_term.calls": (("numerics.lead_term",), "calls"),
    "numerics.lead_term.ms": (("numerics.lead_term",), "ms"),
    "numerics.oracle.calls": (("numerics.oracle",), "calls"),
    "numerics.oracle.ms": (("numerics.oracle",), "ms"),
    "binom_tail.bracket.calls": (("binom_tail.bracket",), "calls"),
    "binom_tail.recursion.ms": (("binom_tail.bracket",), "ms"),
    "binom_tail.depth": (("binom_tail.bracket",), "count"),
    "binom_tail.bahadur.ms": (("binom_tail.bahadur",), "ms"),
    "ruin.chain.ms": (("ruin.chain",), "ms"),
    "ruin.chain.states": (("ruin.chain",), "count"),
    "ruin.roots.ms": (("ruin.roots",), "ms"),
    "gems.beatty.ms": (("gems.beatty", "gems.floors"), "ms"),
    "gems.beatty.floors": (("gems.floors",), "count"),
    "gems.shuffle.ms": (("gems.shuffle",), "ms"),
    "gems.wythoff.ms": (("gems.wythoff",), "ms"),
    "runs.recursive.ms": (("runs.recursive",), "ms"),
    "runs.beta.ms": (("runs.beta",), "ms"),
    "runs.demoivre.ms": (("runs.demoivre",), "ms"),
    "runs.oracle.ms": (("runs.oracle",), "ms"),
    "lexis.moments.ms": (("lexis.moments",), "ms"),
    "lexis.dispersion.ms": (("lexis.dispersion",), "ms"),
    "lln_bounds.ms": (("lln_bounds",), "ms"),
    "concentration.mc.ms": (("concentration.mc",), "ms"),
    "concentration.mc.samples": (("concentration.mc",), "count"),
    "cli.main.ms": (("cli.main",), "ms"),
    "gems.partition_cold.ms": (("gems.partition",), "ms"),
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("tail-float", "tail-exact", "classics", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the smoke tests")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def require_source():
    """Put ./src first on sys.path, or stop: the benchmark measures this checkout only."""
    if not (SRC / "certiprob" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'certiprob'} not found; run from the repository root")
    sys.path.insert(0, str(SRC))


def import_certiprob():
    import certiprob

    if Path(certiprob.__file__).resolve().parent != (SRC / "certiprob").resolve():
        sys.exit(f"perfbench: imported certiprob from {certiprob.__file__}, not {SRC}")
    return certiprob


def probe_setup(args):
    """Child process: time ``import certiprob`` plus building the workload's inputs."""
    import refs  # noqa: F401  (mpmath: benchmark-only, kept out of the timed window)

    t0 = time.perf_counter()
    import_certiprob()
    import workloads

    workloads.build(args.workload, args.seed, args.tiny)
    print(time.perf_counter() - t0)


def child_seconds(argv, env=None):
    """Wall time of one child process, and its last line of output."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:3]} exited {proc.returncode}: {proc.stderr[-500:]}")
    return elapsed, proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""


class SetupProbes:
    """Set-up times from fresh processes, spread over the run.

    The host's speed drifts over seconds, so one probe is taken before the
    timed passes and the rest between passes, one per equal share of the
    run; a run too short for them all takes the remainder at its end.
    """

    def __init__(self, args):
        self.argv = [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload",
                     args.workload, "--seed", str(args.seed), "--seconds", "0"]
        if args.tiny:
            self.argv.append("--tiny")
        self.count = 2 if args.tiny else SETUP_PROBES
        self.every = args.seconds / self.count
        self.times = []

    def probe(self):
        self.times.append(float(child_seconds(self.argv)[1]))

    def between(self, elapsed):
        while len(self.times) < self.count and elapsed >= len(self.times) * self.every:
            self.probe()

    def median(self):
        while len(self.times) < self.count:
            self.probe()
        return statistics.median(self.times)


def layer_metrics(best_t, best_u, layers):
    totals = {}
    for per_op in layers:
        for name, (calls, self_ns, count) in per_op.items():
            agg = totals.setdefault(name, [0, 0, 0])
            agg[0] += calls
            agg[1] += self_ns
            agg[2] += count
    metrics = {}
    for metric, (names, field) in LAYER_METRICS.items():
        idx = {"calls": 0, "ms": 1, "count": 2}[field]
        value = sum(totals.get(n, [0, 0, 0])[idx] for n in names)
        metrics[metric] = (value / 1e6, "ms") if field == "ms" else (value, "count")
    metrics["trace.busy_ms"] = (sum(best_t) * 1e3, "ms")
    metrics["trace.overhead_pct"] = ((sum(best_t) / sum(best_u) - 1) * 100, "%")
    return metrics


def cli_start_metrics():
    """Median wall time of a bare interpreter, and of one that imports certiprob."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    bare = statistics.median(child_seconds([sys.executable, "-c", "pass"], env)[0]
                             for _ in range(CLI_PROBES))
    imp = statistics.median(child_seconds([sys.executable, "-c", "import certiprob"], env)[0]
                            for _ in range(CLI_PROBES))
    return {"cli.interpreter_ms": (bare * 1e3, "ms"), "cli.import_ms": ((imp - bare) * 1e3, "ms")}


def write_trace(args, spans):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
    with path.open("w") as fh:
        for name, t0, t1, parent, count in spans:
            fh.write(json.dumps({"name": name, "start_ns": t0, "end_ns": t1,
                                 "parent": parent, "count": count}) + "\n")


def main(argv=None):
    args = parse_args(argv)
    require_source()
    if args.probe_setup:
        probe_setup(args)
        return 0

    import_certiprob()
    import harness
    import workloads

    ops = workloads.build(args.workload, args.seed, args.tiny)
    t_ref = time.perf_counter()
    harness.attach_checks(ops)
    t_ref = time.perf_counter() - t_ref
    # Objects alive now (modules, inputs, references) move to the permanent
    # generation, so the collection before each timed call scans only the
    # garbage the operations make.
    gc.collect()
    gc.freeze()
    if args.trace:
        tracer = harness.Tracer()
        certiprob = import_certiprob()
        for module, attr, name, count in SPANS:
            tracer.wrap(getattr(certiprob, module), attr, name, count)
        stats, best_t, best_u, layers = harness.traced_passes(ops, args.seconds, tracer)
        tracer.unwrap_all()
        metrics = layer_metrics(best_t, best_u, layers)
        metrics.update(cli_start_metrics())
        for kind in workloads.KINDS:
            metrics[f"{kind}.failed"] = (stats.failed_by_kind.get(kind, 0) / stats.passes, "count")
        write_trace(args, tracer.spans)
    else:
        setup = SetupProbes(args)
        setup.probe()
        stats = harness.run_passes(ops, args.seconds, between=setup.between)
        metrics = {
            "ops_per_s": (len(ops) / sum(stats.best), "1/s"),
            "op_p50_ms": (statistics.median(stats.best) * 1e3, "ms"),
            "setup_s": (setup.median(), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    for e in stats.unexpected:
        print(f"perfbench: {e}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed={args.seed} ops={len(ops)} passes={stats.passes} "
          f"references={t_ref:.2f}s", file=sys.stderr)
    result = {
        "correct": not stats.unexpected,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
