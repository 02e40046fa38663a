"""Tests of the benchmark itself: tiny smoke runs and the reference checks.

    python3 -m pytest perfbench/tests -q      (from the repository root)
"""

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import refs  # noqa: E402
from certiprob import binom_tail, gems  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_tiny_failures_are_whole_passes():
    """Known faults fail on every pass, so failed/attempted is fixed by the list."""
    result = json.loads(run_bench("classics", 0).stdout.strip().splitlines()[-1])
    assert result["failed"] * 34 == result["attempted"] * 3


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("tail-float", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_bracket_check_rejects_a_perturbed_bracket():
    n, l, p, tol = 400, 150, Fraction(1, 3), 1e-8
    br = binom_tail.bracket_tail(binom_tail.TailQuery(n, l, p), tol=tol)
    ref = refs.tail_interval(n, l, p, "right")
    assert refs.check_bracket(br, ref, tol) is None
    above = float(ref[1]) * (1 + 1e-9)
    shifted = binom_tail.TailBracket(above, above * (1 + 1e-9), br.k_used, br.lead_term_log)
    assert "misses reference" in refs.check_bracket(shifted, ref, tol)
    wide = binom_tail.TailBracket(br.lower * (1 - 1e-6), br.upper, br.k_used, br.lead_term_log)
    assert "exceeds tol" in refs.check_bracket(wide, ref, tol)


def test_partition_check_rejects_a_wrong_count():
    table = refs.load_partition_table()
    assert table[:8] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert refs.check_partition(gems.partition_exact(1000), 1000, table) is None
    assert "coin DP" in refs.check_partition(gems.partition_exact(1000) + 1, 1000, table)


def test_partition_operations_start_cold():
    """Each timed partition call must run the recurrence, not hit the memo."""
    import workloads

    ops = [op for w in ("classics", "cli") for op in workloads.build(w, 7, tiny=True)
           if op.kind in ("gems.partition", "cli.partition")]
    assert len(ops) == 2
    for op in ops:
        gems.partition_exact(refs.PARTITION_MAX)
        op.prepare()
        assert len(gems._PARTITION_CACHE) == 1


def test_partition_table_matches_the_coin_dp():
    table = refs.load_partition_table()
    assert table[:600] == refs.partitions_coin_dp(599)


def test_independent_references_agree_with_exact_sums():
    # tails: the mpmath interval holds the exact Fraction sum
    lo, hi = refs.tail_interval(60, 30, Fraction(1, 3), "right")
    exact = sum(math.comb(60, k) * Fraction(1, 3) ** k * Fraction(2, 3) ** (60 - k)
                for k in range(31, 61))
    with refs.mp.workdps(80):
        assert lo <= refs.mpf(exact.numerator) / exact.denominator <= hi
    # runs: P(run of 2 heads in 3 fair tosses) = 3/8
    assert refs.run_prob_markov(3, 2, Fraction(1, 2)) == Fraction(3, 8)
    # shuffles: 52 cards recycle after 52 in-shuffles, not 8 (out-shuffle)
    assert refs.check_shuffle_order(52, 52) is None
    assert refs.check_shuffle_order(104, 52) is not None
    # ruin: fair unit game, B/(A+B)
    assert abs(refs.ruin_equal_stakes(3, 7, 1, 0.5) - 0.7) < 1e-15
    # stake 2 is the unit game on fortunes 4 // 2 = 5 // 2 = 2, with rho = 1/2:
    # (1/4 - 1/16) / (1 - 1/16) = 1/5
    assert abs(refs.ruin_equal_stakes(4, 5, 2, Fraction(2, 3)) - 0.2) < 1e-15
