"""Command-line surface: envelopes, formats, rational parsing, exit codes."""

import csv
import functools
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import certiprob
from certiprob import cli
from certiprob.cli import main, parse_alpha, parse_prob
from certiprob.gems import QuadSurd

from _oracles import lln_alpha_mpmath


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def no_constant(name):
    """json.loads hook for Infinity, -Infinity and NaN, which RFC 8259 has no form for."""
    raise ValueError(f"{name} is not JSON")


class TestParsers:
    def test_prob_forms(self):
        from fractions import Fraction

        assert parse_prob("1/3") == Fraction(1, 3)
        assert parse_prob("0.25") == 0.25

    def test_alpha_forms(self):
        assert parse_alpha("phi") == QuadSurd.golden()
        assert parse_alpha("sqrt:2") == QuadSurd.sqrt(2)
        q = parse_alpha("quad:7/3,1/4,11")
        assert q.d == 11
        assert parse_alpha("2.5") == 2.5


class TestTailCommand:
    def test_flagship_envelope(self, capsys):
        code, env = run_json(
            capsys, "tail", "--n", "9000", "--p", "1/3", "--l", "3090",
            "--tol", "3e-3",
        )
        assert code == 0
        assert env["command"] == "tail"
        assert env["inputs"]["p"] == "1/3"  # rational echoed exactly
        res = env["result"]
        assert res["k_used"] == 6
        assert res["lower"] <= res["exact"] <= res["upper"]
        assert round(res["exact"], 5) == 0.02170

    def test_unconverged_warnings(self, capsys):
        argv = ("tail", "--n", "2000", "--l", "700", "--p", "0.3", "--tol", "1e-15")
        code, env = run_json(capsys, *argv)
        assert code == 0 and not env["result"]["converged"]
        assert env["warnings"] == ["tolerance below the rounding floor of the bracket"]
        code, env = run_json(capsys, *argv, "--kmax", "3")
        assert code == 0 and env["result"]["k_used"] == 3
        assert env["warnings"] == ["tolerance not reached before k_max"]

    def test_method_refusal_is_domain_error(self, capsys):
        code, env = run_json(capsys, "tail", "--n", "10", "--p", "0.5", "--l", "4")
        assert code == 1
        assert env["error"]["type"] == "MethodNotApplicableError"

    def test_error_envelope_echoes_inputs(self, capsys):
        code, env = run_json(capsys, "tail", "--n", "100", "--l", "200", "--p", "0.3")
        assert code == 1
        assert env["error"]["type"] == "ValueError"
        assert env["inputs"] == {"n": 100, "l": 200, "p": 0.3, "tol": None, "kmax": None}

    def test_error_envelope_names_subcommand(self, capsys):
        code, env = run_json(
            capsys, "--seed", "7", "ruin", "bounds", "--a", "6", "--b", "4",
            "--alpha", "2", "--beta", "1", "--p", "1/3",
        )
        assert code == 1
        assert env["command"] == "ruin bounds"
        assert env["inputs"] == {"seed": 7, "a": 6, "b": 4, "alpha": 2, "beta": 1, "p": "1/3"}


class TestFormats:
    def test_json_csv_payloads_match(self, capsys):
        args = ("runs", "--n", "4", "--r", "2", "--p", "0.5")
        _, env = run_json(capsys, *args)
        code, out = run_cli(capsys, "--format", "csv", *args)
        assert code == 0
        rows = dict(csv.reader(io.StringIO(out)))
        for method in ("recursive", "beta", "demoivre", "oracle"):
            assert float(rows[f"result.{method}"]) == env["result"][method] == 0.5

    def test_plain_format_keys(self, capsys):
        code, out = run_cli(
            capsys, "--format", "plain", "shuffle", "order", "--deck", "52"
        )
        assert code == 0
        assert "result.order = 52" in out

    def test_deterministic_output(self, capsys):
        args = ("partition", "asymptotic", "--n", "100")
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    def test_json_round_trips(self, capsys):
        _, out = run_cli(capsys, "bahadur", "--n", "12", "--j", "7", "--p", "0.3")
        env = json.loads(out)
        assert json.loads(json.dumps(env)) == env


class TestSubcommands:
    def test_shuffle_order_table_entry(self, capsys):
        code, env = run_json(capsys, "shuffle", "order", "--deck", "52")
        assert code == 0
        assert env["result"]["order"] == 52

    def test_shuffle_perfect_diagram(self, capsys):
        _, env = run_json(capsys, "shuffle", "perfect", "--deck", "8")
        assert env["result"]["arrangement"] == [5, 1, 6, 2, 7, 3, 8, 4]

    def test_runs_agreeing_methods(self, capsys):
        _, env = run_json(capsys, "runs", "--n", "4", "--r", "2", "--p", "1/2")
        assert set(env["result"].values()) == {0.5}

    def test_lln_bernoulli(self, capsys):
        _, env = run_json(
            capsys, "lln", "bernoulli", "--p", "1/2", "--eps", "1/2", "--eta", "1/2"
        )
        assert env["result"]["alpha"] == 1
        assert env["result"]["n_bound"] == 2

    @pytest.mark.parametrize("eps", ["1e-7", "1/100000000000000000000"])
    def test_lln_bernoulli_tiny_eps(self, capsys, eps):
        # alpha near 1e7 and 1e20: certified by logs, not by powers of the ratio
        code, env = run_json(capsys, "lln", "bernoulli", "--p", "1/2", "--eps", eps, "--eta", "1/10")
        assert code == 0
        assert env["result"]["alpha"] == lln_alpha_mpmath(Fraction(1, 2), parse_prob(eps), Fraction(1, 10))

    def test_lln_cantelli(self, capsys):
        _, env = run_json(capsys, "lln", "cantelli", "--eps", "0.1", "--eta", "0.1")
        assert env["result"]["n"] == 1661

    def test_lexis_csv_ingestion(self, capsys, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text("2\n1\n")
        code, env = run_json(
            capsys, "lexis", "qhat", "--counts-csv", str(counts), "--s", "2"
        )
        assert code == 0
        assert env["result"]["Q_hat"] == pytest.approx(1.0)

    def test_lexis_matrix_csv(self, capsys, tmp_path):
        matrix = tmp_path / "probs.csv"
        matrix.write_text("0.2,0.2\n0.8,0.8\n")
        _, env = run_json(capsys, "lexis", "d", "--matrix-csv", str(matrix))
        assert env["result"]["regime"] == "lexis"
        assert env["result"]["D"] > 1

    def test_lexis_moments(self, capsys):
        _, env = run_json(
            capsys, "lexis", "moments", "--n", "2", "--s", "2", "--p", "1/2"
        )
        assert env["result"]["variance"] == pytest.approx(0.75)
        assert env["result"]["bound1"] == pytest.approx(8.0)

    def test_ruin_bounds_fair(self, capsys):
        _, env = run_json(
            capsys, "ruin", "bounds", "--a", "5", "--b", "5",
            "--alpha", "1", "--beta", "1", "--p", "1/2",
        )
        assert env["result"] == {"lower": 0.5, "upper": 0.5}

    def test_ruin_unfair_rejected(self, capsys):
        code, env = run_json(
            capsys, "ruin", "bounds", "--a", "6", "--b", "4",
            "--alpha", "2", "--beta", "1", "--p", "1/3",
        )
        assert code == 1
        assert env["error"]["type"] == "UnfairGameError"

    def test_ruin_roots_default_fortunes(self, capsys):
        _, env = run_json(
            capsys, "ruin", "roots", "--alpha", "1", "--beta", "1", "--p", "0.6"
        )
        reals = sorted(r["re"] for r in env["result"]["roots"])
        assert reals == pytest.approx([2 / 3, 1.0], abs=1e-10)

    def test_ruin_roots_high_degree(self, capsys):
        code, env = run_json(
            capsys, "ruin", "roots", "--alpha", "72", "--beta", "1", "--p", "0.47766"
        )
        assert code == 0
        assert len(env["result"]["roots"]) == 73

    def test_ruin_roots_past_the_float_range(self, capsys):
        # the largest root is near 100, so |z|^201 is about 1e402
        code, env = run_json(
            capsys, "ruin", "roots", "--alpha", "200", "--beta", "1", "--p", "0.01"
        )
        assert code == 0
        assert len(env["result"]["roots"]) == 201

    def test_bernstein_bound(self, capsys):
        _, env = run_json(
            capsys, "bernstein", "bound", "--b2", "33.333333", "--t", "20",
            "--m-bound", "1",
        )
        assert env["result"]["bound"] == pytest.approx(0.01348, abs=1e-4)

    def test_bernstein_check(self, capsys):
        _, env = run_json(
            capsys, "bernstein", "check", "--family", "uniform",
            "--half-width", "1", "--count", "3",
        )
        assert env["result"]["holds"] is True

    def test_bernstein_mc_requires_seed(self, capsys):
        code, env = run_json(capsys, "bernstein", "mc", "--n", "10", "--t", "4")
        assert code == 1
        assert "seed" in env["error"]["message"]

    def test_bernstein_mc_seeded(self, capsys):
        code, env = run_json(
            capsys, "--seed", "42", "bernstein", "mc", "--n", "10", "--t", "4.0",
            "--samples", "20000",
        )
        assert code == 0
        assert env["result"]["p_hat"] <= env["result"]["bound"]

    def test_beatty_pair(self, capsys):
        _, env = run_json(
            capsys, "beatty", "pair", "--alpha", "phi", "--horizon", "500"
        )
        assert env["result"]["disjoint"] and env["result"]["covers"]

    def test_beatty_float_alpha_reads_exactly(self, capsys):
        # 2 * 2.5 is the integer 5: the float is read as 5/2, not refused
        code, env = run_json(capsys, "beatty", "pair", "--alpha", "2.5", "--horizon", "10")
        assert code == 0
        assert env["result"]["disjoint"] is False

    def test_beatty_float_alpha_partner_is_exact(self, capsys):
        # the partner of 3.5 is 7/5 exactly, not fl(3.5 / 2.5) < 7/5
        code, env = run_json(capsys, "beatty", "pair", "--alpha", "3.5", "--horizon", "10")
        assert code == 0
        assert env["result"]["disjoint"] is False
        assert env["result"]["covers"] is False

    def test_beatty_triple(self, capsys):
        _, env = run_json(
            capsys, "beatty", "triple", "--alpha", "phi", "--alpha", "phi2",
            "--alpha", "sqrt:7", "--horizon", "1000",
        )
        assert env["result"]["witness"] is not None

    def test_beatty_wythoff(self, capsys):
        _, env = run_json(capsys, "beatty", "wythoff", "--count", "3")
        assert env["result"]["cold_positions"] == [[0, 0], [1, 2], [3, 5], [4, 7]]

    def test_partition_exact(self, capsys):
        _, env = run_json(capsys, "partition", "exact", "--n", "100")
        assert env["result"]["p_n"] == 190569292

    def test_partition_asymptotic(self, capsys):
        _, env = run_json(capsys, "partition", "asymptotic", "--n", "100")
        assert env["result"]["refined"] == pytest.approx(190569292, rel=1e-5)


class TestUsageErrors:
    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["tail", "--n", "10"])
        assert exc.value.code == 2

    def test_unparseable_number_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["tail", "--n", "ten", "--l", "3", "--p", "0.5"])
        assert exc.value.code == 2


class TestRunsSelfCheck:
    def test_disagreement_is_named_and_exits_one(self, capsys, monkeypatch):
        real = cli.RUN_METHODS["beta"]
        monkeypatch.setitem(cli.RUN_METHODS, "beta", lambda spec: real(spec) + 1e-9)
        code, env = run_json(capsys, "runs", "--n", "20", "--r", "3", "--p", "1/2")
        assert code == 1
        assert "error" not in env
        result = env["result"]
        assert result["beta"] == pytest.approx(result["recursive"] + 1e-9, abs=1e-15)
        assert env["provenance"] == ["recursive", "beta", "demoivre", "oracle"]
        assert env["warnings"] == [
            "methods recursive and beta differ by 1e-09, above the agreement tolerance 1e-10",
            "methods beta and demoivre differ by 1e-09, above the agreement tolerance 1e-10",
            "methods beta and oracle differ by 1e-09, above the agreement tolerance 1e-10",
        ]

    def test_gap_within_tolerance_passes(self, capsys, monkeypatch):
        real = cli.RUN_METHODS["oracle"]
        monkeypatch.setitem(cli.RUN_METHODS, "oracle", lambda spec: real(spec) + 1e-11)
        code, env = run_json(capsys, "runs", "--n", "20", "--r", "3", "--p", "1/2")
        assert (code, env["warnings"]) == (0, [])


class TestParserReuse:
    """One parser per process: calls share it and leave nothing behind."""

    @pytest.fixture
    def fresh_parser(self):
        cli.build_parser.cache_clear()
        yield
        cli.build_parser.cache_clear()

    def test_many_calls_build_once(self, capsys, monkeypatch, fresh_parser):
        built = []
        init = cli.argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counting_init)
        for deck in (52, 10, 52):
            assert run_json(capsys, "shuffle", "order", "--deck", str(deck))[0] == 0
        with pytest.raises(SystemExit):
            main(["tail", "--n", "10"])
        # the top parser, 7 groups and 23 leaves, built by the first call only
        assert len(built) == 1 + len(cli.GROUP_HELP) + len(cli.COMMANDS) == 31
        assert cli.build_parser() is cli.build_parser()

    def test_append_list_does_not_grow(self, capsys):
        argv = ("beatty", "triple", "--alpha", "phi", "--alpha", "phi2",
                "--alpha", "sqrt:7", "--horizon", "200")
        first = run_json(capsys, *argv)
        second = run_json(capsys, *argv)
        assert first == second
        assert first[1]["inputs"]["alphas"] == ["phi", "phi2", "sqrt:7"]

    def test_global_flags_do_not_leak(self, capsys):
        tail = ("tail", "--n", "200", "--l", "80", "--p", "0.3")
        _, env = run_json(capsys, "--tol", "1e-3", *tail)
        assert env["inputs"]["tol"] == 1e-3
        _, env = run_json(capsys, *tail)
        assert env["inputs"]["tol"] == 1e-8

        mc = ("bernstein", "mc", "--n", "5", "--t", "2", "--samples", "100")
        assert run_json(capsys, "--seed", "7", *mc)[0] == 0
        code, env = run_json(capsys, *mc)
        assert code == 1
        assert env["error"]["message"] == "Monte Carlo runs require an explicit --seed"

        code, out = run_cli(capsys, "--format", "csv", *tail)
        assert code == 0 and out.startswith("command,tail\n")
        assert json.loads(run_cli(capsys, *tail)[1])["command"] == "tail"

    @staticmethod
    @functools.cache
    def fresh(*argv):
        ran = TestEntryPoint.run_module(*argv)
        return ran.returncode, ran.stdout

    @pytest.mark.parametrize("exit_argv, status", [
        (["frobnicate"], 2),
        (["tail", "--n", "ten", "--l", "3", "--p", "0.5"], 2),
        (["--help"], 0),
        (["ruin", "exact", "--help"], 0),
    ])
    def test_exit_then_valid_call_matches_fresh_process(self, capsys, exit_argv, status):
        with pytest.raises(SystemExit) as exc:
            main(exit_argv)
        assert exc.value.code == status
        capsys.readouterr()
        for argv in (("shuffle", "order", "--deck", "52"),
                     ("tail", "--n", "100", "--l", "200", "--p", "0.3")):
            assert run_cli(capsys, *argv) == self.fresh(*argv)

    def test_help_follows_columns_at_call_time(self, capsys, monkeypatch):
        pages = {}
        for width in (40, 120, 40):
            monkeypatch.setenv("COLUMNS", str(width))
            with pytest.raises(SystemExit):
                main(["tail", "--help"])
            page = capsys.readouterr().out
            assert pages.setdefault(width, page) == page
            assert max(map(len, page.splitlines())) <= width
        assert pages[40] != pages[120]


class TestFloatRefusal:
    def test_runs_cancellation_is_error_envelope(self, capsys):
        code, env = run_json(capsys, "runs", "--n", "2000", "--r", "3", "--p", "0.9")
        assert code == 1
        assert env["error"]["type"] == "CancellationError"
        assert env["result"] is None

    def test_runs_closed_form_past_the_float_range(self, capsys):
        # a binomial of the closed form passes 1e308; its term does not
        code, env = run_json(capsys, "runs", "--n", "6232", "--r", "13", "--p", "0.5127250459522125")
        assert code == 0
        assert "error" not in env and env["warnings"] == []
        result = env["result"]
        assert set(result) == {"recursive", "beta", "demoivre", "oracle"}
        assert abs(result["beta"] - result["recursive"]) <= 1e-10

    @pytest.mark.parametrize("p", ["inf", "-inf", "nan"])
    def test_non_finite_p_is_range_error(self, capsys, p):
        code, env = run_json(capsys, "tail", "--n", "10", "--l", "5", f"--p={p}")
        assert code == 1
        assert env["error"]["type"] == "ValueError"
        assert env["error"]["message"].startswith("p must lie strictly in (0, 1), got ")

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_non_finite_result_refused(self, capsys, fmt):
        # partition_uspensky overflows to inf from n = 79,274 on
        code, out = run_cli(capsys, "partition", "asymptotic", "--n", "1000000", "--format", fmt)
        assert code == 1
        assert "NonFiniteResultError" in out
        assert "result.simple = inf, result.refined = inf" in out
        assert "Infinity" not in out and "NaN" not in out
        if fmt == "json":
            env = json.loads(out, parse_constant=no_constant)
            assert env["result"] is None

    def test_non_finite_input_refused(self, capsys):
        code, out = run_cli(capsys, "tail", "--n", "200", "--l", "80", "--p", "0.3", "--tol", "inf")
        env = json.loads(out, parse_constant=no_constant)
        assert code == 1
        assert env["error"]["type"] == "NonFiniteResultError"
        assert env["inputs"]["tol"] == "inf"

    def test_infinite_threshold_refused_as_input_alone(self, capsys):
        # the bound itself has the limit 0 at t = inf; only the input is non-finite
        code, out = run_cli(capsys, "bernstein", "bound", "--b2", "1", "--t", "inf", "--c", "1")
        env = json.loads(out, parse_constant=no_constant)
        assert code == 1
        assert env["error"] == {
            "type": "NonFiniteResultError",
            "message": "inputs.t = inf: an envelope carries only finite numbers",
        }

    def test_nan_tol_refused_before_the_walk(self, capsys):
        code, out = run_cli(capsys, "tail", "--n", "20000", "--l", "6100", "--p", "0.3", "--tol", "nan")
        env = json.loads(out, parse_constant=no_constant)
        assert code == 1
        assert env["error"] == {"type": "ValueError", "message": "tol must be positive, got nan"}
        assert env["inputs"]["tol"] == "nan"

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_ruin_tol_refused(self, capsys, tol):
        code, out = run_cli(capsys, "ruin", "exact", "--a", "6", "--b", "4", "--alpha", "2",
                            "--beta", "3", "--p", "0.55", "--tol", tol)
        env = json.loads(out, parse_constant=no_constant)
        assert code == 1
        assert env["error"]["type"] == "ValueError"
        assert env["error"]["message"] == f"tol must be finite, got {tol}"

    @pytest.mark.parametrize("p", ["inf", "-inf", "nan"])
    def test_non_finite_argument_echoed_as_text(self, capsys, p):
        code, out = run_cli(capsys, "tail", "--n", "10", "--l", "5", f"--p={p}")
        assert code == 1
        assert json.loads(out, parse_constant=no_constant)["inputs"]["p"] == p

    def test_lexis_moments_probability_out_of_range(self, capsys):
        code, env = run_json(capsys, "lexis", "moments", "--n", "5", "--s", "4", "--p", "3/2")
        assert code == 1
        assert env["error"]["type"] == "ValueError"
        assert env["result"] is None


class TestEntryPoint:
    """`python -m certiprob.cli` as a real process: exit codes and streams."""

    @staticmethod
    def run_module(*argv):
        src = Path(certiprob.__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
        return subprocess.run(
            [sys.executable, "-m", "certiprob.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_success_error_and_usage_exit_codes(self):
        ok = self.run_module("shuffle", "order", "--deck", "52")
        assert ok.returncode == 0
        assert json.loads(ok.stdout)["result"] == {"order": 52}

        failed = self.run_module("tail", "--n", "100", "--l", "200", "--p", "0.3")
        assert failed.returncode == 1
        assert json.loads(failed.stdout)["error"]["type"] == "ValueError"

        usage = self.run_module("frobnicate")
        assert usage.returncode == 2
        assert usage.stdout == ""
        assert "invalid choice" in usage.stderr
