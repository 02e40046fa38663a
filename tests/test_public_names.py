"""The names `certiprob` exports, pinned so the public surface grows only
on purpose: one entry per job, with second implementations kept in the
tests as cross-checks."""

import certiprob

EXPORTED = [
    "BernsteinInput", "CountVector", "LlnQuery", "QuadSurd", "RuinGame", "RunSpec",
    "TailBracket", "TailQuery", "TrialMatrix", "bahadur_tail", "beatty_pair_check",
    "bernoulli_alpha", "bernoulli_n_bound", "bernstein_bound", "binom_tail",
    "binom_tail_exact", "bracket_tail", "cantelli_n", "concentration", "dispersion_Q",
    "empirical_Q_hat", "expected_D", "gems", "in_shuffled", "left_tail_bracket", "lexis",
    "lln_bounds", "log_binom_pmf", "moment_condition_check", "moments_Q_hat",
    "monge_shuffled", "numerics", "partition_exact", "partition_uspensky", "ruin",
    "ruin_bounds_fair", "ruin_exact_chain", "ruin_root_equation", "run_prob_beta",
    "run_prob_demoivre", "run_prob_oracle", "run_prob_recursive", "runs", "shuffle_order",
    "spectrum", "triple_spectrum_search", "wythoff_cold",
]


def test_exported_names():
    # importing certiprob.cli binds `cli` on the package; the package itself does not
    names = sorted(name for name in vars(certiprob) if not name.startswith("_") and name != "cli")
    assert names == EXPORTED
    assert len(names) == 47
