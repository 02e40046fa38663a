"""certiprob: classical probability and number-theory algorithms with
certified error brackets and independent brute-force oracles.

Submodules
----------
numerics        log-space binomial pmf and the exact tail oracle
binom_tail      continued-fraction tail brackets, hypergeometric closed form
lln_bounds      executable sample-size bounds for the weak law
lexis           dispersion coefficients Q, Q_hat, D and their exact moments
runs            success-run probabilities by four independent methods
ruin            unequal-stakes gambler's ruin: bounds, exact chain, roots
concentration   exponential tail bound for bounded sums, with MC harness
gems            shuffles, Beatty spectra, Wythoff positions, partitions
cli             command-line front end (``certiprob`` entry point)
"""

from . import (
    binom_tail,
    concentration,
    gems,
    lexis,
    lln_bounds,
    numerics,
    ruin,
    runs,
)
from .binom_tail import (
    TailBracket,
    TailQuery,
    bahadur_tail,
    bracket_tail,
    left_tail_bracket,
)
from .concentration import BernsteinInput, bernstein_bound, moment_condition_check
from .gems import (
    QuadSurd,
    beatty_pair_check,
    in_shuffled,
    monge_shuffled,
    partition_exact,
    partition_uspensky,
    shuffle_order,
    spectrum,
    triple_spectrum_search,
    wythoff_cold,
)
from .lexis import (
    CountVector,
    TrialMatrix,
    dispersion_Q,
    empirical_Q_hat,
    expected_D,
    moments_Q_hat,
)
from .lln_bounds import LlnQuery, bernoulli_alpha, bernoulli_n_bound, cantelli_n
from .numerics import binom_tail_exact, log_binom_pmf
from .ruin import RuinGame, ruin_bounds_fair, ruin_exact_chain, ruin_root_equation
from .runs import (
    RunSpec,
    run_prob_beta,
    run_prob_demoivre,
    run_prob_oracle,
    run_prob_recursive,
)

__version__ = "0.1.0"
