"""Experiment harness: one registered experiment per theorem/lemma.

Run from the command line::

    python -m repro.experiments list
    python -m repro.experiments run E1
    python -m repro.experiments run all    # fast mode; --full for full size

Each experiment module exposes ``run(fast: bool, seed: int) ->
ExperimentResult`` and registers itself with the registry.  The
``fast`` flag trades sample sizes for runtime (used by CI/tests);
EXPERIMENTS.md records full-run outputs.
"""

from repro.experiments.registry import (
    ExperimentResult,
    get_experiment,
    list_experiments,
    register,
    run_experiment,
)
from repro.experiments.fitting import (
    PolylogFit,
    fit_polylog,
    fit_power_law,
)
from repro.experiments.tables import format_table
from repro.experiments.asciiplot import ascii_plot

# Importing the experiment modules registers them.
from repro.experiments import (  # noqa: F401  (registration side effects)
    exp_clique,
    exp_arboricity,
    exp_maxdeg,
    exp_gnp,
    exp_disjoint_cliques,
    exp_three_color,
    exp_switch,
    exp_good_graphs,
    exp_lemma6,
    exp_comparison,
    exp_self_stabilization,
    exp_models,
    exp_progress,
    exp_lemma13,
    exp_conjecture,
    exp_schedulers,
    exp_three_state,
    exp_ablation,
    exp_scaling,
    exp_churn,
)

__all__ = [
    "ExperimentResult",
    "get_experiment",
    "list_experiments",
    "register",
    "run_experiment",
    "PolylogFit",
    "fit_polylog",
    "fit_power_law",
    "format_table",
    "ascii_plot",
]
