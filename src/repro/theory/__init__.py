"""The paper's explicit bounds as executable calculators.

The constants the experiments and budgets use are mirrored here, so
that measurements are compared against *the paper's own numbers*
rather than ad-hoc budgets:

* :mod:`repro.theory.bounds` — probability and round-count bounds
  (Lemmas 6/7 and Theorem 12, and the α exponent of Lemmas 13-16).
* :mod:`repro.theory.budgets` — recommended simulation round budgets
  derived from the bounds (used to size ``max_rounds`` honestly).
"""

from repro.theory.bounds import (
    ALPHA,
    lemma6_probability,
    lemma6_rounds,
    lemma7_probability,
    theorem12_round_bound,
)
from repro.theory.budgets import (
    recommended_budget,
    clique_budget,
    arboricity_budget,
    max_degree_budget,
    gnp_budget,
    three_color_budget,
)

__all__ = [
    "ALPHA",
    "lemma6_probability",
    "lemma6_rounds",
    "lemma7_probability",
    "theorem12_round_bound",
    "recommended_budget",
    "clique_budget",
    "arboricity_budget",
    "max_degree_budget",
    "gnp_budget",
    "three_color_budget",
]
