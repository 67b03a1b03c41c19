"""E9 — Lemmas 6 and 7: activity → stabilization probability bounds.

Lemma 6: if u is active with k >= 1 active neighbours at the end of
round t, then P[u ∈ I_{t + ⌈log(k+1)⌉}] >= (2ek)^-1.

Lemma 7: for active u_1..u_ℓ with k_i active neighbours each,
P[some u_i ∈ I_{t + log(max k_i + 1)}] >= (1/5) min(1, Σ 1/(2 k_i)).

Workload: engineered all-black stars.  A star with black hub and k
black leaves makes the hub active with exactly k active neighbours (and
each leaf active with 1 active neighbour).  Disjoint unions of ℓ such
stars realize the Lemma 7 setting.  Monte-Carlo probabilities are
compared against the closed forms of :mod:`repro.theory.bounds`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.two_state import TwoStateMIS
from repro.experiments.registry import ExperimentResult, register
from repro.experiments.tables import format_table
from repro.graphs.generators import disjoint_union, star_graph
from repro.sim.rng import spawn_seeds
from repro.theory.bounds import (
    lemma6_probability,
    lemma6_rounds,
    lemma7_probability,
)


def _star_trial(k: int, trial_seed: int) -> bool:
    """One Lemma 6 trial: hub of an all-black k-star; stable after r rounds?"""
    graph = star_graph(k + 1)
    init = np.ones(k + 1, dtype=bool)
    process = TwoStateMIS(graph, coins=trial_seed, init=init)
    process.step(lemma6_rounds(k))
    return bool(process.stable_black_mask()[0])


def _multi_star_trial(ell: int, k: int, trial_seed: int) -> bool:
    """One Lemma 7 trial: ℓ disjoint all-black k-stars; any hub stable?"""
    star = star_graph(k + 1)
    graph = disjoint_union([star] * ell)
    init = np.ones(graph.n, dtype=bool)
    process = TwoStateMIS(graph, coins=trial_seed, init=init)
    process.step(lemma6_rounds(k))
    stable = process.stable_black_mask()
    hubs = [i * (k + 1) for i in range(ell)]
    return bool(any(stable[h] for h in hubs))


@register("E9", "Lemmas 6/7: k-active → stable black probability bounds")
def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    if fast:
        ks = [1, 2, 4, 8]
        trials = 400
        ells = [1, 2, 4]
        multi_k = 4
    else:
        ks = [1, 2, 4, 8, 16, 32, 64]
        trials = 3000
        ells = [1, 2, 4, 8, 16]
        multi_k = 8

    # --- Lemma 6 ---
    rows6 = []
    lemma6_ok = True
    for k_idx, k in enumerate(ks):
        hits = sum(
            _star_trial(k, s) for s in spawn_seeds(seed + k_idx, trials)
        )
        p_hat = hits / trials
        bound = lemma6_probability(k)
        # Allow 4 binomial std deviations of slack below the bound.
        slack = 4 * math.sqrt(bound * (1 - bound) / trials)
        ok = p_hat >= bound - slack
        lemma6_ok &= ok
        rows6.append([k, p_hat, bound, "yes" if ok else "NO"])
    table6 = format_table(
        ["k", "P̂[stable in ⌈log(k+1)⌉]", "(2ek)⁻¹", ">= bound"],
        rows6,
        title=f"Lemma 6 on all-black stars ({trials} trials each)",
    )

    # --- Lemma 7 ---
    rows7 = []
    lemma7_ok = True
    for e_idx, ell in enumerate(ells):
        hits = sum(
            _multi_star_trial(ell, multi_k, s)
            for s in spawn_seeds(seed + 100 + e_idx, trials)
        )
        p_hat = hits / trials
        bound = lemma7_probability([multi_k] * ell)
        slack = 4 * math.sqrt(max(bound * (1 - bound), 1e-6) / trials)
        ok = p_hat >= bound - slack
        lemma7_ok &= ok
        rows7.append([ell, p_hat, bound, "yes" if ok else "NO"])
    table7 = format_table(
        ["ℓ", "P̂[some hub stable]", "(1/5)min(1, ℓ/2k)", ">= bound"],
        rows7,
        title=f"Lemma 7 on ℓ disjoint all-black {multi_k}-stars",
    )

    return ExperimentResult(
        experiment_id="E9",
        title="Activity-to-stability bounds (Lemmas 6/7)",
        tables=[table6, table7],
        verdicts={
            "Lemma 6 bound holds at every k": lemma6_ok,
            "Lemma 7 bound holds at every ℓ": lemma7_ok,
        },
        data={"rows6": rows6, "rows7": rows7},
    )
