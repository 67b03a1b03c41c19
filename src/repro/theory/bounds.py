"""Executable versions of the paper's explicit bounds.

The functions are deliberately literal: each one cites the statement it
encodes and uses the paper's constants, so experiment code reads like
the paper.  ``log`` is base 2 in round counts, following the paper
(e.g. Lemma 6's ``log(k+1)``).  The good-graph thresholds of
Definition 17 live with their checkers in :mod:`repro.graphs.good`.
"""

from __future__ import annotations

import math

#: α = 1 / log₂(4/3) ≈ 2.409, the exponent of Lemmas 13-16.
ALPHA: float = 1.0 / math.log2(4.0 / 3.0)


# ----------------------------------------------------------------------
# Lemmas 6 and 7 (activity → stable black)
# ----------------------------------------------------------------------
def lemma6_rounds(k: int) -> int:
    """Rounds after which Lemma 6's probability bound applies:
    ``t + log(k+1)`` (we return ⌈log₂(k+1)⌉)."""
    if k < 1:
        raise ValueError("Lemma 6 requires k >= 1")
    return math.ceil(math.log2(k + 1))


def lemma6_probability(k: int) -> float:
    """Lemma 6: a k-active vertex is stable black after
    ``lemma6_rounds(k)`` rounds with probability at least ``(2ek)^-1``."""
    if k < 1:
        raise ValueError("Lemma 6 requires k >= 1")
    return 1.0 / (2.0 * math.e * k)


def lemma7_probability(ks: list[int]) -> float:
    """Lemma 7: for active u_1..u_ℓ with k_i active neighbours,
    P[some u_i stable black after log(max k_i + 1) rounds]
    >= (1/5) · min(1, Σ 1/(2 k_i))."""
    if not ks or any(k < 1 for k in ks):
        raise ValueError("Lemma 7 requires nonempty ks with k_i >= 1")
    return 0.2 * min(1.0, sum(1.0 / (2.0 * k) for k in ks))


# ----------------------------------------------------------------------
# Theorem 12 (maximum degree)
# ----------------------------------------------------------------------
def theorem12_round_bound(n: int, delta: int) -> float:
    """Theorem 12's proof bound: w.h.p. stabilization within
    ``4r = 24 e Δ log n`` rounds (r = 6eΔ log n, and t_r <= 4r w.h.p.)."""
    if n < 2:
        return 0.0
    if delta < 1:
        return 1.0
    return 24.0 * math.e * delta * math.log2(n)
