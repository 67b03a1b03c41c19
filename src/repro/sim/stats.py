"""Statistical machinery for the experiments.

Beyond the summary stats in :mod:`repro.sim.montecarlo`:

* :func:`mann_whitney_faster` — one-sided test that one algorithm's
  times are stochastically smaller than another's (used by the
  comparison experiments to avoid eyeballing means);
* :func:`success_rate_ci` — Wilson interval on a success probability.
"""

from __future__ import annotations

import numpy as np
from scipy import stats as scipy_stats


def mann_whitney_faster(
    times_a: np.ndarray,
    times_b: np.ndarray,
    alpha: float = 0.01,
) -> dict[str, object]:
    """One-sided Mann-Whitney U: is A stochastically faster than B?

    Returns ``{"faster": bool, "p_value": float, "u": float}`` where
    ``faster`` means the one-sided p-value (A < B) is below ``alpha``.
    """
    times_a = np.asarray(times_a, dtype=float)
    times_b = np.asarray(times_b, dtype=float)
    if times_a.size == 0 or times_b.size == 0:
        raise ValueError("both samples must be nonempty")
    u, p_value = scipy_stats.mannwhitneyu(
        times_a, times_b, alternative="less"
    )
    return {
        "faster": bool(p_value < alpha),
        "p_value": float(p_value),
        "u": float(u),
    }


def success_rate_ci(
    successes: int, trials: int, confidence: float = 0.95
) -> tuple[float, float]:
    """Wilson score interval for a success probability.

    Used to report the w.h.p. claims honestly: "stabilized within the
    budget in 100/100 trials" becomes a [0.963, 1.0] interval rather
    than a bare 1.0.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    z = scipy_stats.norm.ppf(0.5 + confidence / 2.0)
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (
        z
        * np.sqrt(
            phat * (1 - phat) / trials + z * z / (4 * trials * trials)
        )
        / denom
    )
    return (max(0.0, center - half), min(1.0, center + half))
