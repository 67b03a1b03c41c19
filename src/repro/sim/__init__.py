"""Simulation engine: coin sources, runners, traces, Monte-Carlo tools."""

from repro.sim.rng import (
    CoinSource,
    SeededCoins,
    ScriptedCoins,
    spawn_coin_sources,
    spawn_seeds,
)
from repro.sim.runner import RunResult, run_many_until_stable, run_until_stable
from repro.sim.trace import Trace, TraceRecorder
from repro.sim.checkpoint import (
    CheckpointError,
    CheckpointJournal,
    CheckpointMismatchError,
    CheckpointView,
    campaign_fingerprint,
    checkpoint_scope,
    get_default_checkpoint_dir,
    set_default_checkpoint_dir,
)
from repro.sim.montecarlo import (
    TrialStats,
    estimate_stabilization_time,
)

__all__ = [
    "CheckpointError",
    "CheckpointJournal",
    "CheckpointMismatchError",
    "CheckpointView",
    "campaign_fingerprint",
    "checkpoint_scope",
    "get_default_checkpoint_dir",
    "set_default_checkpoint_dir",
    "CoinSource",
    "SeededCoins",
    "ScriptedCoins",
    "spawn_seeds",
    "spawn_coin_sources",
    "RunResult",
    "run_until_stable",
    "run_many_until_stable",
    "Trace",
    "TraceRecorder",
    "TrialStats",
    "estimate_stabilization_time",
]
