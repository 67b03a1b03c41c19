"""The paper's processes: 2-state, 3-state, logarithmic switch, 3-color.

This subpackage is the primary contribution layer of the reproduction.
Every definition from the paper has a direct counterpart:

* Definition 4  → :class:`repro.core.two_state.TwoStateMIS`
* Definition 5  → :class:`repro.core.three_state.ThreeStateMIS`
* Definition 25 → :class:`repro.core.switch.SwitchSchedule` (abstract
  on/off sequence with properties S1-S3)
* Definition 26 → :class:`repro.core.switch.RandomizedLogSwitch`
* Definition 28 → :class:`repro.core.three_color.ThreeColorMIS`

Plus the analytic notation of §2 and §4.1 in :mod:`repro.core.activity`
and MIS/stability verification in :mod:`repro.core.verify`.
"""

from repro.core.states import (
    WHITE,
    BLACK,
    GRAY,
    BLACK0,
    BLACK1,
    TWO_STATE_NAMES,
    THREE_STATE_NAMES,
    THREE_COLOR_NAMES,
)
from repro.core.neighbor_ops import NeighborOps, SparseNeighborOps
from repro.core.process import MISProcess
from repro.core.two_state import TwoStateMIS
from repro.core.batched import (
    BatchedScheduledTwoStateMIS,
    BatchedThreeColorMIS,
    BatchedThreeStateMIS,
    BatchedTwoStateMIS,
    batchable,
    engine_for,
)
from repro.core.three_state import ThreeStateMIS
from repro.core.switch import (
    RandomizedLogSwitch,
    OracleSwitch,
    SwitchTraceAnalyzer,
)
from repro.core.three_color import ThreeColorMIS
from repro.core.schedulers import (
    ScheduledTwoStateMIS,
    SynchronousScheduler,
    IndependentScheduler,
    SingleVertexScheduler,
    AdversarialGreedyScheduler,
)
from repro.core.verify import (
    is_independent_set,
    is_maximal_independent_set,
    independence_violations,
    maximality_violations,
    assert_valid_mis,
)
from repro.core.activity import (
    active_set,
    k_active_set,
    stable_black_set,
    unstable_set,
    theta_u,
)

__all__ = [
    "WHITE",
    "BLACK",
    "GRAY",
    "BLACK0",
    "BLACK1",
    "TWO_STATE_NAMES",
    "THREE_STATE_NAMES",
    "THREE_COLOR_NAMES",
    "NeighborOps",
    "SparseNeighborOps",
    "MISProcess",
    "TwoStateMIS",
    "BatchedTwoStateMIS",
    "BatchedThreeStateMIS",
    "BatchedThreeColorMIS",
    "BatchedScheduledTwoStateMIS",
    "batchable",
    "engine_for",
    "ThreeStateMIS",
    "RandomizedLogSwitch",
    "OracleSwitch",
    "SwitchTraceAnalyzer",
    "ThreeColorMIS",
    "ScheduledTwoStateMIS",
    "SynchronousScheduler",
    "IndependentScheduler",
    "SingleVertexScheduler",
    "AdversarialGreedyScheduler",
    "is_independent_set",
    "is_maximal_independent_set",
    "independence_violations",
    "maximality_violations",
    "assert_valid_mis",
    "active_set",
    "k_active_set",
    "stable_black_set",
    "unstable_set",
    "theta_u",
]
