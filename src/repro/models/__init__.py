"""Transient-fault adversaries (:mod:`repro.models.faults`) for the
self-stabilization experiments (E11).

The paper's communication models — beeping with sender collision
detection and the stone-age model — are the reference processes of
:mod:`repro.core.reference`.
"""

from repro.models.faults import (
    FaultEvent,
    RandomCorruption,
    TargetedCorruption,
    MISFlipCorruption,
    FaultInjectionCampaign,
)

__all__ = [
    "FaultEvent",
    "RandomCorruption",
    "TargetedCorruption",
    "MISFlipCorruption",
    "FaultInjectionCampaign",
]
