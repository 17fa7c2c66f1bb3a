"""Recovery substrate: durable logs and crash recovery."""

from repro.recovery.log import DurableEntry, NvmLog
from repro.recovery.recovery import (
    RecoveredState,
    recover_latest,
    recover_majority,
    recovery_divergence,
)
from repro.recovery.replayer import RecoveryReplayer, RecoveryReport

__all__ = [
    "DurableEntry",
    "NvmLog",
    "RecoveredState",
    "RecoveryReplayer",
    "RecoveryReport",
    "recover_latest",
    "recover_majority",
    "recovery_divergence",
]
