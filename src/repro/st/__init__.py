"""Synchronous-Transmission protocol suite: Glossy, MiniCast, CP drivers."""

from repro.st.glossy import FloodResult, GlossyConfig, run_flood
from repro.st.minicast import MiniCast, MiniCastConfig, RoundOutcome
from repro.st.rounds import (
    CpApplication,
    CpCalibration,
    CpStats,
    IdealCP,
    SampledCP,
    SlotLevelCP,
)
from repro.st.sync import SyncService, SyncStats

__all__ = [
    "CpApplication",
    "CpCalibration",
    "CpStats",
    "FloodResult",
    "GlossyConfig",
    "IdealCP",
    "MiniCast",
    "MiniCastConfig",
    "RoundOutcome",
    "SampledCP",
    "SlotLevelCP",
    "SyncService",
    "SyncStats",
    "run_flood",
]
