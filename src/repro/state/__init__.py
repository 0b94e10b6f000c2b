"""Snapshot/restore of complete device state (see :mod:`repro.state.snapshot`)."""

from repro.state.snapshot import (
    DIAG_KEY,
    FORMAT_VERSION,
    OBSERVATION_COMPONENTS,
    Snapshot,
    strip_diag,
)

__all__ = [
    "DIAG_KEY",
    "FORMAT_VERSION",
    "OBSERVATION_COMPONENTS",
    "Snapshot",
    "strip_diag",
]
