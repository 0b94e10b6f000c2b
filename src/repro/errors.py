"""Exception hierarchy for the LEON-FT simulator.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """An invalid or inconsistent :class:`~repro.core.config.LeonConfig`."""


class AssemblerError(ReproError):
    """A source-level error found while assembling a program."""

    def __init__(self, message: str, line: int = 0, source: str = "") -> None:
        self.line = line
        self.source = source
        if line:
            message = f"line {line}: {message}"
        super().__init__(message)


class BusError(ReproError):
    """An AMBA transfer received an ERROR response."""

    def __init__(self, address: int, message: str = "") -> None:
        self.address = address
        super().__init__(message or f"bus error at {address:#010x}")


class SimulationError(ReproError):
    """The simulator reached an internal inconsistency."""


class UncorrectableError(ReproError):
    """A protected storage element holds an error the code cannot correct."""

    def __init__(self, message: str, address: int | None = None) -> None:
        self.address = address
        super().__init__(message)


class InjectionError(ReproError):
    """A fault-injection request referenced an unknown or invalid target."""


class StateError(ReproError):
    """A snapshot could not be captured, decoded or restored."""


class RecoveryError(ReproError):
    """A recovery policy or controller request was invalid."""
