"""Exception types shared across the package."""

from __future__ import annotations


class HardyMeansError(Exception):
    """Base class for all package errors."""


class DomainError(HardyMeansError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class BracketError(HardyMeansError):
    """The sign condition failed at the bracket endpoints."""


class InversionError(HardyMeansError):
    """Generator inversion could not bracket the target value."""


class NoBracketError(HardyMeansError):
    """No sign change was found while expanding the search bracket."""


class NotIntegrableError(HardyMeansError):
    """The generator's reciprocal profile x -> f(1/x) is not integrable on (0, 1]."""


class NoConvergenceError(HardyMeansError):
    """An iteration failed to settle within tolerance: a root finder at
    its iteration cap, a quadrature at its level cap, or a scaling ladder.

    A ladder's evaluated values are attached so callers can inspect
    whether the lower and upper accumulation points actually differ.
    """

    def __init__(self, message: str, ladder=None):
        super().__init__(message)
        self.ladder = list(ladder) if ladder is not None else []


class NotNormalizableError(HardyMeansError):
    """The kernel's diagonal derivative is not negative on the probe grid."""


class TailBoundFailure(HardyMeansError):
    """The series tail bound did not close before the term cap."""


class LimitNotDetected(HardyMeansError):
    """Limit detection did not stabilize over the probe ladder."""


class PGeqOne(HardyMeansError):
    """Detected power behaviour p >= 1, where no finite constant exists."""

    def __init__(self, message: str, p: float | None = None):
        super().__init__(message)
        self.p = p


class ZeroDerivativeError(HardyMeansError):
    """A required first derivative vanished at the probe point."""


class DerivativeUnavailableError(HardyMeansError):
    """Derivatives could be obtained neither analytically nor by differences."""


class ViolationFound(HardyMeansError):
    """A fuzzing trial exceeded the declared constant.

    Carries the witness sequence and the offending ratio.
    """

    def __init__(self, message: str, sequence=None, ratio: float | None = None,
                 trial: int | None = None, check: str = "constant"):
        super().__init__(message)
        self.sequence = None if sequence is None else list(map(float, sequence))
        self.ratio = ratio
        self.trial = trial
        self.check = check


class UsageError(HardyMeansError):
    """Malformed specifier text or invalid flag combination."""
