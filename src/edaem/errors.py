"""Exception hierarchy for edaem.

Every failure mode the library can signal has its own class so callers
(and the CLI exit-code mapping) can branch on type instead of message text.
"""

from __future__ import annotations


class EdaemError(Exception):
    """Base class for all edaem errors."""


class DomainError(EdaemError):
    """A point lies outside the support/domain it was used with."""


class BoundaryError(EdaemError):
    """Parameters sit on the valid-domain boundary where the requested
    derivative quantity (score, Fisher information) is not defined."""


class DegenerateModelError(EdaemError):
    """Model parameters could not be repaired to a usable state
    (e.g. covariance not decomposable after jitter repair)."""


class DegenerateUpdateError(EdaemError):
    """An M-step produced parameters that family repair could not fix."""


class DegenerateWeightsError(EdaemError):
    """All shaped weights in a generation are zero."""


class DegenerateObjectiveError(EdaemError):
    """E_p[f] is zero (or f violates nonnegativity) in an exact computation."""


class ObjectiveError(EdaemError):
    """The objective returned a non-finite value (NaN or +-inf) for a sample,
    or a number of values other than the number of samples.

    Carries ``index``, the offending sample's position in the generation
    (None for a wrong count).
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class ShapingInputError(EdaemError):
    """Shaping input is invalid: NaN/inf values, or negative values under
    the identity kind (which assumes nonnegative objective values)."""


class StepSizeError(EdaemError):
    """Gradient updates kept leaving the valid domain; the step size is
    likely too large."""


class FamilyMismatchError(EdaemError, TypeError):
    """Parameter vectors from different families were combined."""


class ConfigError(EdaemError):
    """A config document or CLI argument violates the schema."""


class RunAbortedError(EdaemError):
    """A run aborted mid-way: any ``Exception`` raised inside ``run``.

    ``trace`` holds the records of the iterations completed before the
    failure, and ``__cause__`` the failure itself.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace
