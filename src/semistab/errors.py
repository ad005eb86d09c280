"""Exception types shared across the package."""


class SemistabError(Exception):
    """Base class for all package-specific errors."""


class IllConditionedError(SemistabError):
    """The Lanczos norm kernel hit its step cap before the Ritz residual of
    its top Ritz value fell to the tolerance, or met a nonzero norm below
    ``linalg.NORM_FLOOR`` or above about 1e77.  The message names the cause;
    the last singular-value estimate is carried, so callers can decide
    whether the partial answer is still usable.
    """

    def __init__(self, message, last_estimate):
        super().__init__(message)
        self.last_estimate = last_estimate


class SpectrumHitError(SemistabError):
    """Resolvent requested at a point too close to an eigenvalue."""


class ContourTooCloseError(SemistabError):
    """An eigenvalue lies within the safety margin of the contour circle."""


class NonconvergedError(SemistabError):
    """Contour quadrature did not stabilize under node doubling."""


class ClusteredSpectrumError(SemistabError):
    """No admissible isolating circle exists at this truncation."""


class TruncationInadequateError(SemistabError):
    """The truncation is too small for the requested time horizon.

    ``required`` names the minimal adequate ``max_index``.
    """

    def __init__(self, message, required):
        super().__init__(message)
        self.required = required


class InsufficientSamplesError(SemistabError):
    """Not enough samples in the admissible window to fit a rate law."""


class ConfigError(SemistabError):
    """Malformed or inconsistent experiment configuration."""
