"""Exception and warning types shared across the package."""


class NonConvergence(RuntimeError):
    """A solve stopped above its tolerance.

    Carries the partially converged field and its report so callers can
    inspect the last residual, and the reason the solve stopped: a
    descent's "iteration cap" or "line-search stall", a p = 2 linear
    answer's "linear path residual", or the Poincare eigensolver's
    "eigensolver residual".
    """

    def __init__(self, message, report=None, field=None, reason=None):
        super().__init__(message)
        self.report = report
        self.field = field
        self.reason = reason


class DegenerateTarget(ValueError):
    """Capacity target captures no grid node at the current resolution."""


class UnpinnedMask(ValueError):
    """Constraint mask pins nothing, so the Rayleigh quotient infimum is zero."""


class ResolutionTooCoarse(RuntimeError):
    """A crack segment is invisible (or nearly so) on the local grid."""


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


class ResolutionWarning(UserWarning):
    """A crack feature sits near or below the resolving power of the grid."""
