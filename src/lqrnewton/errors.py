"""Exception types shared across the library."""


class LqrError(Exception):
    """Base class for all library-specific failures."""


class NotStabilizing(LqrError):
    """A gain is not gamma-stabilizing where the operation requires it."""


class SeedNotStabilizing(LqrError):
    """An optimizer run was started from a non-stabilizing gain."""


class NoConvergence(LqrError):
    """An iterative solver hit its iteration cap or missed its accuracy bound."""


class SingularT(LqrError):
    """The Stein operator I - gamma*(Acl' (x) Acl') is too ill-conditioned.

    Its eigenvalues are 1 - gamma l_i l_j over the closed-loop eigenvalues
    l; one near zero signals that the gain sits numerically on the
    stabilizing boundary.
    """


class DirectionError(LqrError):
    """No positive-definite preconditioner produced a descent direction."""


class PerturbationLeftStabilizingSet(LqrError):
    """A finite-difference probe stepped outside the stabilizing set."""


class DimensionUnsupported(LqrError):
    """Operation is only defined for gains with exactly two parameters."""


class ConfigError(LqrError):
    """Experiment configuration failed validation.

    The message carries the offending field path (e.g. ``methods[1].alpha``)
    or, for malformed JSON, the line and column of the parse error.
    """
