"""Exception types shared across the package."""


class DualmixError(Exception):
    """Base class for all package-specific errors."""


class DomainViolation(DualmixError):
    """A point lies outside (or on the boundary of) a kernel's domain."""


class SingularHessian(DualmixError):
    """The kernel Hessian failed a positive-definiteness check numerically."""


class NotInImage(DualmixError):
    """A dual vector has no preimage under the mirror map."""


class NoConvergence(DualmixError):
    """An iterative inverse failed to reach its residual tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SingularMatrix(DualmixError):
    """A matrix required to be nonsingular is (numerically) singular."""


class ModeMismatch(DualmixError):
    """A kernel combination mode's structural prerequisite is violated."""


class SamplingExhausted(DualmixError):
    """Rejection sampling exceeded its failure-rate budget."""


class PreconditionViolated(DualmixError):
    """A lemma-level hypothesis check failed for the supplied inputs."""


class Disconnected(DualmixError):
    """The communication graph is not connected."""


class DisconnectedAfterRetries(Disconnected, ValueError):
    """Random graph generation never produced a connected graph.  Also a
    ValueError: its arguments (m, p) gave no connected draw within the retry
    budget, so a config reports it like any other rejected value."""


class ParseError(DualmixError):
    """A config file could not be parsed; carries line/column if known."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(DualmixError, ValueError):
    """A config or spec failed validation; names the offending key path."""

    def __init__(self, key, message=""):
        super().__init__(f"{key}: {message}" if message else key)
        self.key = key


# The errors that mark a run or a recorded state as diverged rather than
# failed
DIVERGENCE = (DomainViolation, NotInImage, NoConvergence, SingularHessian)
