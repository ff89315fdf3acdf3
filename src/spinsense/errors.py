"""Exception hierarchy shared by all spinsense modules."""


class SpinSenseError(Exception):
    """Base class for all library errors."""


class DomainError(SpinSenseError, ValueError):
    """Input outside the documented domain (bad range, parity, shape...)."""


class DegenerateInputError(DomainError):
    """Construction collapses numerically (e.g. cat state with coincident branches)."""


class TruncationError(SpinSenseError):
    """Fock-space cutoff too small for the requested probability budget."""

    def __init__(self, message, neglected=None):
        super().__init__(message)
        self.neglected = neglected


class NumericalToleranceError(SpinSenseError):
    """Two independent numerical routes disagree beyond the allowed tolerance."""


class RootFindingError(NumericalToleranceError):
    """Polynomial root finder failed to converge; carries the worst residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SingularInformationError(SpinSenseError):
    """A Fisher-information matrix that must be inverted is singular.

    Callers should run `metrology.singular_diagnosis` on the matrix to find
    which parameter combinations are inestimable; given the probe's covariance,
    it also tells a deficit of the chart from one of the probe.
    """

    def __init__(self, message, matrix=None):
        super().__init__(message)
        self.matrix = matrix


class NonIdentifiableError(SpinSenseError):
    """The likelihood does not single out a parameter point."""

    def __init__(self, message, null_directions=None):
        super().__init__(message)
        self.null_directions = null_directions


class KingSearchError(SpinSenseError):
    """No state with isotropic second moments exists for this J."""

    def __init__(self, message, best_trace_inverse=None, best_isotropy_error=None):
        super().__init__(message)
        self.best_trace_inverse = best_trace_inverse
        self.best_isotropy_error = best_isotropy_error


class UnreliableRunError(SpinSenseError):
    """Too many per-trial estimator failures to report statistics."""

    def __init__(self, message, failed_fraction=None):
        super().__init__(message)
        self.failed_fraction = failed_fraction


class ConfigError(SpinSenseError, ValueError):
    """Experiment configuration file violates the schema."""
