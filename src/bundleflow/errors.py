"""Exception hierarchy shared across the package."""


class BundleFlowError(Exception):
    """Base class for all errors raised by this package."""


class SingularMetric(BundleFlowError):
    """Metric inversion failed: not positive definite, or condition number above the cap."""


class ChartMismatch(BundleFlowError):
    """Fields that must live on the same chart do not."""


class DimensionMismatch(BundleFlowError):
    """Inconsistent base or fiber dimensions between inputs."""


class DomainError(BundleFlowError):
    """Input outside the mathematical domain of the operation."""


class LambdaZero(DomainError):
    """The conserved quantity of the reduced flow is undefined for a Ricci-flat base."""


class NegativeBase(DomainError):
    """Fractional power with a negative base; use the cleared (polynomial) form instead."""


class BlowupTime(DomainError):
    """Requested time is at or beyond the finite horizon of the bound."""


class StepRejected(BundleFlowError):
    """A flow step from time ``t`` kept failing after the maximum number of halvings."""

    def __init__(self, message, t):
        self.t = t
        super().__init__(message)


class StepUnderflow(BundleFlowError):
    """Adaptive step size shrank below the hard floor."""


class EmptyInput(BundleFlowError):
    """Plot or reduction invoked on no usable data."""


class ConfigError(BundleFlowError):
    """Run configuration failed validation."""


class TraceIoError(BundleFlowError):
    """Trace file could not be written or read."""


class TraceParseError(TraceIoError):
    """Malformed trace file contents."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")
