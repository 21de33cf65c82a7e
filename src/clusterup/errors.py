"""Exception types shared across the package."""


class ClusterUpError(Exception):
    """Base class for all package-specific failures."""


class ShapeMismatch(ClusterUpError):
    """Operands have incompatible dimensions."""


class NotPositiveDefinite(ClusterUpError):
    """Cholesky factorization failed, even after jitter escalation."""


class NoConvergence(ClusterUpError):
    """An iterative factorization exceeded its iteration budget."""


class AllZeroSpectrum(ClusterUpError):
    """Every singular value is zero; no rank can be chosen by energy."""


class DegenerateData(ClusterUpError):
    """Input data carries no variance (all samples identical)."""


class InsufficientData(ClusterUpError):
    """Fewer samples than clusters requested."""


class EmptyCalibration(ClusterUpError):
    """Calibration produced zero activation tokens."""


class AllMasked(ClusterUpError):
    """Every token is masked out of a loss computation."""


class InsufficientTokens(ClusterUpError):
    """Too few routed tokens per expert for a defined statistic."""


class ZeroWeights(ClusterUpError):
    """An expert's parameter vector has zero norm."""


class SeparationInfeasible(ClusterUpError):
    """Could not sample cluster directions at the requested separation."""


class NonFiniteLoss(ClusterUpError):
    """Training produced a NaN or Inf loss; carries the offending report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConfigError(ClusterUpError):
    """Configuration file failed strict validation."""


class CheckpointError(ClusterUpError):
    """Malformed or inconsistent checkpoint file."""
