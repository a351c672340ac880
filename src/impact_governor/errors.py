"""Exception and warning types shared across the package."""


class ImpactGovernorError(Exception):
    """Base class for all package-specific errors."""


# --- ingest ---------------------------------------------------------------

class IngestError(ImpactGovernorError):
    pass


class MissingColumn(IngestError):
    """A required CSV column or manifest key is absent."""


class RateMismatch(IngestError):
    """Declared sample rate disagrees with row spacing beyond 0.01%."""


class EmptyStream(IngestError):
    """A stream file contains a header but no data rows."""


class MalformedRow(IngestError):
    """A stream row holds a non-numeric, empty or non-finite cell, or has a
    different number of cells than the rows before it."""


class TriggerMissing(IngestError):
    """No rising edge found in a trigger column."""


class AlignmentOutOfTolerance(IngestError):
    """Trigger instants cannot be reconciled with the sample grid within 0.1 ms."""


class ManifestError(IngestError):
    """Trial manifest is malformed or references missing files."""


class LengthMismatch(ImpactGovernorError):
    """Series that must share a sample grid have different lengths."""


# --- dsp ------------------------------------------------------------------

class DspError(ImpactGovernorError):
    pass


class WindowTooLarge(DspError):
    """Despike window exceeds the series length."""


class CutoffAboveNyquist(DspError):
    """Filter cutoff at or above half the sample rate."""


class NonPositiveDefiniteCovariance(DspError):
    """Kalman covariance lost positive definiteness (numerical failure)."""


# --- impact ---------------------------------------------------------------

class ImpactError(ImpactGovernorError):
    pass


class NoImpactFound(ImpactError):
    """No sample exceeds the force detection threshold."""


class VelocityTooLow(ImpactError):
    """Force threshold met, but never together with the velocity gate:
    the candidate event looks like a false positive (bench knock, cable tug)."""


class RestitutionAboveUnity(ImpactError):
    """Rebound speed exceeds approach speed; trial rejected as unphysical."""


class EmptyInput(ImpactError):
    """Aggregation requires at least two trials."""


# --- fit ------------------------------------------------------------------

class FitError(ImpactGovernorError):
    pass


class Underdetermined(FitError):
    """Fewer points than polynomial coefficients."""


class DegenerateX(FitError):
    """All abscissae identical; no polynomial fit possible."""


class RestitutionOutOfRange(FitError):
    """Fitted restitution leaves [0, 1] somewhere on its domain."""


class SchemaVersionMismatch(FitError):
    """Profile file schema version is not supported."""


class InvariantViolation(ImpactGovernorError):
    """A loaded or constructed object violates its declared invariants."""


# --- governor -------------------------------------------------------------

class GovernorConfigError(ImpactGovernorError):
    """A governor configuration value is mistyped or out of range."""


# --- streaming ------------------------------------------------------------

class ProtocolError(ImpactGovernorError):
    """Malformed or unknown message on the streaming interface."""


# --- sim ------------------------------------------------------------------

class ScenarioInvariantViolation(ImpactGovernorError):
    """Scenario parameters are inconsistent (rates, geometry, governor config)."""


# --- warnings -------------------------------------------------------------

class NonMonotoneForceMapWarning(UserWarning):
    """The predicted average-force map F(v) decreases somewhere on [0, v_max];
    the bisection cap is still valid but the model deserves a look."""
