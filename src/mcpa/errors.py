"""Exception types shared across the package."""


class McpaError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(McpaError, ValueError):
    """A physical parameter or configuration value is out of its valid domain."""


class NoCriticalCouplingError(McpaError):
    """The device is not over-coupled (eta <= 1/2), so no zero of the
    resonant transmission exists at any coupling strength."""


class PulseEstimationError(McpaError):
    """A pulse arrival-time estimate is not meaningful for this waveform
    (multiple lobes, vanishing energy, or similar)."""


class FitError(McpaError):
    """Base class for calibration failures."""


class DipNotFoundError(FitError):
    """The measured spectrum shows no resonance feature to initialize from."""


class ConvergenceError(FitError):
    """The optimizer exhausted its iteration budget without meeting the
    gradient tolerance."""


class BracketingError(FitError):
    """A sweep does not bracket the feature it is supposed to locate."""


class ConfigError(McpaError):
    """A run configuration document is malformed or inconsistent."""
