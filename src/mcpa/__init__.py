"""Linearized red-detuned cavity electromechanics toolkit.

Models a single optical/microwave mode coupled to a mechanical mode in the
resolved-sideband, weak-coupling regime, probed in transmission. Provides
the closed-form probe response, resonance and detuning sweeps with group
delay, time-domain pulse propagation (spectral and state-space routes),
and calibration fits that recover device parameters from measured spectra.
"""

from .errors import (
    BracketingError,
    ConfigError,
    ConvergenceError,
    DipNotFoundError,
    FitError,
    McpaError,
    NoCriticalCouplingError,
    ParameterError,
    PulseEstimationError,
)
from .model import (
    DeviceParams,
    Regime,
    RegimeResult,
    boundary_coupling,
    classify_regime,
    critical_coupling,
    effective_window_hz,
    group_delay_curve,
    principal_phase,
    reference_device,
    transmission_curve,
)
from .spectra import (
    Spectrum,
    detuning_span,
    numeric_group_delay,
    sweep_coupling_resonance,
    sweep_detuning,
)
from .pulses import (
    CenterTimeEstimate,
    PulseConfig,
    PulseWaveform,
    band_averaged_delay,
    band_warnings,
    center_time,
    center_time_estimates,
    delay_pulse_config,
    extract_delay,
    gaussian_pulse,
    integrate_langevin,
    propagate,
    waveform_rms_sigma,
)
from .calibrate import (
    FitResult,
    MeasuredSpectrum,
    fit_bare_cavity,
    fit_mechanical_window,
    infer_critical_from_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BracketingError",
    "CenterTimeEstimate",
    "ConfigError",
    "ConvergenceError",
    "DeviceParams",
    "DipNotFoundError",
    "FitError",
    "FitResult",
    "McpaError",
    "MeasuredSpectrum",
    "NoCriticalCouplingError",
    "ParameterError",
    "PulseConfig",
    "PulseEstimationError",
    "PulseWaveform",
    "Regime",
    "RegimeResult",
    "Spectrum",
    "band_averaged_delay",
    "band_warnings",
    "boundary_coupling",
    "center_time",
    "center_time_estimates",
    "classify_regime",
    "critical_coupling",
    "delay_pulse_config",
    "detuning_span",
    "effective_window_hz",
    "extract_delay",
    "fit_bare_cavity",
    "fit_mechanical_window",
    "gaussian_pulse",
    "group_delay_curve",
    "infer_critical_from_sweep",
    "integrate_langevin",
    "numeric_group_delay",
    "principal_phase",
    "propagate",
    "reference_device",
    "sweep_coupling_resonance",
    "sweep_detuning",
    "transmission_curve",
    "waveform_rms_sigma",
]
